"""Workload inputs, generated from the seed alone.

The corpus is the generator's preset (``medium``: all 92 classes) at the
generator's own default seed, so every run classifies the same
executables and run-to-run differences are not differences in corpus
size.  The workload seed draws the split and everything after it.

The split follows the paper: 20% of the classes are held out as
unknown, and each remaining class gives 40% of its executables to the
held-out set and 60% to training, except that a class keeps at least
three training executables — the scanner's collection rule drops a
class with fewer than three versions, and each training executable is
laid out as a version of its own.  The held-out set is everything else;
its ground truth is the class name for a trained class and the unknown
label otherwise.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

#: The unknown label ``repro-classify train`` models use (the paper's -1).
UNKNOWN_LABEL = -1

#: Fraction of classes held out as unknown, and of samples held out per
#: known class (the paper's 80/20 and 60/40 splits).
UNKNOWN_CLASS_FRACTION = 0.20
TEST_SAMPLE_FRACTION = 0.40
MIN_TRAIN_PER_CLASS = 3


@dataclass(frozen=True)
class Sample:
    """One generated executable: a stable id, its class and its bytes."""

    sample_id: str
    class_name: str
    data: bytes


@dataclass
class Inputs:
    """The generated corpus split into training and held-out samples."""

    seed: int
    train: list[Sample]
    held_out: list[Sample]
    trained_classes: frozenset

    def truth(self, sample: Sample):
        """Ground truth: the class if the model knows it, else unknown."""

        return (sample.class_name if sample.class_name in self.trained_classes
                else UNKNOWN_LABEL)

    def held_out_known(self) -> list[Sample]:
        return [s for s in self.held_out if s.class_name in self.trained_classes]

    def size_stratified_held_out(self, salt: str, count: int) -> list[Sample]:
        """``count`` distinct held-out executables, one per size stratum.

        The held-out set, ordered by size, is cut into ``count`` equal
        strata and one executable is drawn from each, in a seeded order
        of its own per ``salt``.  Every seed thus gets the same spread
        of sizes, so the work per item does not swing with the draw.
        """

        ordered = sorted(self.held_out, key=lambda s: (len(s.data),
                                                       s.sample_id))
        count = min(count, len(ordered))
        rng = random.Random(f"{self.seed}:{salt}")
        picks = [rng.choice(ordered[i * len(ordered) // count:
                                    (i + 1) * len(ordered) // count])
                 for i in range(count)]
        rng.shuffle(picks)
        return picks

    def materialize_tree(self, root: Path) -> Path:
        """Write the training split as a ``<Class>/<version>/<exe>`` tree.

        Each training executable becomes a version directory of its own
        holding one file named ``exe``, so the scanner's rules (three
        versions per class, names present in every version) keep every
        training sample.
        """

        for sample in self.train:
            klass, version, exe = sample.sample_id.split("/", 2)
            target = root / klass / f"{version}+{exe}" / "exe"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(sample.data)
        return root


def corpus(scale: str, cache_dir: Path) -> list[Sample]:
    """The generated corpus, cached in ``cache_dir`` per generator source.

    The corpus does not depend on the workload seed, so it is generated
    once per checkout; the cache key covers every source file of the
    program, so a change to the generator regenerates it.
    """

    import hashlib
    import pickle

    from repro.config import default_config
    from repro.corpus.builder import CorpusBuilder

    src = Path(__file__).resolve().parent.parent / "src"
    key = hashlib.sha256(scale.encode())
    for path in sorted(src.rglob("*.py")):
        key.update(str(path.relative_to(src)).encode())
        key.update(path.read_bytes())
    cached = cache_dir / f"corpus-{key.hexdigest()[:16]}.pickle"
    if cached.is_file():
        # Written by this function alone, below.
        with open(cached, "rb") as handle:
            return [Sample(*fields) for fields in pickle.load(handle)]
    builder = CorpusBuilder(config=default_config(scale))
    samples = [Sample(g.relative_path, g.class_name, g.data)
               for g in builder.iter_samples()]
    partial = cached.with_suffix(f".{os.getpid()}.tmp")
    with open(partial, "wb") as handle:
        pickle.dump([(s.sample_id, s.class_name, s.data) for s in samples],
                    handle)
    os.replace(partial, cached)
    return samples


def generate(seed: int, scale: str, cache_dir: Path) -> Inputs:
    """The corpus split for ``seed`` (deterministic)."""

    samples = corpus(scale, cache_dir)
    by_class: dict[str, list[Sample]] = {}
    for sample in samples:
        by_class.setdefault(sample.class_name, []).append(sample)
    rng = random.Random(seed)
    classes = sorted(by_class)
    n_unknown = max(1, round(len(classes) * UNKNOWN_CLASS_FRACTION))
    unknown = set(rng.sample(classes, n_unknown))
    train: list[Sample] = []
    held_out: list[Sample] = []
    for name in classes:
        members = list(by_class[name])
        if name in unknown:
            held_out.extend(members)
            continue
        rng.shuffle(members)
        n_test = min(round(len(members) * TEST_SAMPLE_FRACTION),
                     max(0, len(members) - MIN_TRAIN_PER_CLASS))
        held_out.extend(members[:n_test])
        train.extend(members[n_test:])
    trained = frozenset(s.class_name for s in train)
    return Inputs(seed=seed, train=train, held_out=held_out,
                  trained_classes=trained)


def file_sha256(path: os.PathLike) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
