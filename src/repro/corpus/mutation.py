"""Version mutation model.

Real application versions differ from one another in ways that affect
the three fuzzy-hash features very unevenly (this is exactly the
paper's Table 5 observation):

* **raw content** changes with *every* recompilation — different
  compiler versions, flags and code changes reshuffle most of
  ``.text`` — so the ``ssdeep-file`` feature is the least stable;
* **embedded strings** change when messages, options or version
  banners change — moderately stable;
* **global symbol names** only change when code is refactored — the
  most stable feature.

:class:`VersionMutator` applies these three kinds of drift to an
:class:`~repro.corpus.appmodel.ExecutableModel`, producing the concrete
content (symbols, strings, code bytes, toolchain comment) from which
the ELF writer builds one sample.  All drift is deterministic in the
corpus seed, the class identity, the executable name and the version
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .appmodel import ApplicationModel, ExecutableModel, stable_seed
from .lexicon import COMPILER_COMMENTS, TOOLCHAINS

__all__ = ["MutationConfig", "MaterializedSample", "VersionMutator"]


@dataclass(frozen=True)
class MutationConfig:
    """Per-version drift rates (before scaling by the class's
    ``version_drift`` factor).

    The defaults were calibrated so that the resulting corpus shows the
    qualitative behaviour reported in the paper: high symbol-hash
    similarity within a class, moderate strings similarity, low-to-
    moderate raw-content similarity, and near-zero similarity across
    classes.
    """

    code_change_rate: float = 0.35
    string_change_rate: float = 0.08
    symbol_rename_rate: float = 0.03
    symbol_add_rate: float = 0.03
    symbol_remove_rate: float = 0.02
    toolchain_change_prob: float = 0.8
    #: Probability that a version bumps the major version (bigger drift).
    major_bump_prob: float = 0.2

    def scaled(self, drift: float) -> "MutationConfig":
        """Scale the drift rates by a class-specific factor."""

        def cap(x: float, hi: float = 0.95) -> float:
            return float(min(max(x, 0.0), hi))

        return MutationConfig(
            code_change_rate=cap(self.code_change_rate * drift),
            string_change_rate=cap(self.string_change_rate * drift),
            symbol_rename_rate=cap(self.symbol_rename_rate * drift, 0.5),
            symbol_add_rate=cap(self.symbol_add_rate * drift, 0.5),
            symbol_remove_rate=cap(self.symbol_remove_rate * drift, 0.5),
            toolchain_change_prob=self.toolchain_change_prob,
            major_bump_prob=self.major_bump_prob,
        )


@dataclass
class MaterializedSample:
    """Concrete content of one sample, ready for the ELF writer."""

    class_name: str
    version: str
    executable: str
    functions: tuple[str, ...]
    objects: tuple[str, ...]
    strings: tuple[str, ...]
    code: bytes
    comment: str
    needed_libraries: tuple[str, ...] = ()


class VersionMutator:
    """Derives per-version content for the executables of one class."""

    def __init__(self, model: ApplicationModel,
                 config: MutationConfig | None = None) -> None:
        self.model = model
        base = config or MutationConfig()
        self.config = base.scaled(model.spec.version_drift)

    # ----------------------------------------------------------- versions
    def version_names(self, count: int) -> list[str]:
        """Version directory names (``<semver>-<toolchain>`` style).

        Explicit versions from the catalogue are used first (e.g. the
        Velvet and CellRanger version lists); further names follow the
        EasyBuild convention of the paper's examples.
        """

        names = list(self.model.spec.versions)
        if len(names) >= count:
            return names[:count]
        rng = np.random.default_rng(
            stable_seed(self.model.corpus_seed, "versions", self.model.spec.name))
        major = int(rng.integers(1, 8))
        minor = int(rng.integers(0, 10))
        patch = 0
        while len(names) < count:
            if rng.random() < self.config.major_bump_prob:
                major += 1
                minor = 0
                patch = 0
            elif rng.random() < 0.5:
                minor += 1
                patch = 0
            else:
                patch += 1
            toolchain = str(rng.choice(TOOLCHAINS))
            if rng.random() < 0.3:
                version = f"{major}.{minor}-{toolchain}"
            else:
                version = f"{major}.{minor}.{patch}-{toolchain}"
            if version in names:
                version = f"{version}-r{len(names)}"
            names.append(version)
        return names

    # ------------------------------------------------------------ samples
    def materialize(self, exe: ExecutableModel, version: str,
                    version_index: int) -> MaterializedSample:
        """Produce the concrete content of one (executable, version)."""

        cfg = self.config
        seed_parts = (self.model.corpus_seed, "sample", self.model.identity,
                      exe.name, version_index)
        rng = np.random.default_rng(stable_seed(*seed_parts))

        functions = self._mutate_symbols(rng, exe.functions, version_index)
        objects = self._mutate_symbols(rng, exe.objects, version_index,
                                       rename_scale=0.5)
        strings = self._mutate_strings(rng, exe.strings, version)
        code = self._materialize_code(exe, version_index)
        comment = self._toolchain_comment(version, version_index)
        return MaterializedSample(
            class_name=self.model.spec.name,
            version=version,
            executable=exe.name,
            functions=tuple(functions),
            objects=tuple(objects),
            strings=tuple(strings),
            code=code,
            comment=comment,
            needed_libraries=self._needed_libraries(version),
        )

    # ------------------------------------------------------------ symbols
    def _mutate_symbols(self, rng: np.random.Generator,
                        symbols: Sequence[str], version_index: int,
                        rename_scale: float = 1.0) -> list[str]:
        """Cumulative symbol drift up to ``version_index``.

        Drift is applied per version step so that version ``k`` differs
        from version ``k-1`` by roughly the configured rates, and from
        version 0 by correspondingly more.
        """

        cfg = self.config
        current = list(symbols)
        for step in range(version_index):
            step_rng = np.random.default_rng(
                stable_seed(self.model.corpus_seed, "symstep",
                            self.model.identity, step))
            survivors: list[str] = []
            for name in current:
                r = step_rng.random()
                if r < cfg.symbol_remove_rate:
                    continue
                if r < cfg.symbol_remove_rate + cfg.symbol_rename_rate * rename_scale:
                    survivors.append(f"{name}_v{step + 2}")
                else:
                    survivors.append(name)
            n_new = int(np.round(len(symbols) * cfg.symbol_add_rate))
            for i in range(n_new):
                survivors.append(f"{self.model.prefix}_new_feature_{step}_{i}")
            current = survivors
        return sorted(set(current))

    # ------------------------------------------------------------ strings
    def _mutate_strings(self, rng: np.random.Generator,
                        strings: Sequence[str], version: str) -> list[str]:
        cfg = self.config
        version_number = version.split("-")[0]
        rendered: list[str] = []
        for template in strings:
            text = template
            if "{" in text:
                text = text.format(
                    name=self.model.spec.name,
                    prog=self.model.prefix,
                    version=version_number,
                    year=2010 + (hash(version_number) % 14),
                )
            rendered.append(text)
        # Version-specific drift: some messages get rewritten.
        changed: list[str] = []
        for text in rendered:
            if rng.random() < cfg.string_change_rate:
                changed.append(text + " (updated)")
            else:
                changed.append(text)
        changed.append(f"{self.model.spec.name} release {version_number}")
        changed.append(f"build configuration: {version}")
        return changed

    # --------------------------------------------------------------- code
    def _materialize_code(self, exe: ExecutableModel,
                          version_index: int) -> bytes:
        """Concatenate the executable's code blocks at this version.

        Each block has an *epoch*: the number of times it has been
        rewritten up to this version.  Blocks with equal epoch produce
        identical bytes across versions (and across executables that
        share the block), so raw-content similarity decays smoothly
        with version distance at a rate set by ``code_change_rate``.
        """

        cfg = self.config
        parts: list[bytes] = []
        for block_id, block_size in zip(exe.code_block_ids, exe.code_block_sizes):
            epoch = 0
            block_rng = np.random.default_rng(
                stable_seed(self.model.corpus_seed, "blockchange", block_id))
            # Draw the change pattern once per block; count changes that
            # happened at or before this version.
            changes = block_rng.random(max(version_index, 1)) < cfg.code_change_rate
            epoch = int(np.count_nonzero(changes[:version_index]))
            content_rng = np.random.default_rng(
                stable_seed(self.model.corpus_seed, "blockbytes", block_id, epoch))
            parts.append(content_rng.bytes(block_size))
        return b"".join(parts)

    # ------------------------------------------------------------ libraries
    def _needed_libraries(self, version: str) -> tuple[str, ...]:
        """Shared-object dependencies of this version.

        The set is essentially stable across versions (that is what makes
        it a useful fingerprint), but Intel toolchains swap the BLAS
        provider, mirroring what EasyBuild toolchains do in practice.
        """

        libraries = list(self.model.shared_libraries)
        toolchain = version.split("-", 1)[1] if "-" in version else ""
        if toolchain.startswith(("iomkl", "intel")):
            libraries = ["libmkl_rt.so.2" if name.startswith("libopenblas") else name
                         for name in libraries]
        return tuple(libraries)

    # ----------------------------------------------------------- toolchain
    def _toolchain_comment(self, version: str, version_index: int) -> str:
        rng = np.random.default_rng(
            stable_seed(self.model.corpus_seed, "toolchain",
                        self.model.identity, version_index))
        family = version.split("-", 1)[1].split("-")[0] if "-" in version else "GCC"
        template = COMPILER_COMMENTS.get(family, COMPILER_COMMENTS["GCC"])
        gcc_version = f"{rng.integers(8, 13)}.{rng.integers(0, 5)}.0"
        icc_version = f"20{rng.integers(18, 23)}.{rng.integers(0, 4)}"
        return template.format(gcc_version=gcc_version, icc_version=icc_version)
