"""Per-class application source models.

An :class:`ApplicationModel` is the deterministic "source tree" of a
synthetic application class: its function-name inventory, its embedded
strings, the libraries it links and the layout of its code blocks.
Versions and executables are *derived* from the model — a version is
the model plus mutation (see :mod:`repro.corpus.mutation`), an
executable is a subset of the model (a suite like ``kentUtils`` or
``Velvet`` ships many binaries that share the class core but add their
own entry points).

All randomness is driven by :func:`stable_seed`, a SHA-256 based seed
derivation, so the corpus a given catalogue and seed produce is fully
reproducible across machines and Python versions.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import ApplicationClassSpec
from .lexicon import (
    BASE_SONAMES,
    COMMON_SUFFIXES,
    LIBRARY_SONAMES,
    RUNTIME_SYMBOLS,
    SHARED_LIBRARY_SYMBOLS,
    STRING_TEMPLATES,
    domain_vocabulary,
)

__all__ = ["stable_seed", "ApplicationModel", "ExecutableModel"]


def stable_seed(*parts: object) -> int:
    """Derive a 63-bit seed from arbitrary parts, stable across runs."""

    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def _slugify(name: str) -> str:
    """Derive a C-identifier-friendly program prefix from a class name."""

    slug = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()
    return slug or "app"


@dataclass(frozen=True)
class ExecutableModel:
    """One executable (sample template) of an application class.

    Attributes
    ----------
    name:
        File name of the executable (e.g. ``velvetg``).
    functions:
        Global function names defined by this executable (class core
        subset plus executable-specific entry points).
    objects:
        Global data symbol names.
    strings:
        Embedded printable strings (before per-version substitution of
        ``{version}`` style placeholders handled by the mutator).
    code_block_ids:
        Identifiers of the code blocks making up ``.text``; blocks
        shared with other executables of the class have identical ids,
        which is what gives same-class binaries partially similar raw
        content.
    code_block_sizes:
        Size in bytes of each code block.
    """

    name: str
    functions: tuple[str, ...]
    objects: tuple[str, ...]
    strings: tuple[str, ...]
    code_block_ids: tuple[str, ...]
    code_block_sizes: tuple[int, ...]


class ApplicationModel:
    """Deterministic synthetic "source model" of an application class.

    Parameters
    ----------
    spec:
        Catalogue entry describing the class.
    corpus_seed:
        Global corpus seed; combined with the class identity (or its
        ``alias_of`` target, so aliased classes share one model).
    binary_size_range:
        Approximate ``.text`` size range for this corpus scale.
    """

    def __init__(self, spec: ApplicationClassSpec, corpus_seed: int,
                 binary_size_range: tuple[int, int] = (4_096, 32_768)) -> None:
        self.spec = spec
        self.corpus_seed = int(corpus_seed)
        self.binary_size_range = binary_size_range
        # Aliased classes (CellRanger / Cell-Ranger, AUGUSTUS / Augustus)
        # share the same underlying application identity.
        self.identity = spec.alias_of or spec.name
        self.prefix = _slugify(self.identity)
        self._rng = np.random.default_rng(
            stable_seed(self.corpus_seed, "model", self.identity))
        self._build()

    # ------------------------------------------------------------ building
    def _build(self) -> None:
        rng = self._rng
        nouns, verbs = domain_vocabulary(self.spec.domain)
        size_lo, size_hi = self.binary_size_range
        typical_size = int(rng.integers(size_lo, size_hi + 1))

        # Inventory sizes scale weakly with binary size.
        n_core_functions = int(np.clip(typical_size // 160, 40, 220))
        n_core_strings = int(np.clip(typical_size // 320, 24, 120))
        n_objects = int(np.clip(n_core_functions // 6, 4, 30))

        self.core_functions = self._make_function_names(
            rng, nouns, verbs, n_core_functions)
        self.core_objects = tuple(
            f"{self.prefix}_{noun}_table" for noun in
            rng.choice(nouns, size=min(n_objects, len(nouns)), replace=False)
        )
        self.core_strings = self._make_strings(rng, nouns, n_core_strings)
        self.library_symbols = self._collect_library_symbols(rng)
        # Shared-object dependencies (DT_NEEDED): the base runtime plus the
        # sonames of every linked library group.  Used by the optional
        # ``ssdeep-libs`` feature (the paper's future-work ldd extension).
        sonames = list(BASE_SONAMES)
        for library in self.spec.libraries:
            sonames.extend(LIBRARY_SONAMES.get(library, ()))
        self.shared_libraries = tuple(dict.fromkeys(sonames))

        # Code blocks: the class "object code", organised in blocks whose
        # identity is stable across executables/versions so that partial
        # reuse shows up in the raw-content fuzzy hash.
        n_blocks = int(np.clip(typical_size // 384, 12, 96))
        self.core_block_ids = tuple(f"{self.identity}/core/{i}" for i in range(n_blocks))
        self.core_block_sizes = tuple(
            int(s) for s in rng.integers(192, 640, size=n_blocks))
        self.typical_size = typical_size

    def _make_function_names(self, rng: np.random.Generator,
                             nouns: Sequence[str], verbs: Sequence[str],
                             count: int) -> tuple[str, ...]:
        names: set[str] = set()
        attempts = 0
        while len(names) < count and attempts < count * 20:
            attempts += 1
            verb = str(rng.choice(verbs))
            noun = str(rng.choice(nouns))
            suffix = str(rng.choice(COMMON_SUFFIXES))
            style = int(rng.integers(0, 4))
            if style == 0:
                name = f"{self.prefix}_{verb}_{noun}{suffix}"
            elif style == 1:
                name = f"{self.prefix}_{noun}_{verb}{suffix}"
            elif style == 2:
                # CamelCase C++-ish method name.
                name = f"{self.prefix}{verb.capitalize()}{noun.capitalize()}{suffix}"
            else:
                name = f"{verb}_{noun}_{self.prefix}{suffix}"
            names.add(name)
        return tuple(sorted(names))

    def _make_strings(self, rng: np.random.Generator, nouns: Sequence[str],
                      count: int) -> tuple[str, ...]:
        strings: list[str] = []
        for template in STRING_TEMPLATES:
            strings.append(template)
        while len(strings) < count:
            noun = str(rng.choice(nouns))
            kind = int(rng.integers(0, 5))
            if kind == 0:
                strings.append(f"processing {noun} %d of %d")
            elif kind == 1:
                strings.append(f"--{noun}-threshold")
            elif kind == 2:
                strings.append(f"invalid {noun} specification: %s")
            elif kind == 3:
                strings.append(f"{self.prefix}: {noun} buffer exhausted")
            else:
                strings.append(f"# {noun} summary statistics")
        return tuple(strings[:count])

    def _collect_library_symbols(self, rng: np.random.Generator) -> tuple[str, ...]:
        symbols: list[str] = []
        for library in self.spec.libraries:
            pool = SHARED_LIBRARY_SYMBOLS.get(library, ())
            if not pool:
                continue
            # Each application statically links a large, stable subset of
            # each library it uses.
            take = max(3, int(round(len(pool) * 0.8)))
            chosen = rng.choice(len(pool), size=min(take, len(pool)), replace=False)
            symbols.extend(pool[i] for i in sorted(chosen))
        return tuple(symbols)

    # ----------------------------------------------------------- derivation
    def executable_names(self, count: int) -> list[str]:
        """Names for ``count`` executables of this class.

        Explicit names from the catalogue are used first; additional
        ones are derived tool-suite style (``<prefix>_<verb><noun>``).
        """

        names = list(self.spec.executables)
        if len(names) >= count:
            return names[:count]
        rng = np.random.default_rng(stable_seed(self.corpus_seed, "exes", self.identity))
        nouns, verbs = domain_vocabulary(self.spec.domain)
        seen = set(names)
        while len(names) < count:
            verb = str(rng.choice(verbs))
            noun = str(rng.choice(nouns))
            style = int(rng.integers(0, 3))
            if style == 0:
                candidate = f"{self.prefix}_{verb}_{noun}"
            elif style == 1:
                candidate = f"{self.prefix}{verb.capitalize()}{noun.capitalize()}"
            else:
                candidate = f"{verb}{noun.capitalize()}"
            if candidate in seen:
                candidate = f"{candidate}{len(names)}"
            seen.add(candidate)
            names.append(candidate)
        return names

    def executable_model(self, executable_name: str,
                         executable_index: int) -> ExecutableModel:
        """Derive the model of one executable of this class.

        Executables share roughly 55–75 % of the class core (functions,
        strings, code blocks) and add their own entry points, mimicking
        a tool suite built on a common internal library.
        """

        rng = np.random.default_rng(
            stable_seed(self.corpus_seed, "exe", self.identity, executable_name))

        share = float(rng.uniform(0.55, 0.75))
        functions = self._subset(rng, self.core_functions, share)
        own_count = int(np.clip(len(self.core_functions) * 0.2, 6, 40))
        own_functions = tuple(
            f"{self.prefix}_{_slugify(executable_name)}_{verb}"
            for verb in self._own_tokens(rng, own_count)
        )
        objects = self._subset(rng, self.core_objects, 0.8)
        strings = self._subset(rng, self.core_strings, share)
        own_strings = (
            f"Usage: {executable_name} [options]",
            f"{executable_name}: unrecognized option '%s'",
            f"{executable_name} finished successfully",
        )

        block_share = float(rng.uniform(0.45, 0.7))
        core_block_count = max(4, int(len(self.core_block_ids) * block_share))
        chosen = rng.choice(len(self.core_block_ids), size=core_block_count,
                            replace=False)
        block_ids = [self.core_block_ids[i] for i in sorted(chosen)]
        block_sizes = [self.core_block_sizes[i] for i in sorted(chosen)]
        n_own_blocks = max(2, core_block_count // 3)
        for i in range(n_own_blocks):
            block_ids.append(f"{self.identity}/{executable_name}/{i}")
            block_sizes.append(int(rng.integers(192, 640)))

        all_functions = tuple(sorted(set(functions) | set(own_functions)
                                     | set(self.library_symbols)
                                     | set(RUNTIME_SYMBOLS)))
        return ExecutableModel(
            name=executable_name,
            functions=all_functions,
            objects=tuple(objects),
            strings=tuple(strings) + own_strings,
            code_block_ids=tuple(block_ids),
            code_block_sizes=tuple(block_sizes),
        )

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _subset(rng: np.random.Generator, items: Sequence[str],
                fraction: float) -> tuple[str, ...]:
        if not items:
            return ()
        count = max(1, int(round(len(items) * fraction)))
        chosen = rng.choice(len(items), size=min(count, len(items)), replace=False)
        return tuple(items[i] for i in sorted(chosen))

    def _own_tokens(self, rng: np.random.Generator, count: int) -> list[str]:
        nouns, verbs = domain_vocabulary(self.spec.domain)
        tokens = []
        for _ in range(count):
            tokens.append(f"{rng.choice(verbs)}_{rng.choice(nouns)}")
        return tokens
