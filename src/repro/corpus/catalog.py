"""The 92-class application catalogue.

The paper evaluates on 92 application classes with 5333 samples in
total.  Table 4 lists the 73 classes that stayed "known" in the
paper's split, together with their *test-set support* (40 % of each
class under the stratified 60/40 sample split); Table 3 lists the 19
classes that were held out entirely as "unknown", with their full
sample counts.  This module reconstructs per-class sample counts from
those tables:

* unknown classes: the Table 3 count is the total count;
* known classes: ``total ≈ support / 0.4`` (minimum 3, the paper's
  collection rule of "at least 3 versions ⇒ at least 3 samples").

The catalogue also records the structure the discussion section relies
on: the ``CellRanger``/``Cell-Ranger`` and ``Augustus``/``AUGUSTUS``
pairs are flagged as aliases of one underlying application (installed
at two locations), Velvet has exactly the three versions and two
executables of Table 1, and applications that share third-party
libraries (HTSlib, BLAS, Boost, …) are grouped so the generator can
inject shared symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..exceptions import CorpusError

__all__ = [
    "ApplicationClassSpec",
    "ApplicationCatalog",
    "default_catalog",
    "PAPER_UNKNOWN_CLASSES",
    "PAPER_TEST_FRACTION",
]

#: The stratified sample-level test fraction used by the paper.
PAPER_TEST_FRACTION = 0.40


@dataclass(frozen=True)
class ApplicationClassSpec:
    """Static description of one application class.

    Attributes
    ----------
    name:
        Class name (the root directory of the software tree).
    domain:
        Scientific domain; selects the vocabulary used for synthetic
        symbols and strings.
    paper_test_support:
        The class's test-set support from Table 4 (known classes only).
    paper_total_samples:
        The class's total sample count from Table 3 (unknown classes).
    paper_unknown:
        True if the class fell into the paper's unknown (held-out) set.
    libraries:
        Shared-library groups linked by this application (keys of
        :data:`repro.corpus.lexicon.SHARED_LIBRARY_SYMBOLS`).
    executables:
        Explicit executable (sample) names per version; if empty the
        generator derives names automatically.
    versions:
        Explicit version directory names; if empty the generator
        derives EasyBuild-style names automatically.
    alias_of:
        Name of another class that is *the same application* installed
        at a different location (``Cell-Ranger``/``CellRanger``,
        ``AUGUSTUS``/``Augustus``).  Alias classes share the underlying
        application model, which reproduces the paper's documented
        cross-label confusion.
    version_index_offset:
        Where this class's versions start in the shared application's
        version history.  Used by alias pairs: ``Cell-Ranger`` holds the
        early versions and ``CellRanger`` the later ones, so the two
        locations are similar but not identical.
    version_drift:
        Relative aggressiveness of between-version mutation (1.0 is
        typical; >1 models applications that "change more drastically
        across versions", e.g. BigDFT / MUMmer in the discussion).
    """

    name: str
    domain: str = "genomics"
    paper_test_support: int | None = None
    paper_total_samples: int | None = None
    paper_unknown: bool = False
    libraries: tuple[str, ...] = ()
    executables: tuple[str, ...] = ()
    versions: tuple[str, ...] = ()
    alias_of: str | None = None
    version_index_offset: int = 0
    version_drift: float = 1.0

    def total_samples(self, test_fraction: float = PAPER_TEST_FRACTION) -> int:
        """Total sample count implied by the paper's tables."""

        if self.paper_total_samples is not None:
            return max(3, int(self.paper_total_samples))
        if self.paper_test_support is not None:
            return max(3, int(round(self.paper_test_support / test_fraction)))
        return 3


def _known(name: str, support: int, domain: str = "genomics", *,
           libraries: Sequence[str] = (), executables: Sequence[str] = (),
           versions: Sequence[str] = (), alias_of: str | None = None,
           version_index_offset: int = 0,
           version_drift: float = 1.0) -> ApplicationClassSpec:
    return ApplicationClassSpec(
        name=name, domain=domain, paper_test_support=support,
        paper_unknown=False, libraries=tuple(libraries),
        executables=tuple(executables), versions=tuple(versions),
        alias_of=alias_of, version_index_offset=version_index_offset,
        version_drift=version_drift,
    )


def _unknown(name: str, total: int, domain: str = "genomics", *,
             libraries: Sequence[str] = (), executables: Sequence[str] = (),
             versions: Sequence[str] = (), alias_of: str | None = None,
             version_index_offset: int = 0,
             version_drift: float = 1.0) -> ApplicationClassSpec:
    return ApplicationClassSpec(
        name=name, domain=domain, paper_total_samples=total,
        paper_unknown=True, libraries=tuple(libraries),
        executables=tuple(executables), versions=tuple(versions),
        alias_of=alias_of, version_index_offset=version_index_offset,
        version_drift=version_drift,
    )


# --------------------------------------------------------------------------
# Known classes (Table 4: class name and test-set support).
# --------------------------------------------------------------------------
_KNOWN_CLASSES: tuple[ApplicationClassSpec, ...] = (
    _known("Augustus", 10, "genomics"),
    _known("BCFtools", 4, "genomics", libraries=("htslib", "zlib")),
    _known("BEDTools", 3, "genomics", libraries=("zlib",)),
    _known("BLAT", 5, "genomics"),
    _known("BWA", 5, "genomics", libraries=("zlib",)),
    _known("BamTools", 2, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("BigDFT", 28, "chemistry", libraries=("blas", "mpi", "fftw"),
           version_drift=2.2),
    _known("CAD-score", 3, "structural", libraries=("cpp_runtime",),
           version_drift=1.8),
    _known("CD-HIT", 12, "genomics", libraries=("openmp",)),
    _known("CapnProto", 1, "infrastructure", libraries=("cpp_runtime",)),
    _known("Cas-OFFinder", 1, "genomics", libraries=("cpp_runtime",)),
    _known("Celera Assembler", 101, "genomics", libraries=("cpp_runtime",)),
    _known("Cell-Ranger", 28, "genomics", libraries=("zlib", "cpp_runtime"),
           alias_of="CellRanger",
           versions=("2.1.1", "3.0.0", "3.1.0"), version_drift=1.6),
    _known("CellRanger", 20, "genomics", libraries=("zlib", "cpp_runtime"),
           versions=("4.0.0", "5.0.0", "6.0.1", "6.1.2", "7.1.0"),
           version_index_offset=3, version_drift=1.6),
    _known("Cufflinks", 6, "genomics", libraries=("boost", "zlib")),
    _known("DIAMOND", 2, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("Exonerate", 43, "genomics"),
    _known("FSL", 351, "neuroimaging", libraries=("blas", "cpp_runtime", "zlib")),
    _known("FastTree", 2, "genomics", libraries=("openmp",)),
    _known("GMAP-GSNAP", 38, "genomics", libraries=("zlib",)),
    _known("HH-suite", 26, "structural", libraries=("openmp", "mpi")),
    _known("HMMER", 34, "genomics", libraries=("mpi",)),
    _known("HTSlib", 6, "genomics", libraries=("htslib", "zlib"),
           version_drift=1.7),
    _known("Infernal", 7, "genomics", libraries=("mpi",)),
    _known("InterProScan", 102, "genomics", libraries=("cpp_runtime",)),
    _known("JAGS", 1, "statistics", libraries=("blas",)),
    _known("Jellyfish", 2, "genomics", libraries=("cpp_runtime",)),
    _known("Kraken2", 6, "genomics", libraries=("openmp", "zlib")),
    _known("MAGMA", 1, "statistics", libraries=("blas",)),
    _known("MATLAB", 14, "math", libraries=("blas", "cpp_runtime"),
           version_drift=1.4),
    _known("MMseqs2", 1, "genomics", libraries=("openmp", "cpp_runtime")),
    _known("MUMmer", 26, "genomics", version_drift=2.0),
    _known("Mash", 1, "genomics", libraries=("cpp_runtime",)),
    _known("MolScript", 3, "structural"),
    _known("MrBayes", 1, "statistics", libraries=("mpi", "blas")),
    _known("OpenBabel", 8, "chemistry", libraries=("cpp_runtime",)),
    _known("OpenMM", 2, "chemistry", libraries=("cpp_runtime", "fftw")),
    _known("OpenStructure", 56, "structural", libraries=("boost", "cpp_runtime")),
    _known("PLUMED", 3, "chemistry", libraries=("blas", "mpi")),
    _known("PRANK", 2, "genomics"),
    _known("PSIPRED", 7, "structural"),
    _known("PhyML", 2, "genomics", libraries=("blas",)),
    _known("RECON", 6, "genomics"),
    _known("RSEM", 21, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("Racon", 2, "genomics", libraries=("openmp", "cpp_runtime")),
    _known("Raster3D", 13, "structural"),
    _known("RepeatScout", 2, "genomics"),
    _known("Rosetta", 114, "structural", libraries=("boost", "cpp_runtime"),
           version_drift=1.5),
    _known("SMRT-Link", 3, "genomics", libraries=("cpp_runtime", "zlib")),
    _known("SOAPdenovo2", 2, "genomics", libraries=("zlib",)),
    _known("STAR", 10, "genomics", libraries=("openmp", "zlib")),
    _known("Salmon", 3, "genomics", libraries=("boost", "cpp_runtime", "zlib")),
    _known("SeqPrep", 3, "genomics", libraries=("zlib",)),
    _known("Stacks", 69, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("StringTie", 2, "genomics", libraries=("zlib",)),
    _known("Subread", 21, "genomics", libraries=("zlib",)),
    _known("TopHat", 19, "genomics", libraries=("boost", "zlib"),
           version_drift=1.4),
    _known("Trinity", 41, "genomics", libraries=("cpp_runtime", "zlib")),
    _known("VCFtools", 2, "genomics", libraries=("htslib", "zlib")),
    _known("VSEARCH", 1, "genomics", libraries=("zlib",)),
    _known("Velvet", 2, "genomics",
           executables=("velveth", "velvetg"),
           versions=("1.2.10-GCC-10.3.0-mt-kmer_191", "1.2.10-goolf-1.4.10",
                     "1.2.10-goolf-1.7.20")),
    _known("ViennaRNA", 29, "genomics"),
    _known("XDS", 34, "structural", libraries=("blas",), version_drift=1.5),
    _known("breseq", 4, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("canu", 51, "genomics", libraries=("cpp_runtime", "zlib")),
    _known("cdbfasta", 2, "genomics"),
    _known("fastQValidator", 2, "genomics", libraries=("zlib",)),
    _known("fastp", 1, "genomics", libraries=("zlib", "cpp_runtime")),
    _known("fineRADstructure", 2, "genomics", libraries=("cpp_runtime",)),
    _known("kallisto", 2, "genomics", libraries=("hdf5", "zlib")),
    _known("kentUtils", 352, "genomics", libraries=("zlib",)),
    _known("prodigal", 1, "genomics"),
    _known("segemehl", 1, "genomics", libraries=("zlib",)),
)

# --------------------------------------------------------------------------
# Unknown classes (Table 3: class name and total sample count).
# --------------------------------------------------------------------------
_UNKNOWN_CLASSES: tuple[ApplicationClassSpec, ...] = (
    _unknown("Schrodinger", 195, "chemistry", libraries=("blas", "cpp_runtime")),
    _unknown("QuantumESPRESSO", 178, "chemistry",
             libraries=("blas", "fftw", "mpi")),
    _unknown("SAMtools", 108, "genomics", libraries=("htslib", "zlib")),
    _unknown("MCL", 52, "math"),
    _unknown("BLAST", 52, "genomics", libraries=("cpp_runtime", "zlib")),
    _unknown("FASTA", 48, "genomics"),
    _unknown("MolProbity", 39, "structural"),
    _unknown("AUGUSTUS", 36, "genomics", alias_of="Augustus",
             version_index_offset=4),
    _unknown("HISAT2", 30, "genomics", libraries=("zlib", "cpp_runtime")),
    _unknown("OpenMalaria", 25, "epidemiology",
             libraries=("boost", "cpp_runtime"),
             executables=("openmalaria",)),
    _unknown("Gurobi", 20, "math", libraries=("blas",)),
    _unknown("Kraken", 18, "genomics", libraries=("zlib",)),
    _unknown("METIS", 18, "math"),
    _unknown("CCP4", 9, "structural", libraries=("blas",)),
    _unknown("TM-align", 9, "structural"),
    _unknown("ClustalW2", 4, "genomics"),
    _unknown("dssp", 4, "structural", libraries=("boost", "cpp_runtime")),
    _unknown("libxc", 4, "chemistry"),
    _unknown("CHARMM", 3, "chemistry", libraries=("blas", "fftw", "mpi")),
)

#: Names of the classes the paper held out as unknown (Table 3).
PAPER_UNKNOWN_CLASSES: tuple[str, ...] = tuple(c.name for c in _UNKNOWN_CLASSES)


class ApplicationCatalog:
    """Ordered collection of :class:`ApplicationClassSpec` entries."""

    def __init__(self, classes: Iterable[ApplicationClassSpec]) -> None:
        self._classes: list[ApplicationClassSpec] = list(classes)
        names = [c.name for c in self._classes]
        if len(set(names)) != len(names):
            raise CorpusError("catalogue contains duplicate class names")
        self._by_name = {c.name: c for c in self._classes}
        for spec in self._classes:
            if spec.alias_of is not None and spec.alias_of not in self._by_name:
                raise CorpusError(
                    f"class {spec.name!r} aliases unknown class {spec.alias_of!r}"
                )

    # ------------------------------------------------------------ protocol
    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[ApplicationClassSpec]:
        return iter(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> ApplicationClassSpec:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise CorpusError(f"unknown application class {name!r}") from exc

    # ----------------------------------------------------------------- API
    @property
    def class_names(self) -> list[str]:
        """All class names in catalogue order."""

        return [c.name for c in self._classes]

    @property
    def paper_unknown_names(self) -> list[str]:
        """Names of classes flagged as the paper's unknown set."""

        return [c.name for c in self._classes if c.paper_unknown]

    def total_samples(self, max_samples_per_class: int | None = None) -> int:
        """Total number of samples the catalogue implies."""

        total = 0
        for spec in self._classes:
            count = spec.total_samples()
            if max_samples_per_class is not None:
                count = min(count, max(3, max_samples_per_class))
            total += count
        return total

    def subset(self, max_classes: int | None = None,
               *, keep_paper_unknown: bool = True) -> "ApplicationCatalog":
        """Return a smaller catalogue for reduced-scale experiments.

        Classes are ranked by sample count (largest first) so a subset
        still exhibits strong class imbalance; when
        ``keep_paper_unknown`` is set, at least a handful of the
        paper's unknown classes are retained so that the unknown-class
        mechanism stays exercised.
        """

        if max_classes is None or max_classes >= len(self._classes):
            return ApplicationCatalog(self._classes)
        if max_classes < 2:
            raise CorpusError("a catalogue subset needs at least 2 classes")

        ranked = sorted(self._classes, key=lambda c: c.total_samples(), reverse=True)
        selected: list[ApplicationClassSpec] = []
        if keep_paper_unknown:
            unknown_quota = max(2, max_classes // 4)
            unknown_ranked = [c for c in ranked if c.paper_unknown]
            selected.extend(unknown_ranked[:unknown_quota])
        for spec in ranked:
            if len(selected) >= max_classes:
                break
            if spec not in selected:
                selected.append(spec)
        # Keep alias targets together so the alias behaviour survives.
        names = {c.name for c in selected}
        for spec in list(selected):
            if spec.alias_of and spec.alias_of not in names:
                target = self._by_name[spec.alias_of]
                selected.append(target)
                names.add(target.name)
        # Preserve catalogue order for determinism.
        order = {c.name: i for i, c in enumerate(self._classes)}
        selected.sort(key=lambda c: order[c.name])
        return ApplicationCatalog(selected)

    def describe(self) -> str:
        """Multi-line human-readable summary (used by reports)."""

        lines = [f"{len(self._classes)} application classes, "
                 f"{self.total_samples()} samples"]
        for spec in self._classes:
            tag = "unknown" if spec.paper_unknown else "known"
            lines.append(f"  {spec.name:<20s} {spec.domain:<14s} "
                         f"{spec.total_samples():>5d} samples  [{tag}]")
        return "\n".join(lines)


def default_catalog() -> ApplicationCatalog:
    """The full 92-class catalogue reconstructed from the paper."""

    return ApplicationCatalog(_KNOWN_CLASSES + _UNKNOWN_CLASSES)
