"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing unrelated Python errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a configuration value or scale preset is invalid."""


class ValidationError(ReproError, ValueError):
    """Raised when a user-supplied argument fails validation.

    Inherits from :class:`ValueError` so that generic ``except ValueError``
    handlers written against the scikit-learn API keep working.
    """


class HashingError(ReproError):
    """Raised when fuzzy hashing of an input fails."""


class DigestFormatError(HashingError, ValueError):
    """Raised when an SSDeep digest string cannot be parsed."""


class BinaryFormatError(ReproError):
    """Raised when an executable file cannot be parsed as ELF."""


class TruncatedBinaryError(BinaryFormatError):
    """Raised when an ELF file ends before a declared structure."""


class SymbolTableError(BinaryFormatError):
    """Raised when the symbol table of a binary is missing or malformed.

    The paper's collection rules skip binaries that have been stripped of
    their symbol table; this error is the signal used for that filtering.
    """


class CorpusError(ReproError):
    """Raised when corpus generation or scanning fails."""


class CorpusLayoutError(CorpusError):
    """Raised when an on-disk software tree does not follow the expected
    ``<Class>/<version>/<executable>`` layout."""


class ParallelExecutionError(ReproError):
    """Raised when a process pool cannot run a parallel workload and
    its owner asked for strict behaviour
    (``ProcessBackend(strict=True)``) instead of the serial fallback."""


class SimilarityIndexError(ReproError):
    """Raised when a similarity-index operation fails."""


class IndexFormatError(SimilarityIndexError):
    """Raised when an on-disk similarity index file is missing, corrupt,
    truncated, or written by an unsupported format version."""


class ModelArtifactError(ReproError):
    """Raised when a model artifact cannot be saved or restored."""


class ModelFormatError(ModelArtifactError):
    """Raised when an on-disk model artifact file is missing, corrupt,
    truncated, incompatible with this build's feature types, or written
    by an unsupported format version."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class FeatureExtractionError(ReproError):
    """Raised when fuzzy-hash feature extraction for a sample fails."""


class EvaluationError(ReproError):
    """Raised when an experiment or evaluation cannot be completed."""


class ServingError(ReproError):
    """Raised when the long-running classification server fails."""


class ProtocolError(ServingError, ValueError):
    """Raised when a serving request violates the JSON wire protocol
    (malformed JSON, bad base64, missing fields, payload over the
    per-request caps).  Maps to HTTP 400."""


class ServerOverloadedError(ServingError):
    """Raised when the serving request queue is full and admission
    control rejects new work.  Maps to HTTP 503 + ``Retry-After``."""


class WALError(ServingError):
    """Raised when the ingestion write-ahead log cannot be opened,
    appended to, or checkpointed."""


class WALCorruptionError(WALError):
    """Raised when the write-ahead log holds corrupt records *before*
    its final one (a torn final record is truncated silently; damage
    earlier in the log means history was lost and recovery refuses to
    guess unless explicitly asked to repair)."""


class FaultInjectedError(ReproError):
    """Raised by an armed :class:`repro.testing.faults.FaultInjector`
    failpoint with the ``raise`` action.  Only tests should ever see
    this."""


class ServerClosedError(ServingError):
    """Raised when work is submitted to a coalescer that is draining or
    has shut down."""
