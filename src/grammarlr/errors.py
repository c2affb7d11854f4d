"""Exception hierarchy for the grammarlr package.

Every error raised deliberately by this package derives from GrammarLRError
so callers can catch one base class. The CLI maps subclasses onto exit codes:
data-shaped problems (parsing, corpus validation, lexicon config, model files,
calibration inputs) exit 3; violated internal contracts and worker processes
that die during a parallel run exit 4.
"""

from __future__ import annotations


class GrammarLRError(Exception):
    """Base class for all errors raised by grammarlr."""


class ParseError(GrammarLRError):
    """Malformed tagged-token input. Messages carry 1-based line numbers."""


class CorpusError(GrammarLRError):
    """Structurally invalid corpus: bad labels, duplicate ids, bad partitions."""


class LexiconError(GrammarLRError):
    """Invalid masking lexicon: unknown sections, bad placeholder table, collisions."""


class DataError(GrammarLRError):
    """Inputs that are well-formed but unusable, e.g. empty sentence sets."""


class CalibrationError(GrammarLRError):
    """Calibration cannot be fit, e.g. single-class training scores."""


class ModelFormatError(GrammarLRError):
    """Serialized model blob is not readable: bad magic, version, or checksum."""


class ContractError(GrammarLRError):
    """An internal invariant was violated, e.g. models scored under mismatched
    vocabularies. Indicates a caller bug rather than bad data."""


class WorkerError(GrammarLRError):
    """A worker process of a parallel run died (killed, out of memory, or a
    crash in native code) before returning a problem's result. The message
    names the first problem, in submission order, whose result was lost."""
