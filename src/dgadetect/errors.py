"""Exception hierarchy for the package.

Each class carries a distinct process exit code so the CLI can translate
failures without string matching.  I/O failures are reported with the
built-in OSError and mapped to their own code by the CLI.
"""


class DgaDetectError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 16


class SchemaMismatchError(DgaDetectError):
    """A feature vector is missing a block the model's schema requires."""

    exit_code = 4


class SingleClassError(DgaDetectError):
    """Training or ROC construction needs both classes present."""

    exit_code = 5


class EmptyDataError(DgaDetectError):
    """No rows supplied where at least one is required."""

    exit_code = 6


class NoNegativesError(DgaDetectError):
    """Threshold calibration needs at least one benign score."""

    exit_code = 7


class TooFewExamplesError(DgaDetectError):
    """Cross-validation needs at least k examples per class."""

    exit_code = 8


class PoolTooSmallError(DgaDetectError):
    """Side-information donor pool is smaller than the attack batch."""

    exit_code = 9


class SeedTooShortError(DgaDetectError):
    """A seed SLD is too short to absorb the requested mutations."""

    exit_code = 10


class InvalidDomainError(DgaDetectError):
    """Domain contains characters outside [a-z0-9.-] after lowercasing."""

    exit_code = 11


class NoValidSuffixError(InvalidDomainError):
    """No public suffix in the table matches the domain."""

    exit_code = 12


class EmptySldError(InvalidDomainError):
    """Nothing remains left of the matched public suffix."""

    exit_code = 13


class MalformedIpError(DgaDetectError):
    """An address in the record's data section failed IP parsing."""

    exit_code = 15


class ModelFormatError(DgaDetectError, ValueError):
    """A model file is not valid JSON, lacks a field, or carries trees
    that cannot be walked."""

    exit_code = 17


class ScoresFormatError(DgaDetectError, ValueError):
    """A row of an external score sidecar has no score, or one that is
    not a number in [0, 1]."""

    exit_code = 18


class LabelsFormatError(DgaDetectError, ValueError):
    """A row of a labels CSV has no label column, a label that is not
    0 or 1, or a label its provenance contradicts."""

    exit_code = 19
