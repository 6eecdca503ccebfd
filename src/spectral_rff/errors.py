"""Exception types raised by the library.

Grouped under one base class so callers (the CLI in particular) can
distinguish input/validation problems from numerical failures.
"""


class SpectralRffError(Exception):
    """Base class for all library errors."""


class NumericalError(SpectralRffError):
    """Base class for failures of the numerics rather than of the inputs."""


# numeric core

class NonSquare(SpectralRffError):
    pass


class NonSymmetric(SpectralRffError):
    pass


class FactorizationFailed(NumericalError):
    pass


class DimensionMismatch(SpectralRffError):
    pass


# spectral measures

class InvalidSpec(SpectralRffError):
    pass


class IncompatibleDims(SpectralRffError):
    pass


class NonMonotoneMarginal(SpectralRffError):
    pass


class UnsupportedSpec(SpectralRffError):
    pass


# feature maps

class ModeNormalizerMismatch(SpectralRffError):
    pass


class InvalidParams(SpectralRffError):
    pass


# data handling

class MissingColumn(SpectralRffError):
    pass


class NonNumericCell(SpectralRffError):
    def __init__(self, row, column, message=None):
        self.row = row
        self.column = column
        super().__init__(message or f"non-numeric or missing value at data row {row}, column {column!r}")


class EmptyFile(SpectralRffError):
    pass


class MalformedCsv(SpectralRffError):
    pass


class ConstantColumn(SpectralRffError):
    pass


class DegenerateSplit(SpectralRffError):
    pass


class SchemaMismatch(SpectralRffError):
    pass


class ConstantVector(SpectralRffError):
    pass


# training

class NonFiniteLoss(NumericalError):
    """Raised when the training objective stops being finite.

    Carries the trace accumulated up to the failing step so the caller
    can inspect what happened.
    """

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)
