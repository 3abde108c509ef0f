"""Exception types raised by the crfe package.

The command line exits with 2 on a ConfigError, a mistake in what was
asked for, and with 3 on any other CrfeError, a problem in the data.
"""

import math
import numbers


class CrfeError(Exception):
    """Base class for all crfe errors."""


class ConfigError(CrfeError):
    """Invalid experiment or CLI configuration."""


def require_int(name: str, value, low: int, error=ConfigError) -> None:
    """Raise ``error`` unless value is an integer >= low; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name: str, value, error=ConfigError) -> None:
    """Raise ``error`` unless value is a number (not a bool) finite as a float."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        ok = False
    if not ok:
        raise error(f"{name} must be a finite number, got {value!r}")


# data ingestion / preprocessing

class MissingFileError(CrfeError):
    """Input file does not exist."""


class MissingLabelColumnError(ConfigError):
    """The requested label column is not in the CSV header."""


class UnparsableCellError(CrfeError):
    """A CSV row does not parse.

    Either a cell is neither a finite number nor empty (a missing value),
    or the row has a different cell count from the header or an empty
    label. ``line`` is the 1-based line of the file (the header is line 1).
    ``col`` is the 1-based column of the bad cell and ``value`` its text; a
    ragged row or an empty label has ``col`` None and ``value`` describing
    the fault.
    """

    def __init__(self, line: int, col: int | None, value: str):
        self.line = line
        self.col = col
        self.value = value
        if col is None:
            msg = f"line {line}: {value}"
        else:
            msg = f"line {line}, column {col}: {value!r} is not a finite number"
        super().__init__(msg)


class SingleClassError(CrfeError):
    """Fewer than two distinct labels in the data."""


class NotEnoughDonorsError(CrfeError):
    """Too few rows with an observed value to impute a column."""


class EmptyRowSetError(CrfeError):
    """An operation received an empty row index list."""


class TooFewSamplesError(CrfeError):
    """Dataset too small to split, or to keep every class in train and calibration."""


class InvalidSpecError(ConfigError):
    """Synthetic generator parameters are inconsistent."""


# classifier

class DegenerateLabelsError(CrfeError):
    """Binary training labels contain only one sign."""


class NonFiniteInputError(CrfeError):
    """Training data contains NaN or infinite values."""


class DimensionMismatchError(CrfeError):
    """Vector/matrix shapes are incompatible."""


class ConvergenceError(CrfeError):
    """The finite-Newton solver hit its iteration cap."""


# conformal

class EmptyCalibrationError(CrfeError):
    """Calibration set is empty."""


# selection

class EmptyVectorError(CrfeError):
    """A per-feature score vector is empty."""


class InvalidPolicyError(ConfigError):
    """Stopping policy parameters violate their invariants."""


# metrics

class LengthMismatchError(CrfeError):
    """Prediction and truth sequences have different lengths."""


class EmptyTestSetError(CrfeError):
    """Metrics requested over zero samples."""


# consistency

class InvalidFamilyError(CrfeError):
    """Subset family violates the equal-cardinality/universe invariants."""


class InvalidCardinalityError(CrfeError):
    """Chance-corrected index undefined for empty or full subsets."""
