"""Exception types shared across the package."""

from __future__ import annotations


class HydrocharError(Exception):
    """Base class for all errors raised by this package."""


class MissingColumn(HydrocharError):
    """CSV header does not match the canonical 21-column schema."""


class UnparseableCell(HydrocharError):
    def __init__(self, row: int, col: str, text: str):
        super().__init__(f"row {row}, column {col!r}: cannot parse {text!r}")
        self.row = row
        self.col = col
        self.text = text


class EmptyDataset(HydrocharError):
    """File contains a header but no data rows."""


class ConstraintViolation(HydrocharError):
    def __init__(self, rule: str, row: int | None = None):
        prefix = f"row {row}: " if row is not None else ""
        super().__init__(prefix + rule)
        self.rule = rule
        self.row = row


class ConstantColumn(HydrocharError):
    """A column selected for scaling has zero variance."""


class TooFewRows(HydrocharError):
    """Not enough rows for the requested split, fold count, or statistic."""


class ZeroCarbon(HydrocharError):
    """Atomic ratios are undefined when the carbon mass fraction is zero."""


class LengthMismatch(HydrocharError):
    """Paired value lists have different lengths."""


class DegenerateActual(HydrocharError):
    """R^2 is undefined when the actual values are all identical."""


class DegenerateInput(HydrocharError):
    """Rank correlation is undefined for a constant vector."""


class SingularInput(HydrocharError):
    """Factor analysis requires non-constant, finite columns."""


class DimensionMismatch(HydrocharError):
    """Vector or matrix dimensions do not agree."""


class EmptyInput(HydrocharError):
    """Operation requires at least one sample."""


class TooManyFeatures(HydrocharError):
    """Exact coalition enumeration is capped at 20 features."""


class EmptyBackground(HydrocharError):
    """Attribution requires a non-empty background sample."""


class MissingModel(HydrocharError):
    def __init__(self, target: str):
        super().__init__(f"no trained model for target {target!r}")
        self.target = target


class InfeasibleBounds(HydrocharError):
    """No feasible individual found within the sampling budget."""


class UnknownApplication(HydrocharError):
    """An objective profile name is neither built in nor a JSON file."""


class InvalidGrid(HydrocharError):
    """A hyperparameter grid file is malformed; the message names the entry and field."""


class MissingModelFile(HydrocharError):
    """A trained-model JSON file required by this command does not exist."""


class InvalidModelFile(HydrocharError):
    """A saved model file cannot be read, or holds values no fit produces."""


class UnsupportedSchema(HydrocharError):
    """A saved file's schema_version is missing or not one this version reads."""


class DualConstraintDrift(HydrocharError):
    """The SVR solver's duals no longer satisfy sum(alpha - alpha*) = 0."""


class ConvergenceWarning(UserWarning):
    """Solver hit its iteration budget; the returned model is best-effort."""


def require_int(name: str, value) -> None:
    """Refuse a count that is not an integer; a bool or a float is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> float:
    """Read a real number; a bool, a string or null is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_type(name: str, value, kind: type):
    """Read a JSON object (``dict``) or array (``list``); any other JSON value is refused, naming it."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an object' if kind is dict else 'a list'}, got {type(value).__name__}")
    return value


def require_known_fields(d: dict, known) -> None:
    """Refuse a field nothing reads, so a misspelt one is never ignored."""
    unknown = [k for k in d if k not in known]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; expected one of {', '.join(known)}")
