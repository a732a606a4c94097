"""Exception types shared across the package, the readers of saved JSON values, and the check that
training arrays are finite."""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np


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
    """A column, or a list of values, is constant where a statistic or a scaler needs it to vary."""


class TooFewRows(HydrocharError):
    """Not enough rows (or value pairs) for the requested split, fold count, or statistic."""


class ZeroCarbon(HydrocharError):
    """Atomic ratios are undefined when the carbon mass fraction is zero."""


class DimensionMismatch(HydrocharError):
    """Vector or matrix dimensions do not agree."""


class EmptyInput(HydrocharError):
    """Operation requires at least one sample (a training row, an explanation, a background row)."""


class NonFiniteInput(HydrocharError):
    """Training input holds NaN or infinity."""


class TooManyFeatures(HydrocharError):
    """Exact coalition enumeration is capped at 20 features."""


class MissingModel(HydrocharError):
    def __init__(self, target: str):
        super().__init__(f"no trained model for target {target!r}")
        self.target = target


class InfeasibleBounds(HydrocharError):
    """No feasible individual found within the sampling budget."""


class UnknownApplication(HydrocharError):
    """An objective profile name is neither built in nor a JSON file, or its JSON file is malformed."""


class InvalidGrid(HydrocharError):
    """A hyperparameter grid file is malformed; the message names the entry and field."""


class MissingModelFile(HydrocharError):
    """A trained-model JSON file required by this command does not exist."""


class InvalidModelFile(HydrocharError):
    """A saved model file cannot be read, is of a schema_version this version does not read, or holds values no
    fit produces."""


class DualConstraintDrift(HydrocharError):
    """The SVR solver's duals no longer satisfy sum(alpha - alpha*) = 0."""


class ConvergenceWarning(UserWarning):
    """Solver hit its iteration budget; the returned model is best-effort."""


@contextlib.contextmanager
def refusing(error_cls: type[HydrocharError], source: str):
    """Re-raise what reading ``source`` refuses as ``error_cls``, naming the source: a missing field (KeyError), a
    malformed value (ValueError, json.JSONDecodeError included) or any HydrocharError."""
    try:
        yield
    except KeyError as exc:
        raise error_cls(f"{source} has no field {exc.args[0]!r}") from exc
    except (HydrocharError, ValueError) as exc:
        raise error_cls(f"{source}: {exc}") from exc


def require_finite(name: str, a: np.ndarray) -> None:
    """Refuse the array ``a``, naming it, if it holds NaN or infinity."""
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} holds a value that is not finite")


def require_int(name: str, value) -> int:
    """Read a count; a bool or a float is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_real(name: str, value) -> float:
    """Read a real number; a bool, a string or null is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_reals(name: str, value) -> np.ndarray:
    """Read a list of numbers, or of equal-length lists of numbers, as a float array; refuse any other entry."""
    items = require_type(name, value, list)
    nested = any(isinstance(v, list) for v in items)
    rows = [require_type(f"{name}[{i}]", v, list) for i, v in enumerate(items)] if nested else [items]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            require_real(f"{name}[{i}][{j}]" if nested else f"{name}[{j}]", v)
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{name} holds lists of different lengths")
    return np.array(items, dtype=float)


def require_ints(name: str, value) -> np.ndarray:
    """Read a list of integers as an int array; a bool, a float, a string, null or an object is refused."""
    return np.array([require_int(f"{name}[{i}]", v) for i, v in enumerate(require_type(name, value, list))], dtype=int)


_JSON_KINDS = {dict: "an object", list: "a list", bool: "true or false", str: "a string"}


def require_type(name: str, value, kind: type):
    """Read a JSON object (``dict``), array (``list``), bool or string; any other JSON value is refused, naming it."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def read_fields(cls, name: str, d, parsers: dict):
    """Build dataclass ``cls`` from the JSON object ``d``, in field order, each field through ``parsers`` if
    named there. An unknown field is refused; an absent one takes the class default, or raises
    KeyError(field) when it has none."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    unknown = [k for k in require_type(name, d, dict) if k not in names]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; expected one of {', '.join(names)}")
    values = {}
    for f in fields:
        if f.name in d:
            values[f.name] = parsers[f.name](d[f.name]) if f.name in parsers else d[f.name]
        elif f.default is dataclasses.MISSING:
            raise KeyError(f.name)
    return cls(**values)
