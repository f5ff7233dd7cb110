"""Exception types shared across the package, the accessors that read
upstream artifact documents, the converters that check a value:
:func:`one_of` for a name, :func:`int_in` and :func:`positive` for a
number, :func:`numbers` and :func:`finite_array` for an array, and
:func:`sample_rows`, the one reading of a series or sample argument."""

import math
from itertools import chain

import numpy as np


class KernelcastError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(KernelcastError, ValueError):
    """Input data violates a documented precondition."""


class CapacityError(KernelcastError):
    """A requested feature space or table exceeds representable capacity."""


class ConditioningError(KernelcastError):
    """A linear solve failed even after diagonal jitter escalation."""


class SimulationError(KernelcastError):
    """A numerical integrator failed to produce the requested trajectory."""


class NormBoundError(InvalidInputError):
    """A sample violates the norm bound required by the Volterra kernel.

    Attributes
    ----------
    position : int or None
        Index of the offending sample within the sequence being processed,
        when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GridSearchError(KernelcastError):
    """Every hyperparameter candidate failed during cross-validation."""


class ConfigError(KernelcastError):
    """An experiment configuration is malformed.

    ``field`` holds a dotted path such as ``dataset.kind`` when available.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class DependencyError(ConfigError):
    """A pipeline stage is missing an upstream artifact or hashes disagree."""


class MissingKeyError(DependencyError, InvalidInputError):
    """An artifact document lacks a required key.

    It is a :class:`DependencyError` to the pipeline stages (exit 2) and an
    :class:`InvalidInputError` to code that loads documents directly.
    """


class ParseError(InvalidInputError):
    """A CSV file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def doc_field(doc: dict, key: str, source: str, path: str = ""):
    """Value at the dotted ``key`` of an artifact document.

    ``source`` names the artifact (its file) and ``path`` the dotted
    location of ``doc`` inside it; a missing key raises
    :class:`MissingKeyError` naming both, down to the first part missing.
    """
    node = doc
    parts = path.split(".") if path else []
    for part in key.split("."):
        parts.append(part)
        if not isinstance(node, dict) or part not in node:
            raise MissingKeyError(f"{source} has no key {'.'.join(parts)!r}")
        node = node[part]
    return node


def doc_error(source: str, path: str, key: str, what: str) -> DependencyError:
    """The error for a bad value at the dotted ``key`` of the document at
    the dotted ``path`` of ``source``: ``what`` says what it must be."""
    where = f"{path}.{key}" if path else key
    return DependencyError(f"{source}: {where!r} {what}")


def doc_value(doc: dict, key: str, source: str, path: str, conv):
    """``conv`` of the value at the dotted ``key`` (see :func:`doc_field`).

    A value ``conv`` rejects, with an :class:`InvalidInputError` or the
    ``TypeError`` of a value that is no number, raises
    :class:`DependencyError` naming ``source`` and the dotted key.
    """
    value = doc_field(doc, key, source, path)
    try:
        return conv(value)
    except InvalidInputError as exc:
        what = str(exc)
    except TypeError:
        what = f"must be a number, not a {type(value).__name__}"
    raise doc_error(source, path, key, what)


def one_of(*names):
    """Converter: ``value`` if it is one of ``names``."""
    def conv(value):
        if value not in names:
            raise InvalidInputError("must be one of " + ", ".join(names))
        return value
    return conv


def int_in(lo: int, hi: float = math.inf):
    """Converter: ``value`` as an int in ``[lo, hi]``.  A bool, a string,
    a number with a fractional part and one out of range raise
    :class:`InvalidInputError` (a ``ValueError``); any other value that is
    no number raises the ``TypeError`` of ``float``."""
    def conv(value) -> int:
        if isinstance(value, (bool, str)):
            raise InvalidInputError("must be a whole number, not a "
                                    + type(value).__name__)
        if not isinstance(value, int):
            number = float(value)
            if not number.is_integer():
                raise InvalidInputError("must be a whole number")
            value = int(number)
        if not lo <= value <= hi:
            raise InvalidInputError(f"must be >= {lo}" if hi == math.inf
                                    else f"must lie in [{lo}, {hi}]")
        return value
    return conv


def positive(value) -> float:
    """Converter: ``value`` as a positive finite float.  A bool, a string
    and a value out of range raise :class:`InvalidInputError` (a
    ``ValueError``); any other value that is no number raises the
    ``TypeError`` of ``float``."""
    if isinstance(value, (bool, str)):
        raise InvalidInputError("must be a number, not a "
                                + type(value).__name__)
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not 0 < number < math.inf:
        raise InvalidInputError("must be positive and finite")
    return number


def numbers(value) -> np.ndarray:
    """Converter: a number or a nested list of numbers, as float64; a bool,
    a string or a null is no number (:class:`InvalidInputError`)."""
    # A scan of the types one nesting level at a time, without a Python
    # step per number, passes nested lists of ints and floats.  Anything
    # else is walked item by item, which names the item that is no number.
    level = [value]
    while level:
        kinds = set(map(type, level))
        if not kinds <= {int, float, list}:
            break
        inner = [item for item in level if type(item) is list] \
            if list in kinds else []
        level = list(chain.from_iterable(inner))
    items = [value] if level else []
    while items:
        item = items.pop()
        if isinstance(item, list):
            items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise InvalidInputError(f"{item!r} is not a number")
    return np.float64(value)


def finite_array(*shape):
    """Converter: ``value`` as a float64 array of finite numbers of
    ``shape``, in which ``None`` stands for any length >= 1.  Anything else
    raises :class:`InvalidInputError`."""
    text = ", ".join("any" if n is None else str(n) for n in shape)

    def conv(value) -> np.ndarray:
        try:
            array = numbers(value)
        except (ValueError, OverflowError):  # no number, ragged, huge
            array = np.empty(0)
        if array.ndim != len(shape) or not all(
                m >= 1 if n is None else m == n
                for n, m in zip(shape, array.shape)) or not np.all(
                np.isfinite(array)):
            raise InvalidInputError(
                f"must be an array of finite numbers of shape ({text})")
        return array
    return conv


def sample_rows(value, name: str, *, finite: bool = False,
                empty: bool = False) -> np.ndarray:
    """``value`` as float64 sample rows of shape ``(n, d)``, ``n >= 1`` (or
    ``n >= 0`` with ``empty``): a 1-d array is ``n`` samples of one
    dimension.  Any other shape, and with ``finite`` a non-finite entry,
    raises :class:`InvalidInputError` naming the argument ``name``."""
    rows = np.asarray(value, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[0] < (0 if empty else 1):
        what = "an (n, d) array" if empty else "a non-empty (n, d) array"
        raise InvalidInputError(f"{name} must be {what}, not of shape "
                                f"{np.shape(value)}")
    if finite and not np.all(np.isfinite(rows)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return rows
