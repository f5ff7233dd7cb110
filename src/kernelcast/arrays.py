"""The array converters the stages share: :func:`finite_array`, which
reads an array of a given shape from an artifact document, and
:func:`sample_rows`, the one reading of a series or sample argument.

The command-line front end does not import this module, so numpy loads
with the first stage module that does."""

import numpy as np

from .errors import InvalidInputError, numbers


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
