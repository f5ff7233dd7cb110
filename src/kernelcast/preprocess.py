"""Train-fitted normalization transforms and their inverses.

All statistics are computed from training rows only; applying a fitted
transform to test data reuses those statistics, so no information leaks
from the test span.  Kinds:

* ``minmax01``            per-dimension (x - min) / (max - min),
* ``standardize``         per-dimension (x - mean) / std,
* ``demean``              per-dimension x - mean,
* ``max-norm-scale``      global rescale so the largest training row norm
                          equals :data:`MAX_NORM`,
* ``constant-scale``      multiply by :data:`CONSTANT`.

A transform's document holds its ``kind``, ``shift`` and ``scale``; its
floored dimensions (``degenerate_dims``) go to ``fit_manifest.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, doc_error, doc_field, numbers,
                     sample_rows)
from .linsolve import row_norms

KINDS = ("minmax01", "standardize", "demean", "max-norm-scale",
         "constant-scale")

_FLOOR = 1e-12
# The largest training row norm after ``max-norm-scale``: 0.95 leaves room
# for test excursions before they are projected onto the norm ball.
MAX_NORM = 0.95
CONSTANT = 1000.0


@dataclass
class TransformSpec:
    """One fitted transform; ``degenerate_dims`` flags floored statistics."""

    kind: str
    shift: np.ndarray | None = None   # subtracted before scaling
    scale: np.ndarray | float = 1.0   # divisor (per-dim array or global float)
    degenerate_dims: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shift": None if self.shift is None else self.shift.tolist(),
            "scale": self.scale if np.isscalar(self.scale)
            else np.asarray(self.scale).tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict, source: str = "transform document",
                  path: str = "") -> "TransformSpec":
        """Load one transform.  ``source`` and ``path`` (the dotted location
        of ``doc`` in it) name a missing ``kind``, ``shift`` or ``scale``,
        and a bad one, which raises
        :class:`~kernelcast.errors.DependencyError`: ``kind`` is one of
        :data:`KINDS`, ``shift`` null (no shift) or finite numbers and
        ``scale`` a finite non-zero number or a list of them."""
        def get(key):
            return doc_field(doc, key, source, path)

        def bad(key, what):
            return doc_error(source, path, key,
                             f"must be {what}, not {doc[key]!r}")

        kind, shift, scale = get("kind"), get("shift"), get("scale")
        if kind not in KINDS:
            raise bad("kind", "one of " + ", ".join(KINDS))
        if shift is not None:
            shift = _finite_floats(shift)
            if shift is None:
                raise bad("shift", "null or finite numbers")
        scale = _finite_floats(scale)
        if scale is None or not np.all(scale):
            raise bad("scale", "a finite non-zero number or a list of them")
        return cls(kind, shift, float(scale) if scale.ndim == 0 else scale)


def _finite_floats(value) -> np.ndarray | None:
    """``value`` as float64 if it is a finite number or a non-empty list of
    them, else ``None``; a bool is not a number."""
    try:
        values = numbers(value)
    except (ValueError, OverflowError):  # no number, ragged, huge
        return None
    return values if values.ndim <= 1 and values.size and np.all(
        np.isfinite(values)) else None


def fit(kind: str, train) -> TransformSpec:
    """Fit one transform on training rows only."""
    V = sample_rows(train, "train")
    if kind == "minmax01":
        lo = V.min(axis=0)
        hi = V.max(axis=0)
        rng = hi - lo
        degenerate = tuple(int(j) for j in np.nonzero(rng < _FLOOR)[0])
        rng = np.maximum(rng, _FLOOR)
        return TransformSpec("minmax01", shift=lo, scale=rng,
                             degenerate_dims=degenerate)
    if kind == "standardize":
        mean = V.mean(axis=0)
        std = V.std(axis=0)
        degenerate = tuple(int(j) for j in np.nonzero(std < _FLOOR)[0])
        std = np.maximum(std, _FLOOR)
        return TransformSpec("standardize", shift=mean, scale=std,
                             degenerate_dims=degenerate)
    if kind == "demean":
        return TransformSpec("demean", shift=V.mean(axis=0))
    if kind == "max-norm-scale":
        max_norm = float(np.max(row_norms(V)))
        degenerate = (0,) if max_norm < _FLOOR else ()
        return TransformSpec("max-norm-scale",
                             scale=max(max_norm, _FLOOR) / MAX_NORM,
                             degenerate_dims=degenerate)
    if kind == "constant-scale":
        return TransformSpec("constant-scale", scale=1.0 / CONSTANT)
    raise InvalidInputError(f"unknown transform kind {kind!r}")


def apply(spec: TransformSpec, x) -> np.ndarray:
    """Apply a fitted transform (shape preserved; 1-d in, 1-d out)."""
    out = np.asarray(x, dtype=np.float64)
    if spec.shift is not None:
        out = out - spec.shift
    return out / spec.scale


def invert(spec: TransformSpec, x) -> np.ndarray:
    """Inverse transform; ``invert(spec, apply(spec, x)) == x`` to 1e-12."""
    arr = np.asarray(x, dtype=np.float64)
    out = arr * spec.scale
    if spec.shift is not None:
        out = out + spec.shift
    return out


def fit_pipeline(kinds, train) -> list[TransformSpec]:
    """Fit a transform chain; each stage sees the previous stage's output."""
    specs: list[TransformSpec] = []
    current = sample_rows(train, "train")
    for kind in kinds:
        spec = fit(kind, current)
        specs.append(spec)
        current = apply(spec, current)
    return specs


def apply_pipeline(specs, x) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    for spec in specs:
        out = apply(spec, out)
    return out


def invert_pipeline(specs, x) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    for spec in reversed(specs):
        out = invert(spec, out)
    return out


def pipeline_to_dicts(specs) -> list[dict]:
    return [s.to_dict() for s in specs]


def pipeline_from_dicts(docs, source: str = "transform document",
                        path: str = "") -> list[TransformSpec]:
    """Load a transform chain, a list whose entry ``i`` sits at ``path.i``
    of ``source``; anything else raises
    :class:`~kernelcast.errors.DependencyError` naming ``path``."""
    if not isinstance(docs, list):
        raise doc_error(source, "", path, "must be a list of transforms, "
                                          f"not {docs!r}")
    prefix = f"{path}." if path else ""
    return [TransformSpec.from_dict(d, source, f"{prefix}{i}")
            for i, d in enumerate(docs)]
