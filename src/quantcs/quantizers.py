"""Scalar quantizers applied entrywise to measurements.

A quantizer has finitely many levels: it is its ascending thresholds and its
level values, an arithmetic ladder one longer than the thresholds.

* ``sign``: two levels ``{-1, +1}`` split at zero, with ``Q(0) = +1``.
* ``saturated uniform``: the uniform map ``d * (floor(a / d) + 1/2)``
  clipped to ``L`` levels, so inputs beyond ``+/- L d / 2`` saturate at the
  extreme levels ``+/- (L - 1) d / 2``.
* any other thresholds and ladder, given directly to ``QuantizerSpec``.

All cells are half open: a value sitting exactly on a threshold maps to the
upper level, which is what makes ``sign(0) = +1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import check_int, check_positive

__all__ = [
    "QuantizerSpec",
    "make_sign",
    "make_saturated",
    "quantize_vec",
    "level_index",
]


@dataclass(frozen=True)
class QuantizerSpec:
    """Immutable description of an entrywise quantizer.

    Attributes
    ----------
    thresholds : np.ndarray
        Ascending cell boundaries.
    level_values : np.ndarray
        Ascending output values, one more than the thresholds, with equal
        gaps.
    """

    thresholds: np.ndarray
    level_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        q = np.asarray(self.level_values, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValueError(f"quantizers need at least 2 level values, got shape {q.shape}")
        if t.ndim != 1 or t.size != q.size - 1:
            raise ValueError(f"expected {q.size - 1} thresholds, got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise ValueError("thresholds and level values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly ascending")
        gaps = np.diff(q)
        if np.any(gaps <= 0):
            raise ValueError("level values must be strictly ascending")
        if np.any(np.abs(gaps - gaps[0]) > 1e-9 * max(1.0, gaps[0])):
            raise ValueError("level values must form an arithmetic ladder")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "level_values", q)

    @property
    def delta(self) -> float:
        """Gap between consecutive level values (often written Delta); 2 for sign."""
        return float(self.level_values[1] - self.level_values[0])

    @property
    def levels(self) -> int:
        """Number of output levels."""
        return self.level_values.size


def make_sign() -> QuantizerSpec:
    """Two-level sign quantizer: ``-1`` below zero, ``+1`` at and above."""
    return QuantizerSpec(thresholds=np.array([0.0]), level_values=np.array([-1.0, 1.0]))


def make_saturated(delta: float, levels: int) -> QuantizerSpec:
    """Uniform quantizer clipped to an even number ``levels`` of cells, its level span ``delta * (levels - 1)`` finite.

    Thresholds sit at ``j * delta`` for ``j = 1 - levels/2, ..., levels/2 - 1``
    and the outputs are the cell midpoints, so e.g. ``delta=1, levels=4``
    gives thresholds ``{-1, 0, 1}`` and values ``{-1.5, -0.5, 0.5, 1.5}``.
    """
    delta = check_positive(delta, "delta")
    if check_int(levels, "levels") < 2 or levels % 2 != 0:
        raise ValueError(f"levels must be an even integer >= 2, got {levels}")
    if not math.isfinite(delta * (levels - 1)):  # before any array is built, so no numpy overflow warning
        raise ValueError(f"level span delta * (levels - 1) = {delta} * {levels - 1} must be finite")
    js = np.arange(1 - levels // 2, levels // 2)
    values = delta * (np.arange(levels) - (levels - 1) / 2.0)
    return QuantizerSpec(thresholds=delta * js, level_values=values)


def _check_finite(z: np.ndarray):
    if not np.all(np.isfinite(z)):
        raise ValueError("quantizer input must be finite")


def quantize_vec(spec: QuantizerSpec, values) -> np.ndarray:
    """Quantize an array entrywise; a scalar gives a ``np.float64``.

    The level index is the number of thresholds at or below each value, so a
    value equal to a threshold belongs to the upper cell.  With one threshold
    that count is one comparison; with more it is a binary search.
    """
    z = np.asarray(values, dtype=float)
    _check_finite(z)
    t = spec.thresholds
    idx = (z >= t[0]).astype(np.intp) if t.size == 1 else np.searchsorted(t, z, side="right")
    return spec.level_values[idx]


def level_index(spec: QuantizerSpec, y) -> np.ndarray:
    """Map quantizer outputs back to integer level indices.

    The index is ``round((y - q_0) / delta)`` into ``level_values``. Raises
    if some entry is not a valid output value of ``spec``.
    """
    arr = np.asarray(y, dtype=float)
    _check_finite(arr)
    delta = spec.delta
    idx = np.rint((arr - spec.level_values[0]) / delta)
    if np.any(idx < 0) or np.any(idx > spec.levels - 1):
        raise ValueError("value outside the quantizer's level range")
    recon = spec.level_values[idx.astype(int)]
    tol = 1e-9 * max(1.0, delta)
    if np.any(np.abs(recon - arr) > tol):
        raise ValueError("input is not a valid output value of this quantizer")
    return idx.astype(int)
