"""Scalar quantizers applied entrywise to measurements.

Four families share one description:

* ``sign``: two levels ``{-1, +1}`` split at zero, with ``Q(0) = +1``.
* ``uniform``: the infinite-level map ``Q_d(a) = d * (floor(a / d) + 1/2)``,
  which returns the midpoint of the width-``d`` cell containing ``a``.
* ``saturated uniform``: the uniform map clipped to ``L`` levels, so inputs
  beyond ``+/- L d / 2`` saturate at the extreme levels ``+/- (L - 1) d / 2``.
* ``general levels``: explicit ascending thresholds and an arithmetic ladder
  of level values.

All cells are half open: a value sitting exactly on a threshold maps to the
upper level, which is what makes ``sign(0) = +1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerKind",
    "QuantizerSpec",
    "make_sign",
    "make_uniform",
    "make_saturated",
    "make_general",
    "quantize",
    "quantize_vec",
    "level_index",
]


class QuantizerKind(enum.Enum):
    SIGN = "sign"
    UNIFORM = "uniform"
    SATURATED_UNIFORM = "saturated_uniform"
    GENERAL_LEVELS = "general_levels"


@dataclass(frozen=True)
class QuantizerSpec:
    """Immutable description of an entrywise quantizer.

    Attributes
    ----------
    kind : QuantizerKind
    delta : float
        Gap between consecutive level values (often written Delta). For the
        uniform families this is the cell width; for sign it is 2.
    thresholds : np.ndarray | None
        Ascending cell boundaries; ``None`` for the uniform quantizer whose
        threshold grid ``{j * delta}`` is infinite.
    level_values : np.ndarray | None
        Ascending output values, ``levels`` of them; ``None`` for uniform.
    levels : int | None
        Number of output levels; ``None`` for uniform (countably many).
    """

    kind: QuantizerKind
    delta: float
    thresholds: np.ndarray | None
    level_values: np.ndarray | None
    levels: int | None

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be a positive finite real, got {self.delta}")
        if self.kind is QuantizerKind.UNIFORM:
            if self.thresholds is not None or self.level_values is not None or self.levels is not None:
                raise ValueError("uniform quantizer carries no finite threshold/level lists")
            return
        t = np.asarray(self.thresholds, dtype=float)
        q = np.asarray(self.level_values, dtype=float)
        if self.levels is None or self.levels < 2:
            raise ValueError("finite quantizers need at least 2 levels")
        if q.ndim != 1 or q.size != self.levels:
            raise ValueError(f"expected {self.levels} level values, got shape {q.shape}")
        if t.ndim != 1 or t.size != self.levels - 1:
            raise ValueError(f"expected {self.levels - 1} thresholds, got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise ValueError("thresholds and level values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly ascending")
        gaps = np.diff(q)
        if np.any(gaps <= 0):
            raise ValueError("level values must be strictly ascending")
        if np.any(np.abs(gaps - self.delta) > 1e-9 * max(1.0, self.delta)):
            raise ValueError("level values must form an arithmetic ladder with gap = delta")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "level_values", q)


def make_sign() -> QuantizerSpec:
    """Two-level sign quantizer: ``-1`` below zero, ``+1`` at and above."""
    return QuantizerSpec(
        kind=QuantizerKind.SIGN,
        delta=2.0,
        thresholds=np.array([0.0]),
        level_values=np.array([-1.0, 1.0]),
        levels=2,
    )


def make_uniform(delta: float) -> QuantizerSpec:
    """Unbounded uniform quantizer with cell width ``delta``."""
    return QuantizerSpec(
        kind=QuantizerKind.UNIFORM,
        delta=float(delta),
        thresholds=None,
        level_values=None,
        levels=None,
    )


def make_saturated(delta: float, levels: int) -> QuantizerSpec:
    """Uniform quantizer clipped to an even number ``levels`` of cells.

    Thresholds sit at ``j * delta`` for ``j = 1 - levels/2, ..., levels/2 - 1``
    and the outputs are the cell midpoints, so e.g. ``delta=1, levels=4``
    gives thresholds ``{-1, 0, 1}`` and values ``{-1.5, -0.5, 0.5, 1.5}``.
    """
    if levels < 2 or levels % 2 != 0:
        raise ValueError(f"levels must be an even integer >= 2, got {levels}")
    delta = float(delta)
    js = np.arange(1 - levels // 2, levels // 2)
    values = delta * (np.arange(levels) - (levels - 1) / 2.0)
    return QuantizerSpec(
        kind=QuantizerKind.SATURATED_UNIFORM,
        delta=delta,
        thresholds=delta * js,
        level_values=values,
        levels=levels,
    )


def make_general(thresholds, level_values) -> QuantizerSpec:
    """Quantizer with explicit thresholds and evenly spaced level values."""
    q = np.asarray(level_values, dtype=float)
    if q.ndim != 1 or q.size < 2:
        raise ValueError("need at least two level values")
    return QuantizerSpec(
        kind=QuantizerKind.GENERAL_LEVELS,
        delta=float(q[1] - q[0]),
        thresholds=np.asarray(thresholds, dtype=float),
        level_values=q,
        levels=q.size,
    )


def _check_finite(z: np.ndarray):
    if not np.all(np.isfinite(z)):
        raise ValueError("quantizer input must be finite")


def _quantize_array(spec: QuantizerSpec, z: np.ndarray) -> np.ndarray:
    if spec.kind is QuantizerKind.SIGN:
        return np.where(z >= 0.0, 1.0, -1.0)
    if spec.kind is QuantizerKind.UNIFORM:
        return spec.delta * (np.floor(z / spec.delta) + 0.5)
    if spec.kind is QuantizerKind.SATURATED_UNIFORM:
        mid = spec.delta * (np.floor(z / spec.delta) + 0.5)
        return np.clip(mid, spec.level_values[0], spec.level_values[-1])
    # general levels: a value equal to a threshold belongs to the upper cell
    idx = np.searchsorted(spec.thresholds, z, side="right")
    return spec.level_values[idx]


def quantize(spec: QuantizerSpec, value: float) -> float:
    """Quantize one scalar. Ties at a threshold map to the upper level."""
    z = np.asarray(value, dtype=float)
    if z.ndim != 0:
        raise ValueError("quantize expects a scalar; use quantize_vec for arrays")
    _check_finite(z)
    return float(_quantize_array(spec, z))


def quantize_vec(spec: QuantizerSpec, values) -> np.ndarray:
    """Quantize an array entrywise."""
    z = np.asarray(values, dtype=float)
    _check_finite(z)
    return _quantize_array(spec, z)


def level_index(spec: QuantizerSpec, y) -> np.ndarray:
    """Map quantizer outputs back to integer level indices.

    For finite quantizers the index is ``round((y - q_0) / delta)`` into
    ``level_values``; for the uniform quantizer it is the (unbounded) cell
    integer ``j`` with ``y = delta * (j + 1/2)``. Raises if some entry is not
    a valid output value of ``spec``.
    """
    arr = np.asarray(y, dtype=float)
    _check_finite(arr)
    if spec.kind is QuantizerKind.UNIFORM:
        idx = np.rint(arr / spec.delta - 0.5)
        recon = spec.delta * (idx + 0.5)
    else:
        idx = np.rint((arr - spec.level_values[0]) / spec.delta)
        if np.any(idx < 0) or np.any(idx > spec.levels - 1):
            raise ValueError("value outside the quantizer's level range")
        recon = spec.level_values[idx.astype(int)]
    tol = 1e-9 * max(1.0, spec.delta)
    if np.any(np.abs(recon - arr) > tol):
        raise ValueError("input is not a valid output value of this quantizer")
    return idx.astype(int)
