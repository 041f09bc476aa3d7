"""Random measurement ensembles: matrices, dither, quantized measurements.

A sensing instance bundles an ``m x n`` random matrix ``A`` and a dither
vector ``tau``; the measurement of a signal ``x`` under a quantizer ``Q`` is

    y_i = Q(<a_i, x> - tau_i).

Matrix and dither come from independent purpose-tagged streams derived from
one seed, so an instance is exactly reproducible from
``(matrix_kind, dither level, m, n, seed)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec, level_index, quantize_vec
from .rng import stream

__all__ = [
    "MatrixKind",
    "Dither",
    "SensingInstance",
    "sample_instance",
    "measure",
    "corrupt",
    "hamming",
]


class MatrixKind(enum.Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class Dither:
    """Dither law: i.i.d. uniform on ``[-level, level]``; level 0 is no dither."""

    level: float = 0.0

    def __post_init__(self):
        if self.level < 0 or not np.isfinite(self.level):
            raise ValueError(f"dither level must be a finite real >= 0, got {self.level}")

    @staticmethod
    def zero() -> "Dither":
        return Dither()

    @staticmethod
    def uniform(level: float) -> "Dither":
        return Dither(float(level))


@dataclass(frozen=True, eq=False)
class SensingInstance:
    matrix: np.ndarray
    dither: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def sample_instance(matrix_kind: MatrixKind, dither_kind: Dither, m: int, n: int, seed: int) -> SensingInstance:
    """Draw a fresh matrix/dither pair.

    Rows of a Gaussian matrix are standard normal; Rademacher entries are
    independent signs. The dither is uniform on ``[-level, level]`` (or zero).
    The "matrix" and "dither" streams are independent, so changing ``m`` or
    the dither law never reflows the other component's randomness pattern.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    mat_rng = stream(seed, "matrix")
    if matrix_kind is MatrixKind.GAUSSIAN:
        A = mat_rng.standard_normal((m, n))
    elif matrix_kind is MatrixKind.RADEMACHER:
        A = 2.0 * mat_rng.integers(0, 2, size=(m, n)).astype(float) - 1.0
    else:
        raise ValueError(f"unknown matrix kind {matrix_kind!r}")
    if dither_kind.level == 0.0:
        tau = np.zeros(m)
    else:
        tau = stream(seed, "dither").uniform(-dither_kind.level, dither_kind.level, size=m)
    return SensingInstance(matrix=A, dither=tau)


def measure(instance: SensingInstance, spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    """Quantized measurements ``y_i = Q(<a_i, x> - tau_i)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"signal shape {x.shape} does not match n={instance.n}")
    return quantize_vec(spec, instance.matrix @ x - instance.dither)


def hamming(u, v) -> int:
    """Number of positions where two measurement vectors differ."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return int(np.count_nonzero(u != v))


def corrupt(y: np.ndarray, spec: QuantizerSpec, zeta: float, seed: int) -> np.ndarray:
    """Flip exactly ``floor(zeta * m)`` entries of a measurement vector.

    Chosen entries move by one level, ``+/- delta`` with the direction
    forced inward at the extreme levels of a finite quantizer (so sign
    measurements are negated), so every altered entry genuinely differs from
    the original and the Hamming distortion is exactly ``floor(zeta * m)``.
    Raises if a chosen entry is not an output value of ``spec``.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
    y = np.asarray(y, dtype=float)
    m = y.size
    count = int(np.floor(zeta * m))
    out = y.copy()
    if count == 0:
        return out
    rng = stream(seed, "corrupt")
    pos = rng.choice(m, size=count, replace=False)
    idx = level_index(spec, y[pos])
    step = rng.choice(np.array([-1, 1]), size=count)
    if spec.thresholds is None:
        new_idx = idx + step
        out[pos] = spec.delta * (new_idx + 0.5)
        return out
    # finite levels: force the step inward at the two extremes
    step = np.where(idx == 0, 1, step)
    step = np.where(idx == spec.levels - 1, -1, step)
    out[pos] = spec.level_values[idx + step]
    return out
