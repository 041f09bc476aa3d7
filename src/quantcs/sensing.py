"""Random measurement ensembles: matrices, dither, quantized measurements.

A sensing instance bundles an ``m x n`` random matrix ``A`` and a dither
vector ``tau``; the measurement of a signal ``x`` under a quantizer ``Q`` is

    y_i = Q(<a_i, x> - tau_i).

Matrix and dither come from independent purpose-tagged streams derived from
one seed, so an instance is exactly reproducible from
``(matrix_kind, dither level, m, n, seed)``.

A Rademacher matrix is the stream of ``2 * integers(0, 2, (m, n)) - 1`` bit
for bit, read straight off the PCG64 words: for a range of 2,
``Generator.integers`` takes one 32-bit half word per entry (low half first)
and returns its top bit, so the entry is minus the sign of that half read as
an ``int32``.  The signs are written chunk by chunk into the one ``m x n``
float buffer, so the draw allocates no ``m x n`` temporary.

``instance_rows`` yields an instance's rows in blocks drawn one after another
into one buffer, and ``sample_instance`` is its one-block case; a caller may
also hand in the buffer, so that repeated draws reuse one allocation.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec, level_index, quantize_vec
from .rng import stream
from .signals import check_int, check_real

# Entries per chunk of the Rademacher draw: even, so that no chunk leaves a
# half word behind in the stream.
_CHUNK = 2**14

__all__ = [
    "MatrixKind",
    "SensingInstance",
    "sample_instance",
    "instance_rows",
    "measure",
    "corrupt",
]


class MatrixKind(enum.Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


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


def sample_instance(
    matrix_kind: MatrixKind, dither: float, m: int, n: int, seed: int, out: np.ndarray | None = None
) -> SensingInstance:
    """Draw a fresh matrix/dither pair.

    Rows of a Gaussian matrix are standard normal; Rademacher entries are
    independent signs. The dither is i.i.d. uniform on ``[-dither, dither]``;
    level 0 is no dither. The "matrix" and "dither" streams are independent,
    so changing ``m`` or the dither level never reflows the other component's
    randomness pattern.

    With ``out``, a 1-D C-contiguous writeable float64 array of at least
    ``m * n`` entries, the matrix is drawn into its first ``m * n`` entries
    and is a view of them; its values are those of a fresh draw, bit for bit.
    """
    return next(instance_rows(matrix_kind, dither, m, n, seed, m, out))


def instance_rows(
    matrix_kind: MatrixKind, dither: float, m: int, n: int, seed: int, rows: int, out: np.ndarray | None = None
) -> Iterator[SensingInstance]:
    """The instance ``sample_instance(matrix_kind, dither, m, n, seed)`` in blocks of ``rows`` rows.

    Each block holds the next ``rows`` rows (the last block the rest) and
    their dithers, bit for bit those of the one draw.  Every block's matrix is
    drawn into the same buffer, ``out`` if given (as in ``sample_instance``,
    with at least ``min(rows, m) * n`` entries), so a block is valid only
    until the next one is drawn.  ``rows`` is even unless it covers all ``m``
    rows, so that no Rademacher block leaves half a PCG64 word behind.
    """
    if check_int(m, "m") < 1 or check_int(n, "n") < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if not (np.isfinite(2.0 * check_real(dither, "dither level")) and dither >= 0):
        raise ValueError(f"dither level must be a real >= 0 with 2 * level finite, got {dither}")
    if not isinstance(matrix_kind, MatrixKind):
        raise ValueError(f"unknown matrix kind {matrix_kind!r}")
    if check_int(rows, "rows") < 1 or (rows < m and rows % 2):
        raise ValueError(f"rows must be even and >= 2, or cover all m={m} rows, got {rows}")
    rows = min(rows, m)
    if out is None:
        out = np.empty(rows * n)
    elif not (
        isinstance(out, np.ndarray) and out.ndim == 1 and out.dtype == np.float64 and out.size >= rows * n
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(f"out must be a 1-D C-contiguous writeable float64 array of at least {rows * n} entries")
    mat_rng = stream(seed, "matrix")
    dither_rng = stream(seed, "dither") if dither != 0.0 else None
    for start in range(0, m, rows):
        size = min(rows, m - start)
        A = out[: size * n].reshape(size, n)
        if matrix_kind is MatrixKind.GAUSSIAN:
            mat_rng.standard_normal(out=A)
        else:
            _rademacher(mat_rng, out[: size * n])
        tau = np.zeros(size) if dither_rng is None else dither_rng.uniform(-dither, dither, size=size)
        yield SensingInstance(matrix=A, dither=tau)


def _rademacher(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with ``2 * rng.integers(0, 2, out.size) - 1`` as floats, bit for bit.

    The fill reads whole words, so ``rng`` must have no half word pending: it
    is fresh, or every earlier fill took an even number of entries.
    """
    for start in range(0, out.size, _CHUNK):
        chunk = out[start : start + _CHUNK]
        words = rng.bit_generator.random_raw((chunk.size + 1) // 2)
        np.copysign(1.0, words.astype("<u8", copy=False).view("<i4")[: chunk.size], out=chunk)
    np.negative(out, out=out)


def measure(instance: SensingInstance, spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    """Quantized measurements ``y_i = Q(<a_i, x> - tau_i)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"signal shape {x.shape} does not match n={instance.n}")
    return quantize_vec(spec, instance.matrix @ x - instance.dither)


def corrupt(y: np.ndarray, spec: QuantizerSpec, zeta: float, seed: int) -> np.ndarray:
    """Flip exactly ``floor(zeta * m)`` entries of a measurement vector.

    Chosen entries move by one level, ``+/- delta`` with the direction
    forced inward at the extreme levels (so sign measurements are negated),
    so every altered entry genuinely differs from the original and the
    Hamming distortion is exactly ``floor(zeta * m)``.
    Raises if a chosen entry is not an output value of ``spec``.
    """
    if not 0.0 <= check_real(zeta, "zeta") <= 1.0:
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
    # force the step inward at the two extremes
    step = np.where(idx == 0, 1, step)
    step = np.where(idx == spec.levels - 1, -1, step)
    out[pos] = spec.level_values[idx + step]
    return out
