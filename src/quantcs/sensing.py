"""Random measurement ensembles: matrices, dither, quantized measurements.

A sensing instance bundles an ``m x n`` random matrix ``A`` and a dither
vector ``tau``; the measurement of a signal ``x`` under a quantizer ``Q`` is

    y_i = Q(<a_i, x> - tau_i).

Matrix and dither come from independent purpose-tagged streams derived from
one seed, so an instance is exactly reproducible from
``(matrix_kind, dither level, m, n, seed)``.

A Rademacher matrix is stored as ``int8``, one byte per entry, and is the
stream of ``2 * integers(0, 2, (m, n)) - 1`` value for value, read straight
off the PCG64 words: for a range of 2, ``Generator.integers`` takes one
32-bit half word per entry (low half first) and returns its top bit, so the
entry is minus the sign of that half read as an ``int32``.  The signs are
written chunk by chunk into the one ``m x n`` buffer, so the draw allocates
no ``m x n`` temporary.  A Gaussian matrix is float64; ``MatrixKind.dtype``
names each kind's entry type.

``_forward``, the one forward product, casts a one-byte matrix to float64
one block at a time, and ``instance_rows`` yields an instance in blocks,
both by one rule, ``_row_blocks``; ``sample_instance`` is the one-block case
of ``instance_rows``, and a caller may hand in the buffer, so that repeated
draws reuse one allocation.  ``measure`` takes ``A x`` from ``_forward``, and
the decoder's residual is ``measure`` of its iterate; ``_adjoint`` (gathered
rows, or row slices) keeps its own blocks of ``_BLOCK_ENTRIES // n`` rows.
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
# Entries per block of the products taken in blocks (``_forward``,
# ``_adjoint``, ``oracles.estimate_puv``): 1 MB of float64.
_BLOCK_ENTRIES = 2**17
# Gather the support columns of u when at most 1/_SPARSE_U of u is nonzero, and
# the nonzero rows of d when at most 1/_SPARSE_D of d is; at 4800 x 500 on one
# BLAS thread the gathers beat the dense products below about 5% and 30%.
_SPARSE_U = 20
_SPARSE_D = 4

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

    @property
    def dtype(self) -> np.dtype:
        """Entry type of this kind's matrices: float64, or int8 for the +-1 Rademacher entries."""
        return np.dtype(np.float64 if self is MatrixKind.GAUSSIAN else np.int8)


@dataclass(frozen=True, eq=False)
class SensingInstance:
    """An ``m x n`` sensing matrix and its ``m`` dithers.

    A drawn matrix has its kind's ``dtype``: float64 Gaussian entries, or
    int8 Rademacher entries of +-1.  The dither is float64.
    """

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

    The matrix has ``matrix_kind.dtype``: float64, or int8 for Rademacher
    entries (one byte each).  With ``out``, a 1-D C-contiguous writeable
    array of that dtype and at least ``m * n`` entries, the matrix is drawn
    into its first ``m * n`` entries and is a view of them; its values are
    those of a fresh draw, bit for bit.
    """
    return next(instance_rows(matrix_kind, dither, m, n, seed, m, out))


def instance_rows(
    matrix_kind: MatrixKind, dither: float, m: int, n: int, seed: int, rows: int, out: np.ndarray | None = None
) -> Iterator[SensingInstance]:
    """The instance ``sample_instance(matrix_kind, dither, m, n, seed)`` in blocks of ``rows`` rows.

    The blocks are ``_row_blocks(m, rows)`` and their dithers, bit for bit
    those of the one draw.  Every block's matrix is drawn into one buffer,
    ``out`` if given (as in ``sample_instance``, with room for the largest
    block, ``rows + 1`` rows if a last row is joined), so a block is valid
    until the next is drawn.  ``rows`` is even unless it covers all ``m``
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
    largest = min(m, rows + (m % rows == 1))
    dtype = matrix_kind.dtype
    if out is None:
        out = np.empty(largest * n, dtype=dtype)
    elif not (
        isinstance(out, np.ndarray) and out.ndim == 1 and out.dtype == dtype and out.size >= largest * n
        and out.flags.c_contiguous and out.flags.writeable
    ):
        raise ValueError(f"out must be a 1-D C-contiguous writeable {dtype} array of at least {largest * n} entries")
    mat_rng = stream(seed, "matrix")
    dither_rng = stream(seed, "dither") if dither != 0.0 else None
    for block in _row_blocks(m, rows):
        size = block.stop - block.start
        A = out[: size * n].reshape(size, n)
        if matrix_kind is MatrixKind.GAUSSIAN:
            mat_rng.standard_normal(out=A)
        else:
            _rademacher(mat_rng, out[: size * n])
        tau = np.zeros(size) if dither_rng is None else dither_rng.uniform(-dither, dither, size=size)
        yield SensingInstance(matrix=A, dither=tau)


def _rademacher(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the int8 array ``out`` with the values of ``2 * rng.integers(0, 2, out.size) - 1``.

    Entry ``i`` is the top bit ``b`` of half word ``i`` as ``2 b - 1``: with
    ``h`` the half word's top byte read as an ``int8``, that is
    ``(~h >> 7) | 1``.  The fill reads whole words, so ``rng`` must have no
    half word pending: it is fresh, or every earlier fill took an even number
    of entries.
    """
    for start in range(0, out.size, _CHUNK):
        chunk = out[start : start + _CHUNK]
        words = rng.bit_generator.random_raw((chunk.size + 1) // 2)
        np.invert(words.astype("<u8", copy=False).view(np.int8)[3::4][: chunk.size], out=chunk)
        del words  # so that the next chunk's words do not coexist with these
        np.right_shift(chunk, 7, out=chunk)
        np.bitwise_or(chunk, 1, out=chunk)


def _block_rows(n: int) -> int:
    """Rows per block of a product taken in blocks: about ``_BLOCK_ENTRIES`` entries, a multiple of 4.

    The count is even, as ``instance_rows`` needs.  With one BLAS thread,
    blocks of a multiple of 4 rows also gave every row's product the bits of
    the one-shot product (OpenBLAS 0.3.31), where blocks of 4998 rows did not.
    """
    return max(4, _BLOCK_ENTRIES // n // 4 * 4)


def _row_blocks(m: int, rows: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``m``; a last block of one row joins the block before it.

    (numpy takes a one-row product as a dot product, in another sum order.)
    """
    stops = [*range(rows, m - 1, rows), m]
    return [slice(a, b) for a, b in zip([0, *stops], stops)]


def _forward(matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``matrix @ u`` for a float64 vector ``u``: the one forward product, behind ``measure``.

    A ``u`` with at most ``1/_SPARSE_U`` nonzeros takes its support columns,
    a one-byte matrix's cast to float64 whole (a mixed int8 x float64 product
    sums in another order).  Otherwise a float64 matrix takes one product, and
    a one-byte one is cast in the blocks of ``_row_blocks(m, _block_rows(n))``,
    about ``_BLOCK_ENTRIES`` floats each: the bits of the float64 copy's
    one-shot product on one BLAS thread and on two (OpenBLAS 0.3.31, 300
    shapes up to 700 columns), where that product on two threads differed
    in the last bit for 24 shapes.
    """
    supp = np.flatnonzero(u)
    if supp.size * _SPARSE_U <= u.size:
        return matrix[:, supp].astype(np.float64, copy=False) @ u[supp]
    if matrix.dtype == np.float64:
        return matrix @ u
    m, n = matrix.shape
    out = np.empty(m)
    for block in _row_blocks(m, _block_rows(n)):
        out[block] = matrix[block] @ u
    return out


def _adjoint(matrix: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``matrix.T @ d`` summed in a fixed order over its own blocks of ``_BLOCK_ENTRIES // n`` rows.

    The blocks cover the nonzero rows of ``d`` alone when they are few, and
    all rows in contiguous slices otherwise.  A block of ``_BLOCK_ENTRIES``
    entries (1 MB of float64) is too small for OpenBLAS to split over
    threads, so the fixed block order makes ``A^T d`` bitwise the same for
    every BLAS thread count; it also bounds the float64 cast of a one-byte
    matrix's block.
    """
    m, n = matrix.shape
    step = max(1, _BLOCK_ENTRIES // n)
    rows = np.flatnonzero(d)
    if rows.size * _SPARSE_D > m:
        blocks = (slice(i, i + step) for i in range(0, m, step))
    else:
        blocks = (rows[i : i + step] for i in range(0, rows.size, step))
    g = np.zeros(n)
    for b in blocks:
        g += d[b] @ matrix[b]
    return g


def measure(instance: SensingInstance, spec: QuantizerSpec, x: np.ndarray) -> np.ndarray:
    """Quantized measurements ``y_i = Q(<a_i, x> - tau_i)``; the decoder's residual takes this map too."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"signal shape {x.shape} does not match n={instance.n}")
    return quantize_vec(spec, _forward(instance.matrix, x) - instance.dither)


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
