"""Projected gradient descent on the one-sided l1 loss.

With measurements ``y_i = Q(<a_i, x> - tau_i)`` the loss at ``u`` is

    L(u) = (Delta / m) * sum_i sum_j max(-y_ij (<a_i, u> - tau_i - b_j), 0),

where ``b_j`` are the quantizer thresholds and ``y_ij`` is the sign of
``<a_i, x> - tau_i - b_j`` implied by ``y_i``.  Its subgradient collapses to
``(1/m) A^T d`` with ``d = Q(Au - tau) - y``.  Only the support columns of
``u`` and the rows where ``d`` is nonzero enter it, so one iteration costs
``O(m nnz(u) + nnz(d) n)`` when those are few and two dense matrix-vector
products ``O(mn)`` otherwise; the recovery iteration alternates a gradient
step with the two-stage model projection.  On the sphere with the sign
quantizer this is exactly normalized binary iterative hard thresholding.

A step is a fixed function of the iterate's bits, so ``pgd_recover`` stops as
soon as an iterate repeats an earlier one bit for bit: a consistent iterate
(``d = 0``, zero gradient) is a fixed point, and renormalization drift or
multi-bit rows can close cycles of period 2 or more.  The rest of the run is
then a replay, so the per-iterate errors are copied forward and a few more
steps land on the final iterate: the outputs are those of the full loop, bit
for bit, and the check keeps two extra iterates in memory.

This module is the solver alone: the loss value and the other forms of its
gradient that cross-check this one live in ``quantcs.verify``, and each
family's step size and start in ``quantcs.harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec, quantize_vec
from .sensing import _BLOCK_ENTRIES, SensingInstance, _matvec
from .signals import SignalModel, check_int, check_real, project_model

__all__ = [
    "ERRORS_CAP",
    "PgdConfig",
    "PgdResult",
    "gradient",
    "pgd_recover",
]


# largest admissible count of stored per-iterate errors: 1 GiB of float64.  A
# run with a ground truth keeps one error per iteration, so this caps the
# iterations of a run, and the harness caps by it the errors a plan's trials
# compute, len(m_grid) * trials * iterations, of which a run keeps the last ones
ERRORS_CAP = 2**27


@dataclass(frozen=True)
class PgdConfig:
    eta: float
    iterations: int = 100

    def __post_init__(self):
        if not (math.isfinite(check_real(self.eta, "step size eta")) and self.eta > 0):
            raise ValueError(f"step size eta must be a positive finite real, got {self.eta}")
        if check_int(self.iterations, "iterations") < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.iterations > ERRORS_CAP:
            raise ValueError(f"iterations = {self.iterations} exceeds the cap {ERRORS_CAP}")


@dataclass(frozen=True, eq=False)
class PgdResult:
    """Final iterate plus optional per-iterate errors.

    ``errors[t-1]`` is ``||x^(t) - truth||_2`` when a ground truth was
    supplied, one entry per iteration.
    """

    estimate: np.ndarray
    errors: np.ndarray | None = None


# Gather the support columns of u when at most 1/_SPARSE_U of u is nonzero, and
# the nonzero rows of d when at most 1/_SPARSE_D of d is; at 4800 x 500 on one
# BLAS thread the gathers beat the dense products below about 5% and 30%.
_SPARSE_U = 20
_SPARSE_D = 4


def _forward(matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``matrix @ u``, through the support columns alone when ``u`` is sparse.

    The gathered columns of a one-byte matrix are cast to float64 whole (at
    most ``m * n / _SPARSE_U`` entries); the dense product goes by ``_matvec``.
    """
    supp = np.flatnonzero(u)
    if supp.size * _SPARSE_U > u.size:
        return _matvec(matrix, u)
    return matrix[:, supp] @ u[supp]


def _adjoint(matrix: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``matrix.T @ d`` summed in a fixed order over blocks of rows.

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


def gradient(spec: QuantizerSpec, instance: SensingInstance, y, u) -> np.ndarray:
    """Subgradient ``(1/m) A^T (Q(Au - tau) - y)`` of the one-sided loss."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape != (instance.n,):
        raise ValueError(f"iterate shape {u.shape} does not match n={instance.n}")
    if y.shape != (instance.m,):
        raise ValueError(f"measurement shape {y.shape} does not match m={instance.m}")
    d = quantize_vec(spec, _forward(instance.matrix, u) - instance.dither) - y
    return _adjoint(instance.matrix, d) / instance.m


def pgd_recover(
    config: PgdConfig,
    model: SignalModel,
    spec: QuantizerSpec,
    instance: SensingInstance,
    y,
    start,
    truth=None,
) -> PgdResult:
    """Run the projected gradient iteration from the vector ``start``.

    Each step moves against the loss subgradient with step size ``eta`` and
    re-projects onto the structure set and then the norm annulus. Pass
    ``truth`` to have per-iterate l2 errors recorded.

    The loop stops once an iterate equals, bit for bit, the iterate before it
    (a fixed point) or a checkpoint iterate taken at the last power-of-two
    iteration (Brent's cycle check, for cycles of any period).  The remaining
    errors are copied from the cycle and ``(iterations - t) % period`` more
    steps reach the last iterate, so ``estimate`` and ``errors`` equal those of
    all ``config.iterations`` steps bit for bit; the extra memory is two
    iterates.  ``start`` is copied, and must have shape ``(n,)``.
    """
    if model.ambient_dim != instance.n:
        raise ValueError(f"model dimension {model.ambient_dim} does not match instance n={instance.n}")
    y = np.asarray(y, dtype=float)
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (instance.n,):
            raise ValueError(f"truth shape {truth.shape} does not match n={instance.n}")

    x = np.array(start, dtype=float)
    if x.shape != (instance.n,):
        raise ValueError(f"start shape {x.shape} does not match n={instance.n}")

    def step(u):
        return project_model(model, u - config.eta * gradient(spec, instance, y, u))

    # the checkpoint is the start, then the iterate of each power-of-two t;
    # once x_t repeats it, x_mark .. x_t recur until the end.  A fixed point
    # (x_t equal to x_{t-1}) is caught at once by comparing with the last iterate
    total = config.iterations
    errors = np.empty(total) if truth is not None else None
    mark, mark_at = x.tobytes(), 0
    last = mark
    for t in range(1, total + 1):
        x = step(x)
        key = x.tobytes()
        if errors is not None:
            errors[t - 1] = np.linalg.norm(x - truth)
        if key == last:
            mark, mark_at = key, t - 1
        if key == mark:
            if errors is not None:
                errors[t:] = np.resize(errors[mark_at:t], total - t)
            for _ in range((total - t) % (t - mark_at)):
                x = step(x)
            break
        if t & (t - 1) == 0:
            mark, mark_at = key, t
        last = key
    return PgdResult(estimate=x, errors=errors)
