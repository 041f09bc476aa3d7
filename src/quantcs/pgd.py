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
for bit, and the check keeps one extra iterate in memory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec, level_index, quantize_vec
from .sensing import SensingInstance, measure
from .signals import SignalModel, project_model, project_structure, random_in_model, restricted_dual_norm

__all__ = [
    "Family",
    "ZeroInit",
    "GivenInit",
    "RandomInit",
    "PgdConfig",
    "PgdResult",
    "RaicParams",
    "one_sided_l1_loss",
    "gradient",
    "gradient_from_thresholds",
    "clipped_gradient",
    "pgd_recover",
    "default_step_size",
    "raic_residual",
]


class Family(enum.Enum):
    """The three named measurement configurations."""

    ONE_BIT_GAUSSIAN = "one_bit_gaussian"
    DITHERED_ONE_BIT = "dithered_one_bit"
    DITHERED_MULTI_BIT = "dithered_multi_bit"


@dataclass(frozen=True)
class ZeroInit:
    pass


@dataclass(frozen=True, eq=False)
class GivenInit:
    vector: np.ndarray


@dataclass(frozen=True)
class RandomInit:
    seed: int


Init = ZeroInit | GivenInit | RandomInit


@dataclass(frozen=True)
class PgdConfig:
    eta: float
    iterations: int = 100
    init: Init = ZeroInit()

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"step size eta must be a positive finite real, got {self.eta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True, eq=False)
class PgdResult:
    """Final iterate plus optional per-iterate errors.

    ``errors[t-1]`` is ``||x^(t) - truth||_2`` when a ground truth was
    supplied, one entry per iteration.
    """

    estimate: np.ndarray
    errors: np.ndarray | None = None


@dataclass(frozen=True)
class RaicParams:
    """Constants ``(mu1..mu4, phi)`` of an approximate-invertibility bound."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float
    phi: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "mu3", "mu4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.phi <= 0:
            raise ValueError("phi must be > 0")


# Gather the support columns of u when at most 1/_SPARSE_U of u is nonzero, and
# the nonzero rows of d when at most 1/_SPARSE_D of d is; at 4800 x 500 on one
# BLAS thread the gathers beat the dense products below about 5% and 30%.
_SPARSE_U = 20
_SPARSE_D = 4
# Entries per row block of the adjoint: a 1 MB block is too small for OpenBLAS
# to split over threads, so the fixed block order makes A^T d bitwise the same
# for every BLAS thread count.
_BLOCK_ENTRIES = 2**17


def _forward(matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``matrix @ u``, through the support columns alone when ``u`` is sparse."""
    supp = np.flatnonzero(u)
    if supp.size * _SPARSE_U > u.size:
        return matrix @ u
    return matrix[:, supp] @ u[supp]


def _adjoint(matrix: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``matrix.T @ d`` summed in a fixed order over blocks of rows.

    The blocks cover the nonzero rows of ``d`` alone when they are few, and
    all rows in contiguous slices otherwise.
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


def _margins(spec: QuantizerSpec, instance: SensingInstance, y: np.ndarray, u: np.ndarray):
    """Shared setup: correlations ``z``, per-threshold signs of ``y``."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != (instance.n,):
        raise ValueError(f"iterate shape {u.shape} does not match n={instance.n}")
    if y.shape != (instance.m,):
        raise ValueError(f"measurement shape {y.shape} does not match m={instance.m}")
    z = instance.matrix @ u - instance.dither
    return z, level_index(spec, y)


def one_sided_l1_loss(spec: QuantizerSpec, instance: SensingInstance, y, u) -> float:
    """One-sided l1 consistency loss of the iterate ``u`` against ``y``.

    Zero exactly on the set of signals that reproduce ``y``; each term grows
    linearly with the distance by which a correlation lands on the wrong
    side of a threshold it should clear.
    """
    z, idx = _margins(spec, instance, y, u)
    m = instance.m
    if spec.thresholds is None:
        # infinite threshold grid j*delta, but only thresholds strictly
        # between the cell of z and the cell of y contribute
        c = np.floor(z / spec.delta)
        count = np.abs(c - idx)
        ssum = spec.delta * (np.minimum(c, idx) + 1 + np.maximum(c, idx)) * count / 2.0
        per_row = np.where(c > idx, count * z - ssum, ssum - count * z)
        return float(spec.delta / m * per_row.sum())
    b = spec.thresholds
    yij = np.where(idx[:, None] > np.arange(b.size)[None, :], 1.0, -1.0)
    hinge = np.maximum(-yij * (z[:, None] - b[None, :]), 0.0)
    return float(spec.delta / m * hinge.sum())


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


def gradient_from_thresholds(spec: QuantizerSpec, instance: SensingInstance, y, u) -> np.ndarray:
    """The same subgradient assembled threshold by threshold.

    Evaluates ``(Delta / 2m) sum_i sum_j (sign(<a_i,u> - tau_i - b_j) - y_ij) a_i``
    directly; kept as an independent cross-check of ``gradient``.
    """
    z, idx = _margins(spec, instance, y, u)
    if spec.thresholds is None:
        # enumerate the finitely many thresholds between the extreme cells
        c = np.floor(z / spec.delta)
        lo = int(min(c.min(), idx.min()))
        hi = int(max(c.max(), idx.max()))
        b = spec.delta * np.arange(lo + 1, hi + 1, dtype=float)
        yij = np.where(idx[:, None] >= np.arange(lo + 1, hi + 1)[None, :], 1.0, -1.0)
    else:
        b = spec.thresholds
        yij = np.where(idx[:, None] > np.arange(b.size)[None, :], 1.0, -1.0)
    sgn = np.where(z[:, None] - b[None, :] >= 0.0, 1.0, -1.0)
    coeff = (sgn - yij).sum(axis=1)
    return spec.delta / (2.0 * instance.m) * (instance.matrix.T @ coeff)


def clipped_gradient(spec: QuantizerSpec, instance: SensingInstance, u, v) -> np.ndarray:
    """Gradient with per-row transfer clipped to a single level step.

    Rows where ``u`` and ``v`` quantize identically drop out; every other row
    contributes ``Delta * sign(<a_i, u - v>) a_i / m`` regardless of how many
    levels apart the two quantized values are. Coincides with the plain
    two-point gradient whenever no row jumps more than one level (always, for
    one-bit quantizers).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (instance.n,) or v.shape != (instance.n,):
        raise ValueError("u and v must both have shape (n,)")
    zu = _forward(instance.matrix, u) - instance.dither
    zv = _forward(instance.matrix, v) - instance.dither
    changed = quantize_vec(spec, zu) != quantize_vec(spec, zv)
    d = spec.delta * np.sign(zu - zv) * changed
    return _adjoint(instance.matrix, d) / instance.m


def pgd_recover(
    config: PgdConfig,
    model: SignalModel,
    spec: QuantizerSpec,
    instance: SensingInstance,
    y,
    truth=None,
) -> PgdResult:
    """Run the projected gradient iteration from the configured start.

    Each step moves against the loss subgradient with step size ``eta`` and
    re-projects onto the structure set and then the norm annulus. Pass
    ``truth`` to have per-iterate l2 errors recorded.

    The loop stops once an iterate equals, bit for bit, a checkpoint iterate
    taken at the last power-of-two iteration (Brent's cycle check), which
    catches fixed points and cycles of any period.  The remaining errors are
    copied from the cycle and ``(iterations - t) % period`` more steps reach
    the last iterate, so ``estimate`` and ``errors`` equal those of all
    ``config.iterations`` steps bit for bit; the extra memory is one iterate.
    """
    if model.ambient_dim != instance.n:
        raise ValueError(f"model dimension {model.ambient_dim} does not match instance n={instance.n}")
    y = np.asarray(y, dtype=float)
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (instance.n,):
            raise ValueError(f"truth shape {truth.shape} does not match n={instance.n}")

    if isinstance(config.init, ZeroInit):
        x = np.zeros(instance.n)
    elif isinstance(config.init, RandomInit):
        x = random_in_model(model, config.init.seed)
    else:
        x = np.asarray(config.init.vector, dtype=float)
        if x.shape != (instance.n,):
            raise ValueError(f"init vector shape {x.shape} does not match n={instance.n}")
        nrm = np.linalg.norm(x)
        tol = 1e-9 * max(1.0, nrm)
        if np.linalg.norm(project_structure(model, x) - x) > tol:
            raise ValueError("init vector does not lie in the structure set")
        if not (model.alpha - tol <= nrm <= model.beta + tol):
            raise ValueError(f"init vector norm {nrm} outside [{model.alpha}, {model.beta}]")
        x = x.copy()

    def step(u):
        return project_model(model, u - config.eta * gradient(spec, instance, y, u))

    # the checkpoint is the start, then the iterate of each power-of-two t;
    # once x_t repeats it, x_mark .. x_t recur until the end
    total = config.iterations
    errors = np.empty(total) if truth is not None else None
    mark, mark_at = x.tobytes(), 0
    for t in range(1, total + 1):
        x = step(x)
        if errors is not None:
            errors[t - 1] = np.linalg.norm(x - truth)
        if x.tobytes() == mark:
            if errors is not None:
                errors[t:] = np.resize(errors[mark_at:t], total - t)
            for _ in range((total - t) % (t - mark_at)):
                x = step(x)
            break
        if t & (t - 1) == 0:
            mark, mark_at = x.tobytes(), t
    return PgdResult(estimate=x, errors=errors)


def default_step_size(family: Family, lam: float | None = None) -> float:
    """Theorem-backed step size per family.

    One-bit Gaussian: ``sqrt(pi/2)``. Dithered one-bit: ``lam`` (the dither
    level). Dithered multi-bit: ``1``. The matching initializations (random
    model member for one-bit Gaussian, zero otherwise) live in the harness's
    family setup.
    """
    if family is Family.ONE_BIT_GAUSSIAN:
        return math.sqrt(math.pi / 2.0)
    if family is Family.DITHERED_ONE_BIT:
        if lam is None or not (math.isfinite(lam) and lam > 0):
            raise ValueError("dithered one-bit needs a positive dither level lam")
        return float(lam)
    if family is Family.DITHERED_MULTI_BIT:
        return 1.0
    raise ValueError(f"unknown family {family!r}")


def raic_residual(
    model: SignalModel,
    spec: QuantizerSpec,
    instance: SensingInstance,
    eta: float,
    phi: float,
    u,
    v,
) -> float:
    """Restricted dual norm of ``u - v - eta * h(u, v)``.

    ``h(u, v) = (1/m) A^T (Q(Au - tau) - Q(Av - tau))`` is the two-point
    gradient; a small residual uniformly over model pairs is exactly the
    approximate-invertibility property that drives convergence proofs.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    h = gradient(spec, instance, measure(instance, spec, v), u)
    return restricted_dual_norm(model, u - v - eta * h, phi)
