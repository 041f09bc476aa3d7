"""Projected gradient descent on the one-sided l1 loss.

With measurements ``y_i = Q(<a_i, x> - tau_i)`` the loss at ``u`` is

    L(u) = (Delta / m) * sum_i sum_j max(-y_ij (<a_i, u> - tau_i - b_j), 0),

where ``b_j`` are the quantizer thresholds and ``y_ij`` is the sign of
``<a_i, x> - tau_i - b_j`` implied by ``y_i``.  Its subgradient collapses to
``(1/m) A^T (Q(Au - tau) - y)``, so one iteration costs two matrix-vector
products; the recovery iteration alternates a gradient step with the
two-stage model projection.  On the sphere with the sign quantizer this is
exactly normalized binary iterative hard thresholding.
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
    d = quantize_vec(spec, instance.matrix @ u - instance.dither) - y
    return instance.matrix.T @ d / instance.m


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
    zu = instance.matrix @ u - instance.dither
    zv = instance.matrix @ v - instance.dither
    changed = quantize_vec(spec, zu) != quantize_vec(spec, zv)
    d = spec.delta * np.sign(zu - zv) * changed
    return instance.matrix.T @ d / instance.m


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

    errors = np.empty(config.iterations) if truth is not None else None
    for t in range(config.iterations):
        x = project_model(model, x - config.eta * gradient(spec, instance, y, x))
        if errors is not None:
            errors[t] = np.linalg.norm(x - truth)
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
