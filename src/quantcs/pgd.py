"""Projected gradient descent on the one-sided l1 loss.

With measurements ``y_i = Q(<a_i, x> - tau_i)`` the loss at ``u`` is

    L(u) = (Delta / m) * sum_i sum_j max(-y_ij (<a_i, u> - tau_i - b_j), 0),

where ``b_j`` are the quantizer thresholds and ``y_ij`` is the sign of
``<a_i, x> - tau_i - b_j`` implied by ``y_i``.  Its subgradient collapses to
``(1/m) A^T d`` with ``d = measure(u) - y``, by the map that made ``y``.  Its
products (``sensing._forward`` in ``measure``, and ``_adjoint``) take only the
support columns of ``u`` and the rows where ``d`` is nonzero, so one iteration
costs ``O(m nnz(u) + nnz(d) n)`` when those are few and ``O(mn)`` otherwise;
the recovery iteration alternates a gradient step with the two-stage model
projection.  On the sphere with the sign quantizer this is exactly
normalized binary iterative hard thresholding.

A step is a fixed function of the iterate's bits, so ``pgd_recover`` stops as
soon as an iterate repeats an earlier one bit for bit: a consistent iterate
(``d = 0``, zero gradient) is a fixed point, and renormalization drift or
multi-bit rows can close cycles of period 2 or more.  The rest of the run is
then a replay, so the per-iterate errors are copied forward and a few more
steps land on the final iterate: the outputs are those of the full loop, bit
for bit, and the check keeps two extra iterates in memory.

This module is the solver alone: the measurement map and the matrix products
live in ``quantcs.sensing``, the loss value and the other forms of its
gradient that cross-check this one in ``quantcs.verify``, and each family's
step size and start in ``quantcs.harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec
from .sensing import SensingInstance, _adjoint, measure
from .signals import SignalModel, check_int, check_real, project_model

__all__ = [
    "ERRORS_CAP",
    "PgdConfig",
    "PgdResult",
    "gradient",
    "pgd_recover",
]


# largest admissible count of stored errors: 1 GiB of float64.  A run with a
# ground truth keeps one error per iteration, so this caps the iterations of a
# run; the harness caps by it the final errors a plan's run keeps, one per
# cell and trial, len(m_grid) * trials
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


def gradient(spec: QuantizerSpec, instance: SensingInstance, y, u) -> np.ndarray:
    """Subgradient ``(1/m) A^T (measure(u) - y)`` of the one-sided loss: zero at every ``u`` consistent with ``y``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (instance.m,):
        raise ValueError(f"measurement shape {y.shape} does not match m={instance.m}")
    d, m = measure(instance, spec, u) - y, instance.m
    span = float(spec.level_values[-1]) - float(spec.level_values[0])
    # for y in the quantizer's levels each entry of A^T d is at most m * span * max|A_ij|,
    # so below this bound, which leaves 2**23 for max|A_ij|, it cannot overflow; past it,
    # the residuals are divided by m before the sum
    if m * span > 2.0**1000:
        return _adjoint(instance.matrix, d / m)
    return _adjoint(instance.matrix, d) / m


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
