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

A step is a fixed function of the iterate's bits, so a decode stops as soon
as an iterate repeats an earlier one bit for bit: a consistent iterate
(``d = 0``, zero gradient) is a fixed point, and renormalization drift or
multi-bit rows can close cycles of period 2 or more.  The rest of the run is
then a replay, so the per-iterate errors are copied forward and a few more
steps land on the final iterate: the outputs are those of the full loop, bit
for bit, and the check keeps two extra iterates in memory.

``pgd_recover`` decodes one measurement vector, its forward products from
``measure``.  ``pgd_recover_prefixes`` decodes several at once, each against
a row prefix of one instance, as the cells of a harness trial do: all of
them take each iteration together, and ``sensing._forward_prefixes`` reads
each block of the shared rows once per iteration for all of them.  One loop,
``_descend``, steps, stops and replays for both.

This module is the solver alone: the measurement map and the matrix products
live in ``quantcs.sensing``, the loss value and the other forms of its
gradient that cross-check this one in ``quantcs.verify``, and each family's
step size and start in ``quantcs.harness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizers import QuantizerSpec, quantize_vec
from .sensing import SensingInstance, _adjoint, _forward_prefixes, check_measurements, measure
from .signals import SignalModel, check_int, check_positive, project_model

__all__ = [
    "ERRORS_CAP",
    "PgdConfig",
    "PgdResult",
    "gradient",
    "pgd_recover",
    "pgd_recover_prefixes",
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
        check_positive(self.eta, "step size eta")
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
    y = check_measurements(instance, y)
    return _mean_adjoint(spec, instance.matrix, measure(instance, spec, u) - y)


def _mean_adjoint(spec: QuantizerSpec, matrix: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``(1/m) A^T d`` for the residual ``d`` of measurements in ``spec``'s levels."""
    m = matrix.shape[0]
    span = float(spec.level_values[-1]) - float(spec.level_values[0])
    # for y in the quantizer's levels each entry of A^T d is at most m * span * max|A_ij|,
    # so below this bound, which leaves 2**23 for max|A_ij|, it cannot overflow; past it,
    # the residuals are divided by m before the sum
    if m * span > 2.0**1000:
        return _adjoint(matrix, d / m)
    return _adjoint(matrix, d) / m


class _Descent:
    """One decode's iterate, its per-iterate errors and Brent's cycle check; ``advance`` takes each next iterate.

    The checkpoint is the start, then the iterate of each power-of-two t;
    once x_t repeats it, x_mark .. x_t recur until the end.  A fixed point
    (x_t equal to x_{t-1}) is caught at once by comparing with the last
    iterate.  ``left`` counts the steps still to take: the rest of the run,
    or, once a repeat is seen, the ``(total - t) % period`` steps of the
    replay that reach the last iterate.
    """

    def __init__(self, instance: SensingInstance, y: np.ndarray, start, truth, total: int):
        n = instance.n
        if truth is not None:
            truth = np.asarray(truth, dtype=float)
            if truth.shape != (n,):
                raise ValueError(f"truth shape {truth.shape} does not match n={n}")
        self.x = np.array(start, dtype=float)
        if self.x.shape != (n,):
            raise ValueError(f"start shape {self.x.shape} does not match n={n}")
        self.instance, self.y, self.truth, self.total = instance, y, truth, total
        self.errors = np.empty(total) if truth is not None else None
        self.left, self.replay = total, False
        self.mark, self.mark_at = self.x.tobytes(), 0
        self.last = self.mark

    def advance(self, x: np.ndarray) -> int:
        """Take the next iterate; return the count of steps still to take."""
        self.x = x
        self.left -= 1
        if self.replay:
            return self.left
        t = self.total - self.left
        key = x.tobytes()
        if self.errors is not None:
            self.errors[t - 1] = np.linalg.norm(x - self.truth)
        if key == self.last:
            self.mark, self.mark_at = key, t - 1
        if key == self.mark:
            if self.errors is not None:
                self.errors[t:] = np.resize(self.errors[self.mark_at : t], self.left)
            self.left, self.replay = self.left % (t - self.mark_at), True
        elif t & (t - 1) == 0:
            self.mark, self.mark_at = key, t
        self.last = key
        return self.left

    def result(self) -> PgdResult:
        return PgdResult(estimate=self.x, errors=self.errors)


def _descend(runs: list[_Descent], step) -> list[PgdResult]:
    """Advance every run by ``step``, which maps the runs still going to their next iterates, until each is done."""
    live = runs
    while live:
        live = [run for run, x in zip(live, step(live)) if run.advance(x)]
    return [r.result() for r in runs]


def _check_dim(model: SignalModel, instance: SensingInstance) -> None:
    if model.ambient_dim != instance.n:
        raise ValueError(f"model dimension {model.ambient_dim} does not match instance n={instance.n}")


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

    Each step's products are ``gradient``'s, on this instance alone: the
    forward one is ``sensing._forward``'s, whose one-shot float64 product may
    move in the last bit with the BLAS thread count.
    """
    _check_dim(model, instance)
    run = _Descent(instance, np.asarray(y, dtype=float), start, truth, config.iterations)

    def step(live):
        return [project_model(model, run.x - config.eta * gradient(spec, instance, run.y, run.x))]

    return _descend([run], step)[0]


def pgd_recover_prefixes(
    config: PgdConfig,
    model: SignalModel,
    spec: QuantizerSpec,
    instance: SensingInstance,
    cells,
) -> list[PgdResult]:
    """``pgd_recover`` of each cell ``(m, y, start, truth)`` on the first ``m`` rows of ``instance``, in lockstep.

    Every cell takes each iteration together with the others still running,
    and the forward products of an iteration come from one pass of
    ``sensing._forward_prefixes`` over the rows they share; a cell that stops
    early (a fixed point or a cycle) takes its replay steps with the rest and
    then drops out.  Each step is ``pgd_recover``'s step on that cell's
    prefix, so on one BLAS thread every result equals, bit for bit, that of
    ``pgd_recover(config, model, spec, prefix, y, start, truth)``; on more
    threads it keeps its bits, where ``pgd_recover``'s may move in the last
    bit.  ``truth`` may be None, as in ``pgd_recover``.
    """
    _check_dim(model, instance)
    runs = []
    for m, y, start, truth in cells:
        if not 1 <= m <= instance.m:
            raise ValueError(f"cell m={m} is not a row prefix of an instance of m={instance.m}")
        prefix = SensingInstance(matrix=instance.matrix[:m], dither=instance.dither[:m])
        runs.append(_Descent(prefix, check_measurements(prefix, y), start, truth, config.iterations))

    def step(live):
        products = _forward_prefixes(instance.matrix, [(r.instance.m, r.x) for r in live])
        out = []
        for r, z in zip(live, products):
            d = quantize_vec(spec, z - r.instance.dither) - r.y
            out.append(project_model(model, r.x - config.eta * _mean_adjoint(spec, r.instance.matrix, d)))
        return out

    return _descend(runs, step)
