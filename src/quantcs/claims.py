"""The paper's experiment-backed acceptance criteria: each claim's plans and its gate.

Every plan runs at ``MASTER``, so every number a gate reports is reproducible
bit for bit.  ``check_claim`` runs a claim's plans and hands its gate their
cells, one list per plan; the gate returns whether the claim holds and a
one-line summary of the measured numbers.  A new criterion is one ``Claim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .harness import CellStats, ExperimentPlan, Family, fit_slope, run_experiment
from .signals import L1Ball, LowRank, SignalModel, Sparse

__all__ = ["MASTER", "Claim", "CLAIMS", "check_claim"]

MASTER = 20260814


@dataclass(frozen=True)
class Claim:
    id: str
    name: str
    plans: tuple[ExperimentPlan, ...]
    gate: Callable[[list[list[CellStats]]], tuple[bool, str]]


def check_claim(claim: Claim) -> tuple[bool, str]:
    """``(passed, summary)`` of the claim's gate on the cells of its plans."""
    return claim.gate([run_experiment(plan).cells for plan in claim.plans])


def _plan(model: SignalModel, m_grid, family: Family = Family.ONE_BIT_GAUSSIAN, **kw) -> ExperimentPlan:
    return ExperimentPlan(family, model, tuple(m_grid), master_seed=MASTER, **kw)


def _means(cells) -> list[float]:
    """The mean error of each one-cell plan."""
    return [plan_cells[0].mean_err for plan_cells in cells]


def _gap(a: float, b: float) -> float:
    return abs(a - b) / max(a, b)


def _decay(lo: float, hi: float, r2: bool = False):
    """A gate: the slope of log mean error against log m over the first plan's grid lies in ``[lo, hi]``."""

    def gate(cells):
        fit = fit_slope([(c.m, c.mean_err) for c in cells[0]])
        return lo <= fit.slope <= hi, f"slope {fit.slope:.3f} in [{lo}, {hi}]" + (f" (r2 {fit.r2:.3f})" if r2 else "")

    return gate


def _co_scaling(cells):
    a, b, c, d = _means(cells)
    sparse, low_rank = _gap(a, b), _gap(c, d)
    return sparse <= 0.25 and low_rank <= 0.25, (
        f"sparse (3,400)={a:.4f} vs (6,800)={b:.4f} gap {sparse:.1%}; "
        f"low-rank (1,600)={c:.4f} vs (2,1200)={d:.4f} gap {low_rank:.1%}; both <= 25%"
    )


def _dithered_decay(cells):
    ok, summary = _decay(-1.25, -0.75)(cells)
    wide, narrow = _means(cells[1:])
    return ok and narrow > wide, f"{summary}; lam=0.8 error {narrow:.4f} > lam=1.5 error {wide:.4f} at m=1600"


def _bit_budget(cells):
    a, b, c = _means(cells)
    gap = _gap(a, b)
    return gap <= 0.30 and c > a, (
        f"(L,m)=(4,200)={a:.4f} vs (8,100)={b:.4f} gap {gap:.1%} <= 30%; (32,25)={c:.4f} > (4,200)={a:.4f}"
    )


ZETAS = (0.0, 0.02, 0.05, 0.1)


def _corruption(cells):
    errs = _means(cells)
    monotone = all(e2 >= e1 for e1, e2 in zip(errs, errs[1:]))
    bounded = errs[2] < errs[0] + 0.5
    return monotone and bounded, (
        "errors " + " ".join(f"{z}:{e:.4f}" for z, e in zip(ZETAS, errs))
        + f"; non-decreasing {monotone}; err(0.05) < err(0) + 0.5 {bounded}"
    )


SPHERE = SignalModel(Sparse(k=3, n=500), 1.0, 1.0)  # one-bit measurements recover directions only
BALL = SignalModel(Sparse(k=3, n=500), 0.0, 1.0)  # the dithered families' unit ball

CLAIMS = (
    Claim("01", "one-bit sparse decay", (_plan(SPHERE, range(400, 1201, 200)),), _decay(-1.25, -0.75)),
    Claim(
        "02",
        "co-scaling",
        (
            _plan(SPHERE, [400]),
            _plan(SignalModel(Sparse(k=6, n=500), 1.0, 1.0), [800]),
            _plan(SignalModel(LowRank(r=1, n1=25, n2=25), 1.0, 1.0), [600]),
            _plan(SignalModel(LowRank(r=2, n1=25, n2=25), 1.0, 1.0), [1200]),
        ),
        _co_scaling,
    ),
    # the grid sits past the small-m transient, where the error follows the 1/m law
    Claim(
        "03",
        "dithered one-bit decay",
        (
            _plan(BALL, (3200, 4000, 4800, 5600), Family.DITHERED_ONE_BIT, lam=1.5, trials=200),
            _plan(BALL, [1600], Family.DITHERED_ONE_BIT, lam=1.5),
            _plan(BALL, [1600], Family.DITHERED_ONE_BIT, lam=0.8),
        ),
        _dithered_decay,
    ),
    Claim(
        "04",
        "bit budget",
        tuple(_plan(BALL, [m], Family.DITHERED_MULTI_BIT, L=L) for L, m in ((4, 200), (8, 100), (32, 25))),
        _bit_budget,
    ),
    Claim(
        "05",
        "effectively sparse decay",
        (_plan(SignalModel(L1Ball(radius=math.sqrt(10), n=300), 1.0, 1.0), range(800, 2401, 400), trials=400),),
        _decay(-1.0, -0.33, r2=True),
    ),
    Claim("10", "corruption robustness", tuple(_plan(SPHERE, [1200], corruption_zeta=z) for z in ZETAS), _corruption),
)
