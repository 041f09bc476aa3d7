"""Measurement-scaling experiments: grids, trials, CSV/SVG reporting.

A plan fixes one measurement family, one signal model, and a grid of
measurement counts; each grid cell runs independent trials of
draw-measure-recover and reports the mean recovery error with its standard
error.  Trial seeds are derived from ``(master_seed, cell, trial)``, and
every random object inside a trial comes from its own purpose-tagged
stream, so results are bit-identical across reruns and thread counts.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .pgd import Family, PgdConfig, RandomInit, ZeroInit, default_step_size, pgd_recover
from .quantizers import QuantizerSpec, make_saturated, make_sign
from .rng import derive_seed
from .sensing import Dither, MatrixKind, corrupt, measure, sample_instance
from .signals import L1Ball, LowRank, SignalModel, Sparse, gen_signal

__all__ = [
    "DeltaRule",
    "ExperimentPlan",
    "TrialRecord",
    "CellStats",
    "ExperimentResult",
    "FamilySetup",
    "family_setup",
    "run_trial",
    "run_experiment",
    "SlopeFit",
    "fit_slope",
    "emit_csv",
    "emit_svg_loglog",
    "plan_from_json",
    "CSV_COLUMNS",
    "PLAN_COST_CAP",
]

CSV_COLUMNS = "family,n,k_or_r,m,L,delta,lambda,zeta,trials,mean_err,stderr,slope_group"

# largest admissible plan cost, the sum of m * n * trials * iterations over the grid
PLAN_COST_CAP = 400_000_000_000


@dataclass(frozen=True)
class DeltaRule:
    """Cell width for multi-bit runs: fixed, or the budget rule ``5 / L``."""

    rule: str  # "fixed" or "five_over_l"
    delta: float | None = None

    def __post_init__(self):
        if self.rule not in ("fixed", "five_over_l"):
            raise ValueError(f"unknown delta rule {self.rule!r}")
        if self.rule == "fixed":
            if self.delta is None or not (math.isfinite(self.delta) and self.delta > 0):
                raise ValueError("fixed delta rule needs a positive delta")
        elif self.delta is not None:
            raise ValueError("five_over_l takes no delta parameter")

    def resolve(self, levels: int) -> float:
        return float(self.delta) if self.rule == "fixed" else 5.0 / levels


@dataclass(frozen=True)
class ExperimentPlan:
    family: Family
    model: SignalModel
    m_grid: tuple[int, ...]
    L: int | None = None
    delta_rule: DeltaRule | None = None
    lam: float | None = None
    trials: int = 50
    iterations: int = 100
    master_seed: int = 0
    corruption_zeta: float = 0.0

    def __post_init__(self):
        grid = tuple(int(m) for m in self.m_grid)
        if len(grid) == 0 or any(m < 1 for m in grid):
            raise ValueError("m_grid must be a non-empty list of positive ints")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        object.__setattr__(self, "m_grid", grid)
        if self.trials < 1 or self.iterations < 1:
            raise ValueError("trials and iterations must be >= 1")
        if not 0.0 <= self.corruption_zeta <= 1.0:
            raise ValueError(f"corruption_zeta must lie in [0, 1], got {self.corruption_zeta}")
        a, b = self.model.alpha, self.model.beta
        if self.family is Family.ONE_BIT_GAUSSIAN:
            if self.lam is not None or self.L is not None or self.delta_rule is not None:
                raise ValueError("one_bit_gaussian takes no lambda, L, or delta rule")
            if not (a == b == 1.0):
                raise ValueError("one_bit_gaussian recovers directions only: need alpha = beta = 1")
        elif self.family is Family.DITHERED_ONE_BIT:
            if self.lam is None or not (math.isfinite(self.lam) and self.lam > 0):
                raise ValueError("dithered_one_bit needs a positive dither level lambda")
            if self.L is not None or self.delta_rule is not None:
                raise ValueError("dithered_one_bit takes no L or delta rule")
            if not (a == 0.0 and b == 1.0):
                raise ValueError("dithered_one_bit expects the unit-ball model: (alpha, beta) = (0, 1)")
        elif self.family is Family.DITHERED_MULTI_BIT:
            if self.L is None or self.L < 2 or self.L % 2 != 0:
                raise ValueError("dithered_multi_bit needs an even level count L >= 2")
            if self.delta_rule is None:
                raise ValueError("dithered_multi_bit needs a delta rule")
            if self.lam is not None:
                raise ValueError("dithered_multi_bit derives its dither from delta; lambda not allowed")
            if not (a == 0.0 and b == 1.0):
                raise ValueError("dithered_multi_bit expects the unit-ball model: (alpha, beta) = (0, 1)")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        cost = sum(m * self.model.ambient_dim * self.trials * self.iterations for m in grid)
        if cost > PLAN_COST_CAP:
            raise ValueError(f"plan cost {cost} (sum of m*n*trials*iterations) exceeds the cap {PLAN_COST_CAP}")


@dataclass(frozen=True, eq=False)
class TrialRecord:
    m: int
    seed: int
    final_error: float
    per_iterate_errors: np.ndarray


@dataclass(frozen=True)
class CellStats:
    family: str
    n: int
    k_or_r: float
    m: int
    L: int
    delta: float
    lam: float
    zeta: float
    trials: int
    mean_err: float
    stderr: float
    slope_group: str


class ExperimentResult(NamedTuple):
    records: list
    cells: list


@dataclass(frozen=True)
class FamilySetup:
    """Concrete quantizer, ensemble, dither, and step rule for one family."""

    spec: QuantizerSpec
    matrix_kind: MatrixKind
    dither: Dither
    eta: float
    init: str  # "zero" or "random_in_model"


def family_setup(plan: ExperimentPlan) -> FamilySetup:
    if plan.family is Family.ONE_BIT_GAUSSIAN:
        eta = default_step_size(plan.family)
        return FamilySetup(make_sign(), MatrixKind.GAUSSIAN, Dither.zero(), eta, "random_in_model")
    if plan.family is Family.DITHERED_ONE_BIT:
        eta = default_step_size(plan.family, lam=plan.lam)
        return FamilySetup(make_sign(), MatrixKind.RADEMACHER, Dither.uniform(plan.lam), eta, "zero")
    eta = default_step_size(plan.family)
    delta = plan.delta_rule.resolve(plan.L)
    return FamilySetup(
        make_saturated(delta, plan.L),
        MatrixKind.RADEMACHER,
        Dither.uniform(delta / 2.0),
        eta,
        "zero",
    )


def _k_or_r(model: SignalModel) -> float:
    s = model.structure
    if isinstance(s, Sparse):
        return float(s.k)
    if isinstance(s, LowRank):
        return float(s.r)
    return float(s.radius * s.radius)


def _slope_group(family: str, k_or_r: float, levels: int) -> str:
    return f"{family}:k_or_r={k_or_r:.12g}:L={levels}"


def run_trial(plan: ExperimentPlan, cell: int, trial: int) -> TrialRecord:
    """Draw, measure, corrupt and recover trial ``trial`` of grid cell ``cell``.

    Every random object comes from ``derive_seed(plan.master_seed, cell, trial)``,
    so a trial's record depends only on the plan and its two indices.
    """
    setup = family_setup(plan)
    seed = derive_seed(plan.master_seed, cell, trial)
    m = plan.m_grid[cell]
    n = plan.model.ambient_dim
    x = gen_signal(plan.model, seed)
    inst = sample_instance(setup.matrix_kind, setup.dither, m, n, seed)
    y = measure(inst, setup.spec, x)
    if plan.corruption_zeta > 0.0:
        y = corrupt(y, setup.spec, plan.corruption_zeta, seed)
    init = RandomInit(seed) if setup.init == "random_in_model" else ZeroInit()
    config = PgdConfig(eta=setup.eta, iterations=plan.iterations, init=init)
    res = pgd_recover(config, plan.model, setup.spec, inst, y, truth=x)
    return TrialRecord(
        m=m,
        seed=seed,
        final_error=float(np.linalg.norm(res.estimate - x)),
        per_iterate_errors=res.errors,
    )


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Run every (cell, trial) of the plan and aggregate per cell.

    Trials are independent and may run on several threads; records come back
    sorted by (cell, trial) and all randomness is keyed by indices, so the
    output is bit-identical for any ``threads``.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    tasks = [(ci, ti) for ci in range(len(plan.m_grid)) for ti in range(plan.trials)]
    if threads == 1:
        records = [run_trial(plan, ci, ti) for ci, ti in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda t: run_trial(plan, *t), tasks))
    setup = family_setup(plan)
    family = plan.family.value
    k_or_r = _k_or_r(plan.model)
    cells = []
    for ci, m in enumerate(plan.m_grid):
        errs = np.array([r.final_error for r in records[ci * plan.trials : (ci + 1) * plan.trials]])
        mean = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        cells.append(
            CellStats(
                family=family,
                n=plan.model.ambient_dim,
                k_or_r=k_or_r,
                m=m,
                L=setup.spec.levels,
                delta=setup.spec.delta,
                lam=setup.dither.level,
                zeta=plan.corruption_zeta,
                trials=plan.trials,
                mean_err=mean,
                stderr=stderr,
                slope_group=_slope_group(family, k_or_r, setup.spec.levels),
            )
        )
    return ExperimentResult(records=records, cells=cells)


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def fit_slope(points: Iterable[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of ``log10(err)`` against ``log10(m)``.

    Returns ``(slope, intercept, r2)``; a perfectly flat or perfectly linear
    set of points has ``r2 = 1`` by the zero-residual convention.
    """
    pts = [(float(m), float(e)) for m, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(m <= 0 or e <= 0 for m, e in pts):
        raise ValueError("slope fit needs positive measurement counts and errors")
    lx = np.log10([m for m, _ in pts])
    ly = np.log10([e for _, e in pts])
    if np.ptp(lx) == 0.0:
        raise ValueError("all measurement counts coincide; slope undefined")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def emit_csv(cells: Iterable[CellStats], path: str) -> None:
    """Write per-cell aggregates as CSV with a fixed column set.

    Output bytes depend only on the cell values, so identical runs produce
    identical files.
    """
    lines = [CSV_COLUMNS]
    for c in cells:
        lines.append(
            ",".join(
                [
                    c.family,
                    str(c.n),
                    _fmt(c.k_or_r),
                    str(c.m),
                    str(c.L),
                    _fmt(c.delta),
                    _fmt(c.lam),
                    _fmt(c.zeta),
                    str(c.trials),
                    _fmt(c.mean_err),
                    _fmt(c.stderr),
                    c.slope_group,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_svg_loglog(cells: Iterable[CellStats], path: str, title: str = "mean recovery error vs m") -> None:
    """Render cell aggregates as a log-log SVG scatter with per-group lines.

    One polyline per ``slope_group``, decade gridlines, fixed palette and
    fixed float formatting; the same cells always produce the same bytes.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("nothing to plot")
    if any(c.mean_err <= 0 for c in cells):
        raise ValueError("log-log plot needs positive mean errors")
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 55.0
    xs = np.log10([c.m for c in cells])
    ys = np.log10([c.mean_err for c in cells])
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    xpad = 0.05 * max(xmax - xmin, 0.2)
    ypad = 0.05 * max(ymax - ymin, 0.2)
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

    def sx(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * (width - left - right)

    def sy(v: float) -> float:
        return height - bottom - (v - ymin) / (ymax - ymin) * (height - top - bottom)

    groups: dict[str, list[CellStats]] = {}
    for c in cells:
        groups.setdefault(c.slope_group, []).append(c)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]
    axis = (
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black"/>'
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{height - bottom:.2f}" stroke="black"/>'
    )
    out.append(axis)

    def ticks(lo: float, hi: float) -> list[float]:
        decades = [float(t) for t in range(math.ceil(lo), math.floor(hi) + 1)]
        if len(decades) >= 2:
            return decades
        return [lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)]

    for t in ticks(xmin, xmax):
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{height - bottom:.2f}" x2="{x:.2f}" y2="{top:.2f}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{x:.2f}" y="{height - bottom + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{10 ** t:.3g}</text>'
        )
    for t in ticks(ymin, ymax):
        yy = sy(t)
        out.append(f'<line x1="{left:.2f}" y1="{yy:.2f}" x2="{width - right:.2f}" y2="{yy:.2f}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{left - 8:.2f}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{10 ** t:.3g}</text>'
        )
    out.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">measurements m (log scale)</text>'
    )
    out.append(
        f'<text x="16" y="{(top + height - bottom) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.2f})">mean error (log scale)</text>'
    )
    for gi, (name, gc) in enumerate(groups.items()):
        color = _PALETTE[gi % len(_PALETTE)]
        gc = sorted(gc, key=lambda c: c.m)
        coords = " ".join(f"{sx(math.log10(c.m)):.2f},{sy(math.log10(c.mean_err)):.2f}" for c in gc)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for c in gc:
            out.append(
                f'<circle cx="{sx(math.log10(c.m)):.2f}" cy="{sy(math.log10(c.mean_err)):.2f}" '
                f'r="3" fill="{color}"/>'
            )
        out.append(
            f'<text x="{width - right - 4:.2f}" y="{top + 14 + 14 * gi:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{where} is missing required keys: {sorted(missing)}")


def _int(value, what: str) -> int:
    """``value`` if it is a JSON integer; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _model_from_json(obj: dict) -> SignalModel:
    if not isinstance(obj, dict):
        raise ValueError("model must be an object")
    kind = obj.get("structure")
    if kind == "sparse":
        keys = {"structure", "n", "k", "alpha", "beta"}
        _require_keys(obj, keys, keys, "model")
        structure = Sparse(k=_int(obj["k"], "model k"), n=_int(obj["n"], "model n"))
    elif kind == "low_rank":
        keys = {"structure", "n1", "n2", "r", "alpha", "beta"}
        _require_keys(obj, keys, keys, "model")
        structure = LowRank(r=_int(obj["r"], "model r"), n1=_int(obj["n1"], "model n1"), n2=_int(obj["n2"], "model n2"))
    elif kind == "l1_ball":
        keys = {"structure", "n", "radius", "alpha", "beta"}
        _require_keys(obj, keys, keys, "model")
        structure = L1Ball(radius=_number(obj["radius"], "model radius"), n=_int(obj["n"], "model n"))
    else:
        raise ValueError(f"unknown structure {kind!r}")
    return SignalModel(structure=structure, alpha=_number(obj["alpha"], "model alpha"), beta=_number(obj["beta"], "model beta"))


def plan_from_json(text: str) -> ExperimentPlan:
    """Parse a plan from its JSON form, rejecting unknown keys and mistyped values."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("plan must be a JSON object")
    allowed = {
        "family",
        "model",
        "m_grid",
        "L",
        "delta_rule",
        "lambda",
        "trials",
        "iterations",
        "master_seed",
        "corruption_zeta",
    }
    _require_keys(obj, allowed, {"family", "model", "m_grid"}, "plan")
    try:
        family = Family(obj["family"])
    except ValueError:
        raise ValueError(f"unknown family {obj['family']!r}") from None
    if not isinstance(obj["m_grid"], list):
        raise ValueError(f"m_grid must be a list, got {obj['m_grid']!r}")
    rule = None
    if obj.get("delta_rule") is not None:
        robj = obj["delta_rule"]
        if not isinstance(robj, dict):
            raise ValueError("delta_rule must be an object")
        _require_keys(robj, {"rule", "delta"}, set(), "delta_rule")
        delta = _number(robj["delta"], "delta_rule delta") if robj.get("delta") is not None else None
        rule = DeltaRule(rule=robj.get("rule", ""), delta=delta)
    kwargs = {}
    for key in ("trials", "iterations", "master_seed"):
        if key in obj:
            kwargs[key] = _int(obj[key], key)
    if "corruption_zeta" in obj:
        kwargs["corruption_zeta"] = _number(obj["corruption_zeta"], "corruption_zeta")
    return ExperimentPlan(
        family=family,
        model=_model_from_json(obj["model"]),
        m_grid=tuple(_int(m, "m_grid entry") for m in obj["m_grid"]),
        L=_int(obj["L"], "L") if obj.get("L") is not None else None,
        delta_rule=rule,
        lam=_number(obj["lambda"], "lambda") if obj.get("lambda") is not None else None,
        **kwargs,
    )
