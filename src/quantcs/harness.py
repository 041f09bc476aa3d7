"""Measurement-scaling experiments: grids, trials, CSV/SVG reporting.

A plan fixes one measurement family, one signal model, and a grid of
measurement counts; each grid cell runs independent trials of
draw-measure-recover and reports the mean recovery error with its standard
error.  Trial ``t`` has the seed ``derive_seed(master_seed, 0, t)``, and
every random object inside it comes from its own purpose-tagged stream.
Every cell of the trial sees the same signal and start, and the trial's
sensing matrix is drawn once, at the grid's largest ``m``: cell ``c``
decodes its first ``m_grid[c]`` rows and dithers, which are bit for bit a
fresh ``m_grid[c]``-row draw from the same seed.  So a cell's numbers depend
on its ``m``, the trial count and the seed alone, not on the rest of the
grid, and results are bit-identical across reruns and thread counts.
"""

from __future__ import annotations

import enum
import json
import math
import mmap
import threading
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .pgd import ERRORS_CAP, PgdConfig, PgdResult, pgd_recover
from .quantizers import QuantizerSpec, make_saturated, make_sign
from .rng import SEED_PART_BOUND, derive_seed
from .sensing import MatrixKind, SensingInstance, corrupt, measure, sample_instance
from .signals import L1Ball, LowRank, SignalModel, Sparse, check_int, check_l1_ball_draw, check_real, gen_signal, random_in_model

__all__ = [
    "Family",
    "ExperimentPlan",
    "TrialRecord",
    "CellStats",
    "ExperimentResult",
    "FamilySetup",
    "draw_trial",
    "run_trial",
    "run_experiment",
    "SlopeFit",
    "fit_slope",
    "emit_csv",
    "emit_svg_loglog",
    "plan_from_json",
    "CSV_COLUMNS",
    "PLAN_COST_CAP",
    "MATRIX_ENTRIES_CAP",
    "ERRORS_CAP",
    "LEVELS_CAP",
    "THREADS_CAP",
]

CSV_COLUMNS = "family,n,k_or_r,m,L,delta,lambda,zeta,trials,mean_err,stderr,slope_group"

# largest admissible plan cost, the sum of m * n * trials * iterations over the grid
PLAN_COST_CAP = 400_000_000_000
# largest admissible sensing matrix m * n over the grid: 1 GiB as a float64
# Gaussian matrix, 128 MiB as a one-byte Rademacher one, 48x the 5600 x 500
# matrix of the largest acceptance plan; it also bounds the n-float signal,
# since m >= 1
MATRIX_ENTRIES_CAP = 2**27
# largest admissible multi-bit level count L: a quantizer stores its L - 1
# thresholds and L levels, so this keeps them under 1 MB (16 bits per
# measurement; the paper's bit budgets use L <= 32)
LEVELS_CAP = 2**16
# largest admissible worker thread count: the pool starts a thread per task
# submitted until it holds this many, so a huge count would start that many
THREADS_CAP = 64


class Family(enum.Enum):
    """The three named measurement configurations."""

    ONE_BIT_GAUSSIAN = "one_bit_gaussian"
    DITHERED_ONE_BIT = "dithered_one_bit"
    DITHERED_MULTI_BIT = "dithered_multi_bit"


@dataclass(frozen=True)
class FamilySetup:
    """A family's quantizer, ensemble, dither level and PGD step (``sqrt(pi/2)``, ``lam`` or ``1``, in ``Family`` order)."""

    spec: QuantizerSpec
    matrix_kind: MatrixKind
    dither: float
    eta: float


@dataclass(frozen=True)
class ExperimentPlan:
    """A family, model and ``m`` grid; it checks what no builder checks and builds its ``FamilySetup`` once.

    Every draw, decode, CSV and plot of the plan reads that ``setup``; it takes
    no part in ``==``, ``hash`` or ``repr``, and ``dataclasses.replace`` builds it afresh.
    """

    family: Family
    model: SignalModel
    m_grid: tuple[int, ...]
    L: int | None = None
    delta: float | None = None  # multi-bit cell width; None is the budget rule 5 / L
    lam: float | None = None
    trials: int = 50
    iterations: int = 100
    master_seed: int = 0
    corruption_zeta: float = 0.0
    setup: FamilySetup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = tuple(check_int(m, "m_grid entry") for m in self.m_grid)
        if len(grid) == 0 or any(m < 1 for m in grid):
            raise ValueError("m_grid must be a non-empty list of positive ints")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        object.__setattr__(self, "m_grid", grid)
        if check_int(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not -SEED_PART_BOUND <= check_int(self.master_seed, "master_seed") < SEED_PART_BOUND:
            raise ValueError(f"master_seed must lie in [-2**127, 2**127), got {self.master_seed}")
        if not 0.0 <= check_real(self.corruption_zeta, "corruption_zeta") <= 1.0:
            raise ValueError(f"corruption_zeta must lie in [0, 1], got {self.corruption_zeta}")
        object.__setattr__(self, "setup", _family(self))
        check_l1_ball_draw(self.model)  # so that no l1-ball plan fails at its first draw
        PgdConfig(eta=self.setup.eta, iterations=self.iterations)
        n = self.model.ambient_dim
        if grid[-1] * n > MATRIX_ENTRIES_CAP:
            raise ValueError(f"sensing matrix m x n = {grid[-1]} x {n} exceeds the cap of {MATRIX_ENTRIES_CAP} entries")
        cost = sum(m * n * self.trials * self.iterations for m in grid)
        if cost > PLAN_COST_CAP:
            raise ValueError(f"plan cost {cost} (sum of m*n*trials*iterations) exceeds the cap {PLAN_COST_CAP}")
        errors = len(grid) * self.trials  # a run keeps one final error per cell and trial
        if errors > ERRORS_CAP:
            raise ValueError(f"stored errors {errors} (len(m_grid)*trials) exceed the cap {ERRORS_CAP}")


def _family(plan: ExperimentPlan) -> FamilySetup:
    """Check the keys and (alpha, beta) the plan's family takes, then build its ``FamilySetup``."""
    a, b = plan.model.alpha, plan.model.beta
    if plan.family is Family.ONE_BIT_GAUSSIAN:
        if plan.lam is not None or plan.L is not None or plan.delta is not None:
            raise ValueError("one_bit_gaussian takes no lambda, L, or delta")
        if not (a == b == 1.0):
            raise ValueError("one_bit_gaussian recovers directions only: need alpha = beta = 1")
        return FamilySetup(make_sign(), MatrixKind.GAUSSIAN, 0.0, math.sqrt(math.pi / 2.0))
    if plan.family is Family.DITHERED_ONE_BIT:
        if plan.lam is None or not (math.isfinite(check_real(plan.lam, "lambda")) and plan.lam > 0):
            raise ValueError("dithered_one_bit needs a positive dither level lambda")
        if not math.isfinite(2.0 * plan.lam):  # the dither interval's width, as sample_instance checks it
            raise ValueError(f"dither level must be a real >= 0 with 2 * level finite, got {plan.lam}")
        if plan.L is not None or plan.delta is not None:
            raise ValueError("dithered_one_bit takes no L or delta")
        if not (a == 0.0 and b == 1.0):
            raise ValueError("dithered_one_bit expects the unit-ball model: (alpha, beta) = (0, 1)")
        return FamilySetup(make_sign(), MatrixKind.RADEMACHER, float(plan.lam), float(plan.lam))
    if plan.family is Family.DITHERED_MULTI_BIT:
        if plan.L is None or check_int(plan.L, "L") < 2 or plan.L % 2 != 0:
            raise ValueError("dithered_multi_bit needs an even level count L >= 2")
        if plan.L > LEVELS_CAP:  # before make_saturated builds L levels
            raise ValueError(f"level count L = {plan.L} exceeds the cap {LEVELS_CAP}")
        if plan.lam is not None:
            raise ValueError("dithered_multi_bit derives its dither from delta; lambda not allowed")
        if not (a == 0.0 and b == 1.0):
            raise ValueError("dithered_multi_bit expects the unit-ball model: (alpha, beta) = (0, 1)")
        delta = 5.0 / plan.L if plan.delta is None else plan.delta  # make_saturated checks it before it is halved
        return FamilySetup(make_saturated(delta, plan.L), MatrixKind.RADEMACHER, float(delta) / 2.0, 1.0)
    raise ValueError(f"unknown family {plan.family!r}")


class TrialRecord(NamedTuple):
    m: int
    final_error: float


class CellStats(NamedTuple):
    """One grid cell: the mean final error over its trials and that mean's standard error."""

    m: int
    mean_err: float
    stderr: float


class ExperimentResult(NamedTuple):
    records: list
    cells: list


def _slope_group(plan: ExperimentPlan) -> tuple[float, str]:
    """The plan's structure size (``k``, ``r`` or ``radius**2``) and the label of its slope group."""
    s = plan.model.structure
    k_or_r = float(s.k if isinstance(s, Sparse) else s.r if isinstance(s, LowRank) else s.radius * s.radius)
    return k_or_r, f"{plan.family.value}:k_or_r={k_or_r:.12g}:L={plan.setup.spec.levels}"


def draw_trial(
    plan: ExperimentPlan, trial: int, workspace: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, SensingInstance, np.ndarray, np.ndarray]]:
    """Trial ``trial`` of every grid cell in turn: ``(x, instance, y, start)``, as ``run_experiment`` decodes it.

    Every random object comes from ``derive_seed(plan.master_seed, 0, trial)``;
    the ``0`` is the former cell index, kept so that no stream moves.  Every
    cell sees the same ``x`` and ``start``, and the trial's matrix, of
    ``plan.setup``'s ensemble and dither, is drawn once, at the grid's largest
    ``m``: cell ``c``'s instance is its first ``m_grid[c]`` rows and dithers,
    bit for bit a fresh draw of ``m_grid[c]`` rows from that seed.  ``y``
    holds the measurements of ``x`` by ``plan.setup``'s quantizer, corrupted
    when ``plan.corruption_zeta > 0``.  The decoder's start is a random model
    member on the sphere (``alpha > 0``, one-bit Gaussian) and zero on the
    unit ball (the dithered families).  ``next(draw_trial(plan, t))`` is the
    trial's first cell.

    The generator is lazy and draws the signal and start again for each cell,
    the same vectors every time, so that each cell's decode follows its own
    ``gen_signal`` call, where ``perfbench/spans.py`` opens a trial.  With
    ``workspace``, the trial's matrix is drawn into it, as the ``out`` of
    ``sample_instance``; it needs room for ``max(m_grid) * n`` entries.
    """
    setup, seed = plan.setup, derive_seed(plan.master_seed, 0, trial)
    n = plan.model.ambient_dim
    for cell, m in enumerate(plan.m_grid):
        x = gen_signal(plan.model, seed)
        if cell == 0:
            drawn = sample_instance(setup.matrix_kind, setup.dither, plan.m_grid[-1], n, seed, out=workspace)
        inst = SensingInstance(matrix=drawn.matrix[:m], dither=drawn.dither[:m])
        y = measure(inst, setup.spec, x)
        if plan.corruption_zeta > 0.0:
            y = corrupt(y, setup.spec, plan.corruption_zeta, seed)
        start = random_in_model(plan.model, seed) if plan.model.alpha > 0 else np.zeros(n)
        yield x, inst, y, start


def run_trial(plan: ExperimentPlan, x: np.ndarray, instance: SensingInstance, y: np.ndarray, start: np.ndarray) -> PgdResult:
    """PGD's result on a cell ``draw_trial`` yielded, at ``plan.setup``'s step size, with ``errors`` to ``x``.

    It draws nothing, and the result holds no view of ``instance``, so the
    caller may draw the next trial into the same workspace.
    """
    config = PgdConfig(eta=plan.setup.eta, iterations=plan.iterations)
    return pgd_recover(config, plan.model, plan.setup.spec, instance, y, start, truth=x)


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> ExperimentResult:
    """Run every trial of the plan, decoding each of its cells, and aggregate per cell.

    A task is one trial: it decodes every cell ``draw_trial`` yields, each a
    row prefix of the trial's one matrix draw at the grid's largest ``m``, so
    a run draws ``trials`` matrices, not ``len(m_grid) * trials``.  Trials
    are independent and may run on several threads; records come back
    sorted by (cell, trial) and all randomness is keyed by indices, so the
    output is bit-identical for any ``threads``.

    Each worker (the caller when ``threads`` is 1, else each pool thread)
    maps one buffer of ``max(m_grid) * n`` entries of the plan's matrix dtype
    (float64 Gaussian, one-byte Rademacher) and draws the sensing matrix of
    every trial it runs into that buffer, so a run holds one matrix per
    worker.  This relies on the invariant that no trial keeps its instance
    after it returns.  Each buffer is its own anonymous memory mapping, never
    a block of the allocator's heap, so it goes back to the OS when the run
    returns: what a run leaves resident does not depend on the sizes of
    earlier runs' buffers.
    """
    if not 1 <= check_int(threads, "threads") <= THREADS_CAP:
        raise ValueError(f"threads must be in [1, {THREADS_CAP}], got {threads}")
    entries = plan.m_grid[-1] * plan.model.ambient_dim  # the grid increases strictly
    dtype = plan.setup.matrix_kind.dtype
    local = threading.local()

    def allocate():
        local.workspace = np.frombuffer(mmap.mmap(-1, entries * dtype.itemsize), dtype=dtype)

    def trial_records(trial: int) -> list[TrialRecord]:
        cells = draw_trial(plan, trial, local.workspace)
        return [TrialRecord(inst.m, float(run_trial(plan, x, inst, y, start).errors[-1])) for x, inst, y, start in cells]

    if threads == 1:
        allocate()
        by_trial = list(map(trial_records, range(plan.trials)))
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that pools
        with ThreadPoolExecutor(max_workers=threads, initializer=allocate) as pool:
            by_trial = list(pool.map(trial_records, range(plan.trials)))
    records = [r for cell_records in zip(*by_trial) for r in cell_records]
    cells = []
    for ci, m in enumerate(plan.m_grid):
        errs = np.array([r.final_error for r in records[ci * plan.trials : (ci + 1) * plan.trials]])
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        cells.append(CellStats(m, float(errs.mean()), stderr))
    return ExperimentResult(records=records, cells=cells)


class SlopeFit(NamedTuple):
    slope: float
    r2: float


def fit_slope(points: Iterable[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of ``log10(err)`` against ``log10(m)``.

    Returns ``(slope, r2)``; a perfectly flat or perfectly linear set of
    points has ``r2 = 1`` by the zero-residual convention.
    """
    pts = [(float(m), float(e)) for m, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):
        raise ValueError("slope fit needs positive finite measurement counts and errors")
    lx = np.log10([m for m, _ in pts])
    ly = np.log10([e for _, e in pts])
    if np.ptp(lx) == 0.0:
        raise ValueError("all measurement counts coincide; slope undefined")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return SlopeFit(float(slope), float(r2))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def emit_csv(plan: ExperimentPlan, cells: Iterable[CellStats], path: str) -> None:
    """Write per-cell aggregates as CSV with a fixed column set.

    Every column but ``m``, ``mean_err`` and ``stderr`` comes from the plan, so
    output bytes depend only on the plan and the cell values, and identical
    runs produce identical files.
    """
    setup = plan.setup
    k_or_r, group = _slope_group(plan)
    head = [plan.family.value, str(plan.model.ambient_dim), _fmt(k_or_r)]
    fixed = [str(setup.spec.levels), _fmt(setup.spec.delta), _fmt(setup.dither), _fmt(plan.corruption_zeta), str(plan.trials)]
    lines = [CSV_COLUMNS]
    for c in cells:
        lines.append(",".join([*head, str(c.m), *fixed, _fmt(c.mean_err), _fmt(c.stderr), group]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_svg_loglog(plan: ExperimentPlan, cells: Iterable[CellStats], path: str) -> None:
    """Render cell aggregates as a log-log SVG scatter joined by one line.

    The line is labelled with the plan's slope group; decade gridlines, one
    colour and fixed float formatting mean the same cells always produce the
    same bytes.  A cell whose mean error is not positive (every trial
    recovered exactly) has no place on a log scale: it is left out, and the
    label counts the cells left out.  The x axis spans every cell's ``m``, so
    a plan with no positive mean error gives axes and the label, with no
    points.
    """
    cells = sorted(cells, key=lambda c: c.m)
    if not cells:
        raise ValueError("nothing to plot")
    shown = [c for c in cells if c.mean_err > 0]
    label = _slope_group(plan)[1]
    if len(shown) < len(cells):
        label += f" ({len(cells) - len(shown)} of {len(cells)} cells with mean error 0 omitted)"
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 55.0

    def padded(vs: np.ndarray) -> tuple[float, float]:
        lo, hi = float(vs.min()), float(vs.max())
        pad = 0.05 * max(hi - lo, 0.2)
        return lo - pad, hi + pad

    xmin, xmax = padded(np.log10([c.m for c in cells]))
    ymin, ymax = padded(np.log10([c.mean_err for c in shown]) if shown else np.zeros(1))

    def sx(v: float) -> float:
        return left + (v - xmin) / (xmax - xmin) * (width - left - right)

    def sy(v: float) -> float:
        return height - bottom - (v - ymin) / (ymax - ymin) * (height - top - bottom)

    def line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> str:
        return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="{stroke}"/>'

    def text(x: str, y: str, anchor: str, size: int, body: str, extra: str = "") -> str:
        return f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" font-size="{size}"{extra}>{body}</text>'

    def ticks(lo: float, hi: float) -> list[float]:
        decades = [float(t) for t in range(math.ceil(lo), math.floor(hi) + 1)]
        if len(decades) >= 2:
            return decades
        return [lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)]

    px = "{:.2f}".format  # text takes its coordinates as written: the title's y and the y label's x are "20" and "16"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        text(px(width / 2), "20", "middle", 14, "mean recovery error vs m"),
        line(left, height - bottom, width - right, height - bottom, "black") + line(left, top, left, height - bottom, "black"),
    ]
    for t in ticks(xmin, xmax):
        out.append(line(sx(t), height - bottom, sx(t), top, "#dddddd"))
        out.append(text(px(sx(t)), px(height - bottom + 18), "middle", 11, f"{10 ** t:.3g}"))
    for t in ticks(ymin, ymax):
        out.append(line(left, sy(t), width - right, sy(t), "#dddddd"))
        out.append(text(px(left - 8), px(sy(t) + 4), "end", 11, f"{10 ** t:.3g}"))
    mid = px((top + height - bottom) / 2)
    out.append(text(px((left + width - right) / 2), px(height - 12), "middle", 12, "measurements m (log scale)"))
    out.append(text("16", mid, "middle", 12, "mean error (log scale)", f' transform="rotate(-90 16 {mid})"'))
    color = "#1f77b4"
    if shown:
        coords = " ".join(f"{sx(math.log10(c.m)):.2f},{sy(math.log10(c.mean_err)):.2f}" for c in shown)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for c in shown:
        out.append(
            f'<circle cx="{sx(math.log10(c.m)):.2f}" cy="{sy(math.log10(c.mean_err)):.2f}" '
            f'r="3" fill="{color}"/>'
        )
    out.append(text(px(width - right - 4), px(top + 14), "end", 11, label, f' fill="{color}"'))
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


# each plan-file structure name and its class; the model's keys are the class's fields, "alpha" and "beta"
_MODEL_KINDS = {"sparse": Sparse, "low_rank": LowRank, "l1_ball": L1Ball}


def _model_from_json(obj: dict) -> SignalModel:
    if not isinstance(obj, dict):
        raise ValueError("model must be an object")
    kind = obj.get("structure")
    cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None  # a list or object name is unhashable
    if cls is None:
        raise ValueError(f"unknown structure {kind!r}")
    names = [f.name for f in fields(cls)]
    keys = {"structure", "alpha", "beta", *names}
    _require_keys(obj, keys, keys, "model")
    return SignalModel(structure=cls(**{name: obj[name] for name in names}), alpha=obj["alpha"], beta=obj["beta"])


def plan_from_json(text: str) -> ExperimentPlan:
    """Parse a plan from its JSON form; the constructors check the values.

    The optional ``delta_rule`` of a multi-bit plan is ``{"rule": "five_over_l"}``
    (the default, delta = 5 / L) or ``{"rule": "fixed", "delta": d}``.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("plan JSON is nested too deeply") from None
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
    delta = None
    if obj.get("delta_rule") is not None:
        robj = obj["delta_rule"]
        if not isinstance(robj, dict):
            raise ValueError("delta_rule must be an object")
        _require_keys(robj, {"rule", "delta"}, set(), "delta_rule")
        if family is not Family.DITHERED_MULTI_BIT:
            raise ValueError(f"{family.value} takes no delta rule")
        rule, delta = robj.get("rule"), robj.get("delta")
        if rule not in ("fixed", "five_over_l"):
            raise ValueError(f"unknown delta rule {rule!r}")
        if (rule == "fixed") != (delta is not None):
            raise ValueError("a fixed delta rule needs a delta, and five_over_l takes none")
    kwargs = {key: obj[key] for key in ("trials", "iterations", "master_seed", "corruption_zeta") if key in obj}
    return ExperimentPlan(
        family=family,
        model=_model_from_json(obj["model"]),
        m_grid=tuple(obj["m_grid"]),
        L=obj.get("L"),
        delta=delta,
        lam=obj.get("lambda"),
        **kwargs,
    )
