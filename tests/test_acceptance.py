"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line with the measured numbers (visible
under ``pytest -s``) and fails if a stated tolerance is violated. All the
experiment-backed checks run at one fixed master seed, so every number
below is reproducible bit for bit. The file took about 90 s on a two-core
x86-64 VM (Python 3.11, NumPy 2.4 with OpenBLAS 0.3.31 at its default
thread count), 57 s of it criterion 05; the slope fits need many trials
because cell means inherit the heavy upper tail of the per-trial error
distribution.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantcs import (
    ExperimentPlan,
    Family,
    L1Ball,
    LowRank,
    SignalModel,
    Sparse,
    fit_slope,
    run_experiment,
)
from quantcs.verify import SUITES

MASTER = 20260814


def _line(name, ok, detail):
    print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _cells(family, model, m_grid, **kw):
    kw.setdefault("trials", 50)
    kw.setdefault("iterations", 100)
    plan = ExperimentPlan(
        family=family, model=model, m_grid=tuple(m_grid), master_seed=MASTER, **kw
    )
    return run_experiment(plan).cells


def _mean(family, model, m, **kw):
    return _cells(family, model, (m,), **kw)[0].mean_err


def _rel_gap(a, b):
    return abs(a - b) / max(a, b)


# Every suite holds one chunk or one check's arrays at a time; its largest
# (the raic suite's 4 MB matrix with two 1 MB column chunks) stays under this
SUITE_PEAK_MB = 7.5


@pytest.fixture(scope="module")
def suite_runs():
    """Each suite's checks and its tracemalloc peak in MB, from one run of every suite."""
    runs = {}
    for name, fn in SUITES.items():
        tracemalloc.start()
        try:
            checks = fn()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        runs[name] = (checks, peak)
    return runs


@pytest.fixture(scope="module")
def suite_results(suite_runs):
    return {name: checks for name, (checks, _) in suite_runs.items()}


def test_criterion_01_one_bit_sparse_decay():
    t0 = time.perf_counter()
    model = SignalModel(Sparse(k=3, n=500), alpha=1.0, beta=1.0)
    cells = _cells(Family.ONE_BIT_GAUSSIAN, model, range(400, 1201, 200))
    fit = fit_slope([(c.m, c.mean_err) for c in cells])
    elapsed = time.perf_counter() - t0
    ok = -1.25 <= fit.slope <= -0.75
    _line("criterion 01 one-bit sparse decay", ok, f"slope {fit.slope:.3f} in [-1.25, -0.75]")
    # the time stays out of the summary line, which must read the same on every run
    assert elapsed <= 300.0, f"criterion 01 took {elapsed:.0f}s > 300s"


def test_criterion_02_doubling_structure_and_measurements():
    a = _mean(Family.ONE_BIT_GAUSSIAN, SignalModel(Sparse(k=3, n=500), 1.0, 1.0), 400)
    b = _mean(Family.ONE_BIT_GAUSSIAN, SignalModel(Sparse(k=6, n=500), 1.0, 1.0), 800)
    sparse_gap = _rel_gap(a, b)
    c = _mean(Family.ONE_BIT_GAUSSIAN, SignalModel(LowRank(r=1, n1=25, n2=25), 1.0, 1.0), 600)
    d = _mean(Family.ONE_BIT_GAUSSIAN, SignalModel(LowRank(r=2, n1=25, n2=25), 1.0, 1.0), 1200)
    lowrank_gap = _rel_gap(c, d)
    ok = sparse_gap <= 0.25 and lowrank_gap <= 0.25
    _line(
        "criterion 02 co-scaling",
        ok,
        f"sparse (3,400)={a:.4f} vs (6,800)={b:.4f} gap {sparse_gap:.1%}; "
        f"low-rank (1,600)={c:.4f} vs (2,1200)={d:.4f} gap {lowrank_gap:.1%}; both <= 25%",
    )


def test_criterion_03_dithered_one_bit_decay():
    # Grid sits past the small-m transient, where the error follows the 1/m law.
    model = SignalModel(Sparse(k=3, n=500), alpha=0.0, beta=1.0)
    cells = _cells(
        Family.DITHERED_ONE_BIT, model, (3200, 4000, 4800, 5600), lam=1.5, trials=200
    )
    fit = fit_slope([(c.m, c.mean_err) for c in cells])
    wide = _mean(Family.DITHERED_ONE_BIT, model, 1600, lam=1.5)
    narrow = _mean(Family.DITHERED_ONE_BIT, model, 1600, lam=0.8)
    ok = -1.25 <= fit.slope <= -0.75 and narrow > wide
    _line(
        "criterion 03 dithered one-bit decay",
        ok,
        f"slope {fit.slope:.3f} in [-1.25, -0.75]; "
        f"lam=0.8 error {narrow:.4f} > lam=1.5 error {wide:.4f} at m=1600",
    )


def test_criterion_04_bit_budget():
    model = SignalModel(Sparse(k=3, n=500), alpha=0.0, beta=1.0)

    def dm(L, m):
        return _mean(Family.DITHERED_MULTI_BIT, model, m, L=L)

    a, b, c = dm(4, 200), dm(8, 100), dm(32, 25)
    gap = _rel_gap(a, b)
    ok = gap <= 0.30 and c > a
    _line(
        "criterion 04 bit budget",
        ok,
        f"(L,m)=(4,200)={a:.4f} vs (8,100)={b:.4f} gap {gap:.1%} <= 30%; "
        f"(32,25)={c:.4f} > (4,200)={a:.4f}",
    )


def test_criterion_05_effectively_sparse_decay():
    model = SignalModel(L1Ball(radius=float(np.sqrt(10)), n=300), alpha=1.0, beta=1.0)
    cells = _cells(Family.ONE_BIT_GAUSSIAN, model, range(800, 2401, 400), trials=400)
    fit = fit_slope([(c.m, c.mean_err) for c in cells])
    ok = -1.0 <= fit.slope <= -0.33
    _line(
        "criterion 05 effectively sparse decay",
        ok,
        f"slope {fit.slope:.3f} in [-1.0, -0.33] (r2 {fit.r2:.3f})",
    )


def test_criterion_06_separation_probability(suite_results):
    wanted = {"geodesic_matches_monte_carlo", "two_sided_norm_bound"}
    checks = [c for c in suite_results["puv"] if c.name in wanted]
    ok = len(checks) == len(wanted) and all(c.passed for c in checks)
    _line(
        "criterion 06 separation probability",
        ok,
        "; ".join(f"{c.name}: {c.detail}" for c in checks),
    )


def test_criterion_07_gradient_correctness(suite_results):
    wanted = {"gradient_forms_agree", "finite_difference_match"}
    checks = [c for c in suite_results["gradient"] if c.name in wanted]
    ok = len(checks) == len(wanted) and all(c.passed for c in checks)
    _line(
        "criterion 07 gradient correctness",
        ok,
        "; ".join(f"{c.name}: {c.detail}" for c in checks),
    )


def test_criterion_08_level_step_property(suite_results):
    checks = [c for c in suite_results["quantizer"] if c.name == "level_step_bound"]
    ok = len(checks) == 1 and checks[0].passed
    _line("criterion 08 level step property", ok, checks[0].detail if checks else "missing")


def test_criterion_09_brute_force_equivalence(suite_results):
    checks = [c for c in suite_results["hdm"] if c.name == "both_decoders_near_truth"]
    ok = len(checks) == 1 and checks[0].passed
    _line("criterion 09 brute force equivalence", ok, checks[0].detail if checks else "missing")


def test_criterion_10_corruption_robustness():
    model = SignalModel(Sparse(k=3, n=500), alpha=1.0, beta=1.0)
    zetas = (0.0, 0.02, 0.05, 0.1)
    errs = [
        _mean(Family.ONE_BIT_GAUSSIAN, model, 1200, corruption_zeta=z) for z in zetas
    ]
    monotone = all(e2 >= e1 for e1, e2 in zip(errs, errs[1:]))
    bounded = errs[2] < errs[0] + 0.5
    ok = monotone and bounded
    _line(
        "criterion 10 corruption robustness",
        ok,
        "errors " + " ".join(f"{z}:{e:.4f}" for z, e in zip(zetas, errs))
        + f"; non-decreasing {monotone}; err(0.05) < err(0) + 0.5 {bounded}",
    )


def test_criterion_11_projection_oracles_and_invariants(suite_results):
    proj = suite_results["projection"]
    others = [c for name, cs in suite_results.items() for c in cs if name != "projection"]
    bad = [c.name for c in proj + others if not c.passed]
    ok = not bad
    _line(
        "criterion 11 projection oracles and module invariants",
        ok,
        f"projection checks: {', '.join(c.name for c in proj)}; "
        f"all {len(proj) + len(others)} suite checks pass"
        + (f"; FAILING: {bad}" if bad else ""),
    )


def test_benchmark_verify_checks_pass(suite_results):
    # perfbench counts a verify check of its reference that is missing or failing as a failed operation
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())
    passed = {f"{name}.{c.name}": c.passed for name, cs in suite_results.items() for c in cs}
    wanted = reference["workloads"]["small_instances"]["verify"]
    assert [key for key in wanted if not passed.get(key)] == []


# Every check `quantcs verify` prints, in order; the benchmark's reference lists
# only some of them, so this pin is what fails when a check is dropped or renamed.
VERIFY_CHECKS = [
    "quantizer.uniform_error_within_half_cell",
    "quantizer.saturated_equals_uniform_in_range",
    "quantizer.level_step_bound",
    "quantizer.monotone",
    "quantizer.threshold_ties_map_up",
    "quantizer.one_threshold_matches_search",
    "projection.sparse_matches_enumeration",
    "projection.l1_ball_kkt",
    "projection.norm_annulus",
    "projection.cone_composition",
    "projection.idempotent",
    "gradient.gradient_forms_agree",
    "gradient.finite_difference_match",
    "gradient.sign_clipped_equals_plain",
    "gradient.sparse_paths_match_dense",
    "gradient.zero_loss_at_truth",
    "gradient.stopped_run_matches_full_loop",
    "gradient.one_byte_matrix_matches_float64",
    "puv.geodesic_matches_monte_carlo",
    "puv.two_sided_norm_bound",
    "puv.dithered_one_bit_bound",
    "puv.multi_bit_bound",
    "puv.identical_signals_never_separate",
    "puv.rademacher_draw_matches_integers",
    "puv.buffered_and_chunked_draws_match_fresh",
    "hdm.exhaustive_argmin_with_first_tie",
    "hdm.net_points_lie_in_model",
    "hdm.both_decoders_near_truth",
    "raic.zero_residual_at_equal_points",
    "raic.residual_linear_in_phi",
    "raic.contraction_envelope",
]


def test_suite_memory_is_bounded(suite_runs):
    peaks = {name: round(peak, 2) for name, (_, peak) in suite_runs.items()}
    assert {name: mb for name, mb in peaks.items() if mb > SUITE_PEAK_MB} == {}, peaks


def test_verify_check_list_is_pinned(suite_results):
    assert [f"{name}.{c.name}" for name, cs in suite_results.items() for c in cs] == VERIFY_CHECKS


def test_raic_envelope_statistic_is_pinned(suite_results):
    # the suite evaluates its 1000 fixed pairs in column chunks; the rounding
    # of the stacked products must not move the printed statistic
    (check,) = [c for c in suite_results["raic"] if c.name == "contraction_envelope"]
    assert check.detail == "max slack -1.232; fitted (mu1, mu2, mu3) = (0.045, 0.002, 0.022) over 1000 pairs"


def test_puv_statistics_are_pinned(suite_results):
    # estimate_puv counts its rows block by block; the Monte Carlo counts
    # must not move the printed statistics
    details = {c.name: c.detail for c in suite_results["puv"]}
    assert details["geodesic_matches_monte_carlo"] == "20/20 pairs within 3 binomial stderr (worst z = 2.64)"
    assert details["dithered_one_bit_bound"] == "max excess over ||u-v||/(2 lam) + 3 se: -1.12e-02"
    assert details["multi_bit_bound"] == "max excess over ||u-v||/delta + 3 se: -3.54e-02"


def test_l1_ball_kkt_statistic_is_pinned(suite_results):
    # the suite certifies its 10000 fixed vectors as one zero-padded stack;
    # the padding must not move the printed statistic
    (check,) = [c for c in suite_results["projection"] if c.name == "l1_ball_kkt"]
    assert check.detail == "worst (infeasibility, recon, duality gap) = (4.71e-14, 4.44e-16, 8.77e-12) over 10000 vectors"
