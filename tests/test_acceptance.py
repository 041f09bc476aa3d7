"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line with the measured numbers (visible
under ``pytest -s``) and fails if a stated tolerance is violated. The
experiment-backed criteria are the claims of ``quantcs.claims``, run at its
fixed ``MASTER``, so every number below is reproducible bit for bit, and
each claim's summary line is pinned; the others are decided by named
``verify`` checks. The file took 53-57 s on a two-core x86-64 VM (Python
3.11, NumPy 2.4 with OpenBLAS 0.3.31 at its default thread count), about
35 s of it criterion 05; the slope fits need many trials because cell means
inherit the heavy upper tail of the per-trial error distribution.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from quantcs.claims import CLAIMS, MASTER, check_claim
from quantcs.verify import SUITES


def _line(name, ok, detail):
    print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


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


# each experiment claim's summary line at MASTER: a change that moves a claim's
# random stream moves these numbers, and must say so
SUMMARIES = {
    "01": "slope -1.088 in [-1.25, -0.75]",
    "02": "sparse (3,400)=0.0122 vs (6,800)=0.0149 gap 17.7%; low-rank (1,600)=0.1464 vs (2,1200)=0.1486 gap 1.5%; both <= 25%",
    "03": "slope -1.199 in [-1.25, -0.75]; lam=0.8 error 0.0367 > lam=1.5 error 0.0083 at m=1600",
    "04": "(L,m)=(4,200)=0.0332 vs (8,100)=0.0382 gap 13.1% <= 30%; (32,25)=0.8906 > (4,200)=0.0332",
    "05": "slope -0.352 in [-1.0, -0.33] (r2 1.000)",
    "10": "errors 0.0:0.0038 0.02:0.0215 0.05:0.0360 0.1:0.0537; non-decreasing True; err(0.05) < err(0) + 0.5 True",
}

# the criteria that a verify suite's named checks decide: (id, name, suite, check names)
SUITE_CRITERIA = [
    ("06", "separation probability", "puv", ("geodesic_matches_monte_carlo", "two_sided_norm_bound")),
    ("07", "gradient correctness", "gradient", ("gradient_forms_agree", "finite_difference_match")),
    ("08", "level step property", "quantizer", ("level_step_bound",)),
    ("09", "brute force equivalence", "hdm", ("both_decoders_near_truth",)),
]


def _claim_test(claim):
    def test():
        t0 = time.perf_counter()
        ok, summary = check_claim(claim)
        elapsed = time.perf_counter() - t0
        _line(f"criterion {claim.id} {claim.name}", ok, summary)
        assert summary == SUMMARIES[claim.id]
        # the time stays out of the summary line, which must read the same on every run
        assert claim.id != "01" or elapsed <= 300.0, f"criterion 01 took {elapsed:.0f}s > 300s"

    return test


def _suite_test(cid, name, suite, wanted):
    def test(suite_results):
        checks = [c for c in suite_results[suite] if c.name in wanted]
        ok = len(checks) == len(wanted) and all(c.passed for c in checks)
        details = [c.detail if len(wanted) == 1 else f"{c.name}: {c.detail}" for c in checks]
        _line(f"criterion {cid} {name}", ok, "; ".join(details) or "missing")

    return test


# one named test per criterion, in id order, so that each keeps its own line in a test report
_tests = [(c.id, c.name, _claim_test(c)) for c in CLAIMS] + [(*row[:2], _suite_test(*row)) for row in SUITE_CRITERIA]
for _id, _name, _test in sorted(_tests, key=lambda t: t[0]):
    globals()[f"test_criterion_{_id}_{_name.replace('-', '_').replace(' ', '_')}"] = _test


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


def test_each_criterion_is_tested_once():
    # so that deleting a claim, a table row or criterion 11's test fails here
    ids = [c.id for c in CLAIMS] + [row[0] for row in SUITE_CRITERIA] + ["11"]
    assert sorted(ids) == [f"{i:02d}" for i in range(1, 12)]
    assert sorted(name.split("_")[2] for name in globals() if name.startswith("test_criterion_")) == sorted(ids)
    assert sorted(SUMMARIES) == sorted(c.id for c in CLAIMS)


def test_claims_run_at_master():
    assert {p.master_seed for c in CLAIMS for p in c.plans} == {MASTER}


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
    "projection.huge_inputs_scale_free",
    "gradient.gradient_forms_agree",
    "gradient.finite_difference_match",
    "gradient.sign_clipped_equals_plain",
    "gradient.sparse_paths_match_dense",
    "gradient.zero_loss_at_truth",
    "gradient.stopped_run_matches_full_loop",
    "gradient.one_byte_matrix_matches_float64",
    "gradient.lockstep_cells_match_alone",
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
