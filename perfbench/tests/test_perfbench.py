"""Fast tests of the benchmark itself, on tiny workloads.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Step, Workload, _plan, _sparse  # noqa: E402

TINY = Workload(
    "tiny",
    (
        Step("verify", suite="hdm"),
        Step("one_bit", {**_plan("one_bit_gaussian", _sparse(1.0, n=40), (60, 120), 2), "iterations": 10}),
        Step(
            "corrupted_dithered",
            {**_plan("dithered_one_bit", _sparse(0.0, n=40), (80,), 2, corruption_zeta=0.05, **{"lambda": 1.5}), "iterations": 10},
        ),
    ),
)
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _reference_from(outputs: dict, scale: float = 1.0) -> dict:
    """A reference whose bands sit around ``scale`` times the given cell means."""
    cells = {}
    for step in TINY.steps:
        if step.plan:
            for m, row in reference.read_cells(outputs[step.key]).items():
                mean = scale * float(row["mean_err"])
                cells[reference.cell_key(step.key, m)] = {"mean_err": {"0": mean}, "lo": mean / 2, "hi": 2 * mean}
    checks = reference.parse_verify(outputs["verify"])
    return {"workloads": {"tiny": {"cells": cells, "verify": {n: "pass" for n in checks}}}}


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    """The tiny workload's plan arguments and one pass checked against its own outputs."""
    from quantcs.cli import main

    argv = run.write_plans(TINY, 0, tmp_path_factory.mktemp("work"))
    outputs = {}
    for step in TINY.steps:
        text = run._call(main, argv[step.key], None)[1]
        outputs[step.key] = Path(argv[step.key][-1]).read_text() if step.plan else text
    return argv, run.run_pass(TINY, argv, _reference_from(outputs))


def test_correct_reference_passes(tiny_pass):
    argv, p = tiny_pass
    assert p.failed == 0 and p.attempted > 0, p.problems


def test_wrong_reference_raises_failed_frac(tiny_pass):
    argv, p = tiny_pass
    wrong = _reference_from(p.outputs, scale=10.0)
    q = run.run_pass(TINY, argv, wrong)
    assert q.failed > 0 and q.failed / q.attempted > 0
    assert any("outside" in problem for problem in q.problems)


def test_failed_verify_check_counts(tiny_pass):
    argv, p = tiny_pass
    ref = _reference_from(p.outputs)
    ref["workloads"]["tiny"]["verify"]["hdm.no_such_check"] = "pass"
    q = run.run_pass(TINY, argv, ref)
    assert q.failed == 1 and "verify check hdm.no_such_check: missing" in q.problems


def test_traced_children_fit_in_parent(tiny_pass):
    argv, p = tiny_pass
    tracer = spans.Tracer()
    q = run.run_pass(TINY, argv, _reference_from(p.outputs), tracer)
    assert q.failed == 0
    rows = tracer.spans
    names = {r[spans.NAME] for r in rows}
    assert {"cli.main", "harness.run_experiment", "pgd.gradient", "verify.hdm", "oracles.hdm_decode"} <= names
    for r, own in zip(rows, spans.self_times(rows)):
        assert own >= -1e-9, r
        if r[spans.PARENT] >= 0:
            parent = rows[r[spans.PARENT]]
            assert parent[spans.START] <= r[spans.START] <= r[spans.END] <= parent[spans.END]
    # 3 cells x 2 trials; the hdm suite's recoveries belong to no trial
    trials = [r[spans.TRIAL] for r in rows if r[spans.NAME] == "pgd.pgd_recover"]
    assert sorted(t for t in trials if t is not None) == list(range(6))
    import quantcs.harness
    import quantcs.pgd

    assert not hasattr(quantcs.pgd.gradient, "__wrapped__")
    assert not hasattr(quantcs.harness.gen_signal, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_pass, trace, monkeypatch, capsys, tmp_path):
    argv, p = tiny_pass
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(reference, "load", lambda: _reference_from(p.outputs))
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "WORK", tmp_path)
    out = tmp_path / "records.jsonl"
    assert run.main(["--workload", "tiny", "--seconds", "0.2", "--trace", str(trace), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    text = "\n".join(lines[:-1])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \(median of \d+", text, re.M), m
    assert re.search(r"^  failed_frac = 0 ", text, re.M)
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert {"nproc", "OPENBLAS_NUM_THREADS", "numpy", "python", "blas", "cpu_model", "caches", "git_commit"} <= set(env)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert json.loads(out.read_text())["workload"] == "tiny"
    if trace:
        assert (tmp_path / "spans-tiny-seed0.json").exists()
        assert result["metrics"]["pgd.gradient.calls"]["value"] > 0


def _records(values, failed=0):
    return [{"metrics": {"wall_s": {"value": v}}, "failed": failed} for v in values]


def test_compare_verdicts():
    wall = next(m for m in BENCH["end_to_end"] if m["name"] == "wall_s")
    parent = _records([2.00, 2.01, 2.02, 1.99, 2.00, 2.01, 2.00, 1.98, 2.02, 2.01])
    faster = _records([1.50, 1.52, 1.49, 1.51, 1.50, 1.50, 1.52, 1.49, 1.51, 1.50])
    slower = _records([v * (1 + 2 * wall["bound"]) for v in [2.0] * 10])
    assert compare.verdict(parent, faster, wall, claimed=True)[0] == "improved"
    assert compare.verdict(parent, parent, wall, claimed=True)[0] == "unresolved"
    assert compare.verdict(parent, parent, wall, claimed=False)[0] == "unchanged"
    assert compare.verdict(parent, slower, wall, claimed=False)[0] == "worse"
    assert compare.verdict(parent, _records([1.5] * 10, failed=1), wall, claimed=True)[0] == "unresolved"
