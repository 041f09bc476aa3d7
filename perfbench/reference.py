"""Correctness reference for the benchmark's outputs, and the check against it.

``reference.json`` holds, for every cell of every plan step, the mean error
at the default workload seed and at a second seed, and an accepted band
``[lo, hi]`` for the cell mean at any seed; and, for the verify step, the
outcome of every check. The band is ``[min / 3, 3 * max]`` over the single
trial errors of the cell at seeds 0..39. A cell mean cannot leave the range
of its own trials, so a changed random stream stays inside the band, while a
broken solver, whose errors are of order one, lands far above it.

Regenerate with ``python3 perfbench/reference.py`` (a few minutes).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED, SECOND_SEED = 0, 1
STUDY_SEEDS = 40
MARGIN = 3.0
VERIFY_LINE = re.compile(r"^\[(pass|FAIL)\] (\S+): ", re.MULTILINE)


def cell_key(step_key: str, m: int) -> str:
    return f"{step_key}:m={m}"


def load() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def read_cells(csv_text: str) -> dict[int, dict]:
    """The rows of a ``quantcs run`` CSV, keyed by m."""
    return {int(row["m"]): row for row in csv.DictReader(io.StringIO(csv_text))}


def parse_verify(text: str) -> dict[str, bool]:
    """Check name -> passed, from the lines ``quantcs verify`` prints."""
    return {name: status == "pass" for status, name in VERIFY_LINE.findall(text)}


def check_pass(workload: Workload, outputs: dict[str, str], reference: dict) -> tuple[int, int, list[str]]:
    """Count the operations of one pass and those that failed.

    ``outputs`` maps each step key to the CSV text (plan steps) or the
    printed lines (verify steps) of that step. A trial fails when its cell's
    mean error is non-finite or outside the reference band; a verify check
    fails when it reports FAIL or is missing.
    """
    ref = reference["workloads"][workload.name]
    attempted = failed = 0
    problems = []
    for step in workload.steps:
        if step.plan is None:
            seen = parse_verify(outputs[step.key])
            expected = [n for n in ref["verify"] if step.suite is None or n.startswith(step.suite + ".")]
            for name in sorted(set(expected) | set(seen)):
                attempted += 1
                if not seen.get(name, False):
                    failed += 1
                    problems.append(f"verify check {name}: {'FAIL' if name in seen else 'missing'}")
            continue
        rows = read_cells(outputs[step.key])
        trials = step.plan["trials"]
        for m in step.plan["m_grid"]:
            key = cell_key(step.key, m)
            band = ref["cells"][key]
            attempted += trials
            mean = float(rows[m]["mean_err"]) if m in rows else math.nan
            if not (math.isfinite(mean) and band["lo"] <= mean <= band["hi"]):
                failed += trials
                problems.append(f"cell {key}: mean error {mean:.6g} outside [{band['lo']:.6g}, {band['hi']:.6g}]")
    return attempted, failed, problems


def seed_deviation(workload: Workload, outputs: dict[str, str], reference: dict, seed: int) -> float | None:
    """Largest relative gap to the committed cell means, when ``seed`` has them."""
    cells = reference["workloads"][workload.name]["cells"]
    gaps = []
    for step in workload.steps:
        if step.plan is None:
            continue
        rows = read_cells(outputs[step.key])
        for m in step.plan["m_grid"]:
            want = cells[cell_key(step.key, m)]["mean_err"].get(str(seed))
            if want is None or m not in rows:
                return None
            gaps.append(abs(float(rows[m]["mean_err"]) - want) / want)
    return max(gaps) if gaps else None


def _study(workload: Workload) -> dict:
    from quantcs.harness import plan_from_json, run_experiment

    cells = {}
    for step in workload.steps:
        if step.plan is None:
            continue
        per_cell = {m: ([], {}) for m in step.plan["m_grid"]}
        for seed in range(STUDY_SEEDS):
            result = run_experiment(plan_from_json(json.dumps(step.plan_json(seed))))
            for rec in result.records:
                per_cell[rec.m][0].append(rec.final_error)
            for cell in result.cells:
                per_cell[cell.m][1][seed] = cell.mean_err
        for m, (errors, means) in per_cell.items():
            cells[cell_key(step.key, m)] = {
                "trials": step.plan["trials"],
                "mean_err": {str(s): means[s] for s in (DEFAULT_SEED, SECOND_SEED)},
                "lo": min(errors) / MARGIN,
                "hi": MARGIN * max(errors),
                "study": {
                    "seeds": STUDY_SEEDS,
                    "min_trial": min(errors),
                    "max_trial": max(errors),
                    "min_mean": min(means.values()),
                    "max_mean": max(means.values()),
                },
            }
        print(f"{workload.name}/{step.key}: {len(per_cell)} cells", file=sys.stderr)
    return cells


def _verify_outcomes(workload: Workload) -> dict[str, str]:
    from quantcs.cli import main

    outcomes = {}
    for step in workload.steps:
        if step.plan is None:
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(["verify"] + (["--suite", step.suite] if step.suite else []))
            outcomes.update({n: "pass" if ok else "FAIL" for n, ok in parse_verify(buf.getvalue()).items()})
    return outcomes


def generate() -> dict:
    return {
        "default_seed": DEFAULT_SEED,
        "second_seed": SECOND_SEED,
        "band": f"[min/{MARGIN:g}, {MARGIN:g}*max] of single-trial errors over seeds 0..{STUDY_SEEDS - 1}",
        "workloads": {
            name: {"cells": _study(w), "verify": _verify_outcomes(w)} for name, w in WORKLOADS.items()
        },
    }


if __name__ == "__main__":
    import os

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    data = generate()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
