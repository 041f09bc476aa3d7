"""The benchmark's workloads, as the plan files and verify suites they feed the CLI.

A workload is a list of steps. A ``plan`` step is an experiment plan in the
JSON form ``quantcs run --config`` reads; a ``verify`` step is one call of
``quantcs verify``. The workload seed becomes each plan's ``master_seed``;
nothing else about a run depends on it, and the program sees only the files.

The grids are the acceptance criteria's grids (criterion numbers in the
comments) with fewer trials per cell, so that one pass takes a few seconds.
README.md in this directory and BENCHMARK.json give the reason for each workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SUITES = ("quantizer", "projection", "gradient", "puv", "hdm", "raic")


@dataclass(frozen=True)
class Step:
    """One CLI call: a plan (``plan`` is its JSON object without a seed) or a verify."""

    key: str
    plan: dict | None = None
    suite: str | None = None  # verify steps only; None runs every suite

    def plan_json(self, seed: int) -> dict:
        return {**self.plan, "master_seed": seed}


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


def _sparse(alpha: float, k: int = 3, n: int = 500) -> dict:
    return {"structure": "sparse", "n": n, "k": k, "alpha": alpha, "beta": 1.0}


def _plan(family: str, model: dict, m_grid, trials: int, **extra) -> dict:
    return {"family": family, "model": model, "m_grid": list(m_grid), "trials": trials, "iterations": 100, **extra}


def _multi_bit(levels: int, m: int, trials: int) -> Step:
    plan = _plan(
        "dithered_multi_bit", _sparse(0.0), [m], trials, L=levels, delta_rule={"rule": "five_over_l"}
    )
    return Step(f"multi_bit_L{levels}", plan)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse_sweep",
            (
                # criterion 03: dithered one-bit, Rademacher matrix, lambda = 1.5
                Step(
                    "dithered_one_bit",
                    _plan("dithered_one_bit", _sparse(0.0), (3200, 4000, 4800, 5600), 2, **{"lambda": 1.5}),
                ),
                # criterion 01: one-bit Gaussian
                Step("one_bit_gaussian", _plan("one_bit_gaussian", _sparse(1.0), range(400, 1201, 200), 4)),
                # criterion 10: 5% of the bits flipped
                Step("corrupted", _plan("one_bit_gaussian", _sparse(1.0), (1200,), 4, corruption_zeta=0.05)),
            ),
        ),
        Workload(
            "dense_structures",
            (
                # criterion 05: effectively sparse signals in the l1 ball of radius sqrt(10)
                Step(
                    "l1_ball",
                    _plan(
                        "one_bit_gaussian",
                        {"structure": "l1_ball", "n": 300, "radius": math.sqrt(10), "alpha": 1.0, "beta": 1.0},
                        range(800, 2401, 400),
                        4,
                    ),
                ),
                # criterion 02: rank and measurements doubled together
                Step(
                    "low_rank_r1",
                    _plan("one_bit_gaussian", {"structure": "low_rank", "n1": 25, "n2": 25, "r": 1, "alpha": 1.0, "beta": 1.0}, (600,), 4),
                ),
                Step(
                    "low_rank_r2",
                    _plan("one_bit_gaussian", {"structure": "low_rank", "n1": 25, "n2": 25, "r": 2, "alpha": 1.0, "beta": 1.0}, (1200,), 4),
                ),
            ),
        ),
        Workload(
            "small_instances",
            (
                Step("verify"),
                # criterion 04: equal bit budgets m * log2(L)
                _multi_bit(4, 200, 20),
                _multi_bit(8, 100, 20),
                _multi_bit(32, 25, 20),
            ),
        ),
    )
}

# the tiny run that completes a set-up (see probe.py)
WARMUP = {**_plan("one_bit_gaussian", _sparse(1.0, k=2, n=50), (100,), 1), "iterations": 10, "master_seed": 0}
