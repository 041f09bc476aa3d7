"""Run a small measurement-sweep experiment and fit the error decay rate.

Builds an experiment plan in code (the CLI accepts the same thing as JSON),
runs the trials, writes the per-cell table to CSV and a log-log plot to SVG,
and fits the decay exponent of mean error against measurement count. With
one-bit measurements of sparse signals the fitted slope should land near -1.
"""

import numpy as np

from quantcs import (
    ExperimentPlan,
    Family,
    SignalModel,
    Sparse,
    emit_csv,
    emit_svg_loglog,
    fit_slope,
    run_experiment,
)


def main():
    plan = ExperimentPlan(
        family=Family.ONE_BIT_GAUSSIAN,
        model=SignalModel(Sparse(k=3, n=500), alpha=1.0, beta=1.0),
        m_grid=(400, 600, 800, 1000, 1200),
        trials=50,
        iterations=100,
        master_seed=20260814,
    )
    result = run_experiment(plan)

    emit_csv(plan, result.cells, "scaling_laws.csv")
    emit_svg_loglog(plan, result.cells, "scaling_laws.svg")
    print("wrote scaling_laws.csv and scaling_laws.svg")

    pts = [(c.m, c.mean_err) for c in result.cells]
    for m, err in pts:
        print(f"m {m:5d}  mean error {err:.5f}")
    fit = fit_slope(pts)
    print(f"fitted decay exponent {fit.slope:.3f} (r2 {fit.r2:.3f})")
    print("doubling the measurements divides the error by about "
          f"{2 ** -fit.slope:.2f}")


if __name__ == "__main__":
    main()
