"""Run acceptance criterion 01's measurement sweep and fit the error decay rate.

Takes the criterion's plan from ``quantcs.claims`` (the CLI accepts the same
thing as JSON), runs the trials, writes the per-cell table to CSV and a
log-log plot to SVG, and fits the decay exponent of mean error against
measurement count. With one-bit sparse signals the slope should land near -1.
"""

from quantcs import emit_csv, emit_svg_loglog, fit_slope, run_experiment
from quantcs.claims import CLAIMS


def main():
    (plan,) = next(c for c in CLAIMS if c.id == "01").plans
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
