"""Recover a sparse unit vector from one-bit measurements, start to finish.

Draws trial 0 of a one-cell ``one_bit_gaussian`` plan, a 3-sparse signal on
the unit sphere measured by y = sign(Ax) with a Gaussian matrix, and runs
projected gradient descent on the one-sided l1 loss. The per-iteration error
printout shows the fast early progress and the eventual plateau at the
quantization-limited error floor.
"""

import numpy as np

from quantcs import ExperimentPlan, Family, SignalModel, Sparse, draw_trial, run_trial

n, k, m, iterations = 200, 3, 1000, 60


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    plan = ExperimentPlan(Family.ONE_BIT_GAUSSIAN, model, (m,), trials=1, iterations=iterations, master_seed=7)
    x, _, y, _ = draw_trial(plan, 0, 0)
    print("true support:", np.flatnonzero(x), "values:", np.round(x[np.flatnonzero(x)], 4))
    print(f"measured {m} bits, {np.mean(y > 0):.1%} positive")

    res = run_trial(plan, 0, 0)
    for t in range(0, iterations, 6):
        print(f"iter {t + 1:3d}  error {res.errors[t]:.5f}")

    est = res.estimate
    print("recovered support:", np.flatnonzero(est))
    print(f"final l2 error {np.linalg.norm(est - x):.5f}")


if __name__ == "__main__":
    main()
