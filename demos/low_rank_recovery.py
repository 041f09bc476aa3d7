"""One-bit recovery of a low-rank matrix via singular value truncation.

The same projected gradient loop that recovers sparse vectors handles
low-rank matrices once the projection swaps hard thresholding for SVD
truncation; measurements treat the matrix as a flat vector. This script
recovers a rank-2 16x16 matrix, trial 0 of a one-cell ``one_bit_gaussian``
plan, and prints the error alongside the spectrum of the estimate.
"""

import numpy as np

from quantcs import ExperimentPlan, Family, LowRank, SignalModel, draw_trial, run_trial

n1 = n2 = 16
rank, m = 2, 2000


def main():
    model = SignalModel(LowRank(r=rank, n1=n1, n2=n2), alpha=1.0, beta=1.0)
    plan = ExperimentPlan(Family.ONE_BIT_GAUSSIAN, model, (m,), trials=1, master_seed=19)
    x, inst, y, start = next(draw_trial(plan, 0))
    print("true singular values:",
          np.round(np.linalg.svd(x.reshape(n1, n2), compute_uv=False)[:4], 4))

    est = run_trial(plan, x, inst, y, start).estimate
    print("estimate singular values:",
          np.round(np.linalg.svd(est.reshape(n1, n2), compute_uv=False)[:4], 4))
    print(f"l2 error {np.linalg.norm(est - x):.5f} from {m} one-bit measurements "
          f"of {n1 * n2} entries")


if __name__ == "__main__":
    main()
