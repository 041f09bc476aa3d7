"""One-bit recovery of a low-rank matrix via singular value truncation.

The same projected gradient loop that recovers sparse vectors handles
low-rank matrices once the projection swaps hard thresholding for SVD
truncation; measurements treat the matrix as a flat vector. This script
recovers a rank-2 16x16 matrix from one-bit Gaussian measurements and
prints the error alongside the spectrum of the estimate.
"""

import numpy as np

from quantcs import (
    Family,
    LowRank,
    PgdConfig,
    SignalModel,
    default_step_size,
    gen_signal,
    make_sign,
    measure,
    pgd_recover,
    random_in_model,
    sample_instance,
)
from quantcs.sensing import MatrixKind

n1 = n2 = 16
rank, m = 2, 2000


def main():
    model = SignalModel(LowRank(r=rank, n1=n1, n2=n2), alpha=1.0, beta=1.0)
    x = gen_signal(model, seed=19)
    print("true singular values:",
          np.round(np.linalg.svd(x.reshape(n1, n2), compute_uv=False)[:4], 4))

    inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, m, n1 * n2, seed=29)
    spec = make_sign()
    y = measure(inst, spec, x)

    config = PgdConfig(eta=default_step_size(Family.ONE_BIT_GAUSSIAN), iterations=100)
    res = pgd_recover(config, model, spec, inst, y, random_in_model(model, seed=37), truth=x)
    est = res.estimate
    print("estimate singular values:",
          np.round(np.linalg.svd(est.reshape(n1, n2), compute_uv=False)[:4], 4))
    print(f"l2 error {np.linalg.norm(est - x):.5f} from {m} one-bit measurements "
          f"of {n1 * n2} entries")


if __name__ == "__main__":
    main()
