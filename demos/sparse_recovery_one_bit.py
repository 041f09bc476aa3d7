"""Recover a sparse unit vector from one-bit measurements, start to finish.

Draws a 3-sparse signal on the unit sphere, measures y = sign(Ax) with a
Gaussian matrix, and runs projected gradient descent on the one-sided l1
loss. The per-iteration error printout shows the fast early progress and
the eventual plateau at the quantization-limited error floor.
"""

import numpy as np

from quantcs import (
    Family,
    PgdConfig,
    SignalModel,
    Sparse,
    default_step_size,
    gen_signal,
    make_sign,
    measure,
    pgd_recover,
    random_in_model,
    sample_instance,
)
from quantcs.sensing import MatrixKind

n, k, m = 200, 3, 1000


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    x = gen_signal(model, seed=7)
    print("true support:", np.flatnonzero(x), "values:", np.round(x[np.flatnonzero(x)], 4))

    inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, m, n, seed=11)
    spec = make_sign()
    y = measure(inst, spec, x)
    print(f"measured {m} bits, {np.mean(y > 0):.1%} positive")

    config = PgdConfig(eta=default_step_size(Family.ONE_BIT_GAUSSIAN), iterations=60)
    res = pgd_recover(config, model, spec, inst, y, random_in_model(model, seed=13), truth=x)
    for t in range(0, 60, 6):
        print(f"iter {t + 1:3d}  error {res.errors[t]:.5f}")

    est = res.estimate
    print("recovered support:", np.flatnonzero(est))
    print(f"final l2 error {np.linalg.norm(est - x):.5f}")


if __name__ == "__main__":
    main()
