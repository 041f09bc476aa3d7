"""Dithered one-bit sensing recovers the norm, plain sign measurements cannot.

sign(Ax) is invariant to rescaling x, so undithered one-bit measurements
carry no amplitude information. Random thresholds tau ~ U[-lam, lam] break
the invariance: comparing Ax against random levels effectively samples the
amplitude. This script recovers the same signal at several norms with both
schemes and prints the norm of each estimate, and then shows what happens
when the dither range fails to cover the signal norm.
"""

import numpy as np

from quantcs import (
    PgdConfig,
    SignalModel,
    Sparse,
    gen_signal,
    make_sign,
    measure,
    pgd_recover,
    sample_instance,
)
from quantcs.sensing import MatrixKind

n, k, m, lam = 120, 3, 1500, 1.5


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    direction = gen_signal(model, seed=3)
    ball = SignalModel(Sparse(k=k, n=n), alpha=0.0, beta=1.0)
    eta = lam  # the dithered one-bit step size is the dither level

    print("true norm   dithered estimate norm   plain-sign estimate norm")
    for scale in (0.25, 0.5, 0.9):
        x = scale * direction
        norms = []
        for dither in (lam, 0.0):
            inst = sample_instance(MatrixKind.RADEMACHER, dither, m, n, seed=5)
            y = measure(inst, make_sign(), x)
            res = pgd_recover(PgdConfig(eta=eta, iterations=100), ball, make_sign(), inst, y, np.zeros(n))
            norms.append(np.linalg.norm(res.estimate))
        print(f"{scale:9.2f}   {norms[0]:22.4f}   {norms[1]:24.4f}")

    print("\nwith a dither range too small for the signal (lam = 0.3, norm = 0.9):")
    x = 0.9 * direction
    inst = sample_instance(MatrixKind.RADEMACHER, 0.3, m, n, seed=5)
    y = measure(inst, make_sign(), x)
    res = pgd_recover(PgdConfig(eta=0.3, iterations=100), ball, make_sign(), inst, y, np.zeros(n), truth=x)
    print(f"l2 error {res.errors[-1]:.4f} (the norm saturates near the dither range)")


if __name__ == "__main__":
    main()
