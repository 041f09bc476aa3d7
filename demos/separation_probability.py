"""How often one random measurement tells two signals apart.

For one-bit Gaussian sensing the probability that a single measurement
separates unit vectors u and v has a closed form: arccos(u.v) / pi, the
fraction of random hyperplanes that split the pair. This script checks the
formula by direct simulation across a sweep of angles, and then shows the
dithered variant where separation scales with the gap ||u - v|| instead of
the angle.
"""

import numpy as np

from quantcs import estimate_puv, geodesic_puv, make_sign
from quantcs.sensing import MatrixKind

n, samples = 40, 200_000


def pair_at_angle(theta, rng):
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(n)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    return u, np.cos(theta) * u + np.sin(theta) * w


def main():
    rng = np.random.default_rng(2)
    print(f"{'angle':>8} {'closed form':>12} {'monte carlo':>12} {'z-score':>8}")
    for theta in (0.1, 0.5, 1.0, 2.0, 3.0):
        u, v = pair_at_angle(theta, rng)
        exact = geodesic_puv(u, v)
        est = estimate_puv(
            make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, samples, seed=31
        )
        z = (est.p_hat - exact) / est.stderr
        print(f"{theta:8.2f} {exact:12.5f} {est.p_hat:12.5f} {z:8.2f}")

    print("\ndithered one-bit separation grows with the euclidean gap:")
    lam = 2.0
    for theta in (0.1, 0.5, 1.0):
        u, v = pair_at_angle(theta, rng)
        est = estimate_puv(
            make_sign(), MatrixKind.RADEMACHER, lam, u, v, samples, seed=37
        )
        gap = np.linalg.norm(u - v)
        print(f"gap {gap:.3f}  p_hat {est.p_hat:.5f}  gap/(2 lam) = {gap / (2 * lam):.5f}")


if __name__ == "__main__":
    main()
