"""Gradient descent against the exhaustive Hamming decoder at desk scale.

At n = 6, k = 2 the model set is small enough to cover with an exact net
(a uniform angular grid on each of the 15 support circles), so the ideal
decoder is computable: scan every candidate and keep the one whose quantized
measurements disagree with y in the fewest positions. This script races the
two decoders on the same trials of a three-cell ``one_bit_gaussian`` plan,
each trial drawn once for all its cells, and reports per cell how close
each decoder lands to the truth and how often they pick the same point.
"""

import numpy as np

from quantcs import (
    ExperimentPlan,
    Family,
    SignalModel,
    Sparse,
    draw_trial,
    enumerate_net,
    hdm_decode,
    run_trial,
)

n, k, m_grid, trials, radius = 6, 2, (50, 100, 200), 50, 0.02


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    net = enumerate_net(model, r=radius)
    print(f"exact net with {len(net)} candidates (covering radius {radius})")

    plan = ExperimentPlan(Family.ONE_BIT_GAUSSIAN, model, m_grid, trials=trials, master_seed=23)
    spec = plan.setup.spec
    pgd_errs, hdm_errs = np.zeros((2, len(m_grid), trials))
    agree = [0] * len(m_grid)
    for t in range(trials):
        for c, (x, inst, y, start) in enumerate(draw_trial(plan, t)):
            ref = net[hdm_decode(net, spec, inst, y).index]
            est = run_trial(plan, x, inst, y, start).estimate
            pgd_errs[c, t] = np.linalg.norm(est - x)
            hdm_errs[c, t] = np.linalg.norm(ref - x)
            agree[c] += int(np.linalg.norm(est - ref) < 0.1)

    print(f"mean error over {trials} trials, and trials where the decoders land within 0.1 of each other:")
    for c, m in enumerate(m_grid):
        print(f"  m = {m:3d}: pgd {pgd_errs[c].mean():.4f}, brute force {hdm_errs[c].mean():.4f}, "
              f"agree on {agree[c]}/{trials}")


if __name__ == "__main__":
    main()
