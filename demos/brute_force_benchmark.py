"""Gradient descent against the exhaustive Hamming decoder at desk scale.

At n = 6, k = 1 the model set is small enough to cover with an exact net
(the signed scaled basis vectors plus nothing else), so the ideal decoder
is computable: scan every candidate and keep the one whose quantized
measurements disagree with y in the fewest positions. This script races the
two decoders on the same trials of a one-cell ``one_bit_gaussian`` plan and
reports how close each lands to the truth and how often they pick the same
point.
"""

import numpy as np

from quantcs import (
    ExperimentPlan,
    Family,
    SignalModel,
    Sparse,
    draw_trial,
    enumerate_net,
    family_setup,
    hdm_decode,
    run_trial,
)

n, k, m, trials, radius = 6, 1, 200, 50, 0.05


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    net = enumerate_net(model, r=radius)
    print(f"exact net with {len(net)} candidates (covering radius {radius})")

    plan = ExperimentPlan(Family.ONE_BIT_GAUSSIAN, model, (m,), trials=trials, master_seed=23)
    spec = family_setup(plan).spec
    pgd_errs, hdm_errs, agree = [], [], 0
    for t in range(trials):
        x, inst, y, start = draw_trial(plan, 0, t)
        ref = net[hdm_decode(net, spec, inst, y).index]
        est = run_trial(plan, x, inst, y, start).estimate
        pgd_errs.append(np.linalg.norm(est - x))
        hdm_errs.append(np.linalg.norm(ref - x))
        agree += int(np.linalg.norm(est - ref) < 0.1)

    print(f"mean error over {trials} trials: pgd {np.mean(pgd_errs):.4f}, "
          f"brute force {np.mean(hdm_errs):.4f}")
    print(f"decoders land within 0.1 of each other on {agree}/{trials} trials")


if __name__ == "__main__":
    main()
