"""Gradient descent against the exhaustive Hamming decoder at desk scale.

At n = 6, k = 1 the model set is small enough to cover with an exact net
(the signed scaled basis vectors plus nothing else), so the ideal decoder
is computable: scan every candidate and keep the one whose quantized
measurements disagree with y in the fewest positions. This script races the
two decoders over a batch of trials and reports how close each lands to the
truth and how often they pick the same point.
"""

import numpy as np

from quantcs import (
    Family,
    PgdConfig,
    SignalModel,
    Sparse,
    default_step_size,
    enumerate_net,
    gen_signal,
    hdm_decode,
    make_sign,
    measure,
    pgd_recover,
    random_in_model,
    sample_instance,
)
from quantcs.rng import derive_seed
from quantcs.sensing import MatrixKind

n, k, m, trials, radius = 6, 1, 200, 50, 0.05


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
    net = enumerate_net(model, r=radius)
    print(f"exact net with {len(net)} candidates (covering radius {radius})")

    spec = make_sign()
    eta = default_step_size(Family.ONE_BIT_GAUSSIAN)
    pgd_errs, hdm_errs, agree = [], [], 0
    for t in range(trials):
        x = gen_signal(model, derive_seed(23, t, "signal"))
        inst = sample_instance(
            MatrixKind.GAUSSIAN, 0.0, m, n, seed=derive_seed(23, t, "instance")
        )
        y = measure(inst, spec, x)
        ref = net[hdm_decode(net, spec, inst, y).index]
        start = random_in_model(model, seed=derive_seed(23, t, "init"))
        res = pgd_recover(PgdConfig(eta=eta, iterations=100), model, spec, inst, y, start)
        pgd_errs.append(np.linalg.norm(res.estimate - x))
        hdm_errs.append(np.linalg.norm(ref - x))
        agree += int(np.linalg.norm(res.estimate - ref) < 0.1)

    print(f"mean error over {trials} trials: pgd {np.mean(pgd_errs):.4f}, "
          f"brute force {np.mean(hdm_errs):.4f}")
    print(f"decoders land within 0.1 of each other on {agree}/{trials} trials")


if __name__ == "__main__":
    main()
