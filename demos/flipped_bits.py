"""Recovery under adversarially flipped measurement bits.

Flips a fixed fraction of the one-bit measurements before decoding and
tracks the mean recovery error as the corruption fraction grows. The
gradient step treats disagreeing bits the same way whether they come from
quantization or corruption, so the error degrades smoothly rather than
collapsing. Each row is a one-cell ``one_bit_gaussian`` plan with its
``corruption_zeta``, run by ``run_experiment``.
"""

from quantcs import ExperimentPlan, Family, SignalModel, Sparse, run_experiment

n, k, m, trials = 300, 3, 900, 25


def main():
    model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)

    print(f"{'flip fraction':>14} {'mean error':>12}")
    for zeta in (0.0, 0.02, 0.05, 0.1, 0.2):
        plan = ExperimentPlan(
            family=Family.ONE_BIT_GAUSSIAN,
            model=model,
            m_grid=(m,),
            trials=trials,
            master_seed=41,
            corruption_zeta=zeta,
        )
        print(f"{zeta:>14.2f} {run_experiment(plan).cells[0].mean_err:>12.4f}")


if __name__ == "__main__":
    main()
