"""Trading quantizer levels against measurement count at a fixed bit budget.

With the saturated quantizer at resolution 5/L, theory predicts the error
scales like 1/(m L): doubling the number of levels while halving the number
of measurements should leave the error roughly unchanged, as long as L stays
moderate. Pushing L very high at a tiny m breaks the balance because too few
rows remain to pin down the support. Both effects show up in this table.
Each row is a one-cell ``dithered_multi_bit`` plan at the default cell width
5/L, run by ``run_experiment``.
"""

from quantcs import ExperimentPlan, Family, SignalModel, Sparse, run_experiment

n, k, trials = 500, 3, 30


def mean_error(L, m):
    plan = ExperimentPlan(
        family=Family.DITHERED_MULTI_BIT,
        model=SignalModel(Sparse(k=k, n=n), alpha=0.0, beta=1.0),
        m_grid=(m,),
        L=L,
        trials=trials,
        master_seed=17,
    )
    return run_experiment(plan).cells[0].mean_err


def main():
    print(f"{'L':>4} {'m':>6} {'m*L':>7} {'mean error':>12}")
    for L, m in [(2, 400), (4, 200), (8, 100), (16, 50), (32, 25)]:
        err = mean_error(L, m)
        print(f"{L:>4} {m:>6} {m * L:>7} {err:>12.4f}")


if __name__ == "__main__":
    main()
