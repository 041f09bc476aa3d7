import csv
import dataclasses
import hashlib
import json
import math
import mmap
import weakref

import numpy as np
import pytest

from quantcs import (
    CSV_COLUMNS,
    CellStats,
    ExperimentPlan,
    Family,
    L1Ball,
    LowRank,
    MatrixKind,
    PgdConfig,
    SignalModel,
    Sparse,
    TrialRecord,
    corrupt,
    derive_seed,
    draw_trial,
    emit_csv,
    emit_svg_loglog,
    fit_slope,
    gen_signal,
    make_saturated,
    measure,
    pgd_recover,
    plan_from_json,
    random_in_model,
    run_experiment,
    run_trial,
    sample_instance,
)
from quantcs.harness import ERRORS_CAP, LEVELS_CAP, MATRIX_ENTRIES_CAP, PLAN_COST_CAP, THREADS_CAP


def tiny_plan(**overrides):
    # k=3 keeps the recovery error strictly positive, which the log-log
    # emitters require; a 1-sparse sphere model is often recovered exactly
    kwargs = dict(
        family=Family.ONE_BIT_GAUSSIAN,
        model=SignalModel(Sparse(k=3, n=12), 1.0, 1.0),
        m_grid=(30, 60),
        trials=3,
        iterations=10,
        master_seed=123,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def cell_runs(plan):
    """PGD's result on every cell of every trial, by hand from ``draw_trial``, in (cell, trial) order."""
    by_trial = [[run_trial(plan, *cell) for cell in draw_trial(plan, ti)] for ti in range(plan.trials)]
    return [res for cell in zip(*by_trial) for res in cell]


class TestPlanValidation:
    def test_family_parameter_rules(self):
        with pytest.raises(ValueError):
            tiny_plan(lam=1.0)  # one-bit gaussian takes no dither level
        with pytest.raises(ValueError):
            tiny_plan(model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0))  # needs the sphere
        with pytest.raises(ValueError):
            ExperimentPlan(
                family=Family.DITHERED_ONE_BIT,
                model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
                m_grid=(30,),
            )  # missing lambda
        with pytest.raises(ValueError):
            ExperimentPlan(
                family=Family.DITHERED_MULTI_BIT,
                model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
                m_grid=(30,),
                L=3,
            )  # odd level count
        plan = ExperimentPlan(
            family=Family.DITHERED_ONE_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            lam=1.5,
        )
        assert plan.lam == 1.5

    @pytest.mark.parametrize("lam", [1e308, 2.0**1023])
    def test_dither_width_must_be_finite(self, lam):
        # lam itself is finite, but the dither interval [-lam, lam] is 2 * lam wide
        message = "dither level must be a real >= 0 with 2 \\* level finite"
        model = SignalModel(Sparse(k=1, n=12), 0.0, 1.0)
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(family=Family.DITHERED_ONE_BIT, model=model, m_grid=(30,), lam=lam)
        ball = {"structure": "sparse", "n": 12, "k": 1, "alpha": 0.0, "beta": 1.0}
        text = json.dumps({"family": "dithered_one_bit", "model": ball, "m_grid": [30], "lambda": lam})
        with pytest.raises(ValueError, match=message):
            plan_from_json(text)
        assert ExperimentPlan(family=Family.DITHERED_ONE_BIT, model=model, m_grid=(30,), lam=lam / 2).lam == lam / 2

    @pytest.mark.parametrize(
        "lam, message",
        [(-1.0, "needs a positive dither level"), (0.0, "needs a positive dither level"), (True, "lambda must be a number")],
    )
    def test_dither_level_checked(self, lam, message):
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(Family.DITHERED_ONE_BIT, SignalModel(Sparse(k=1, n=12), 0.0, 1.0), (30,), lam=lam)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            tiny_plan(m_grid=(60, 30))
        with pytest.raises(ValueError):
            tiny_plan(m_grid=())

    def test_resource_cap(self):
        # the cost is the sum of m * n * trials * iterations; construction
        # raises, so an over-cap plan never reaches a draw
        m = 1000
        iterations = PLAN_COST_CAP // (12 * 3 * m)  # n and trials of tiny_plan
        assert tiny_plan(m_grid=(m,), iterations=iterations).iterations == iterations
        with pytest.raises(ValueError, match="plan cost .* exceeds the cap"):
            tiny_plan(m_grid=(m + 1,), iterations=iterations)
        with pytest.raises(ValueError, match="plan cost .* exceeds the cap"):
            tiny_plan(m_grid=(m,), iterations=iterations + 1)

    def test_stored_errors_cap(self):
        # a run keeps one final error per trial, len(m_grid) * trials, and a
        # trial's PGD run one error per iteration; m * n = 1 keeps the cost
        # cap from bounding them first
        def plan(m_grid, trials, iterations=1):
            model = SignalModel(Sparse(k=1, n=1), 1.0, 1.0)
            return ExperimentPlan(Family.ONE_BIT_GAUSSIAN, model, m_grid, trials=trials, iterations=iterations)

        assert plan((1,), 2**20, 200).trials == 2**20  # 2**20 finals, 200 errors a trial
        assert plan((1,), ERRORS_CAP).trials == ERRORS_CAP
        assert plan((1, 2), ERRORS_CAP // 2).trials == ERRORS_CAP // 2
        with pytest.raises(ValueError, match=f"stored errors {ERRORS_CAP + 1} .* exceed the cap {ERRORS_CAP}"):
            plan((1,), ERRORS_CAP + 1)
        with pytest.raises(ValueError, match=f"stored errors {ERRORS_CAP + 2} .* exceed the cap {ERRORS_CAP}"):
            plan((1, 2), ERRORS_CAP // 2 + 1)
        assert plan((1,), 2, ERRORS_CAP).iterations == ERRORS_CAP
        with pytest.raises(ValueError, match=f"iterations = {ERRORS_CAP + 1} exceeds the cap {ERRORS_CAP}"):
            plan((1,), 2, ERRORS_CAP + 1)
        with pytest.raises(ValueError, match="iterations = 400000000000 exceeds the cap"):
            plan((1,), 1, 400_000_000_000)

    def test_level_cap(self):
        # a quantizer stores L levels, so an over-cap L must fail before the plan builds its setup
        def multi_bit(levels):
            return ExperimentPlan(
                family=Family.DITHERED_MULTI_BIT,
                model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
                m_grid=(30,),
                L=levels,
            )

        assert multi_bit(LEVELS_CAP).setup.spec.levels == LEVELS_CAP
        for levels in (LEVELS_CAP + 2, 10**12):
            with pytest.raises(ValueError, match="exceeds the cap"):
                multi_bit(levels)

    def test_matrix_cap(self):
        # the largest sensing matrix m * n must fail at construction, before a draw allocates it
        def plan(m_grid, n):
            return tiny_plan(model=SignalModel(Sparse(k=1, n=n), 1.0, 1.0), m_grid=m_grid, trials=1, iterations=1)

        assert plan((1, 2), MATRIX_ENTRIES_CAP // 2).m_grid == (1, 2)
        with pytest.raises(ValueError, match=f"sensing matrix m x n = 2 x {MATRIX_ENTRIES_CAP // 2 + 1} exceeds the cap"):
            plan((1, 2), MATRIX_ENTRIES_CAP // 2 + 1)
        with pytest.raises(ValueError, match="sensing matrix m x n = 1 x 100000000000 exceeds the cap"):
            plan((1,), 10**11)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            tiny_plan(corruption_zeta=1.5)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"m_grid": (40.7,)}, "m_grid entry must be an integer"),
            ({"trials": 2.5}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
            ({"iterations": "7"}, "iterations must be an integer"),
            ({"master_seed": 1.0}, "master_seed must be an integer"),
            ({"master_seed": 2**127}, "master_seed must lie in"),
            ({"master_seed": -(2**127) - 1}, "master_seed must lie in"),
            ({"corruption_zeta": "0.1"}, "corruption_zeta must be a number"),
        ],
    )
    def test_mistyped_fields_rejected_in_code(self, overrides, message):
        # a plan built in code gets the same checks as one parsed from JSON
        with pytest.raises(ValueError, match=message):
            tiny_plan(**overrides)

    def test_mistyped_family_parameters_and_models_rejected(self):
        with pytest.raises(ValueError, match="lambda must be a number"):
            ExperimentPlan(Family.DITHERED_ONE_BIT, SignalModel(Sparse(k=1, n=12), 0.0, 1.0), (30,), lam="1.5")
        with pytest.raises(ValueError, match="L must be an integer"):
            ExperimentPlan(Family.DITHERED_MULTI_BIT, SignalModel(Sparse(k=1, n=12), 0.0, 1.0), (30,), L=4.0)
        with pytest.raises(ValueError, match="delta must be a number"):
            ExperimentPlan(Family.DITHERED_MULTI_BIT, SignalModel(Sparse(k=1, n=12), 0.0, 1.0), (30,), L=4, delta="0.5")
        with pytest.raises(ValueError, match="model alpha must be a number"):
            SignalModel(Sparse(k=3, n=12), True, 1.0)
        with pytest.raises(ValueError, match="model k must be an integer"):
            Sparse(k=2.5, n=12)
        with pytest.raises(ValueError, match="model n2 must be an integer"):
            LowRank(r=1, n1=5, n2=5.0)
        with pytest.raises(ValueError, match="model radius must be a number"):
            L1Ball(radius="3", n=12)

    @pytest.mark.parametrize(
        "n, radius, message",
        [
            (12, 1e10, r"l1 radius 10000000000.0 exceeds sqrt\(n\)"),
            (10, float(np.nextafter(math.sqrt(10), 10)), r"exceeds sqrt\(n\)"),
            (12, 0.5, "l1 radius 0.5 is below 1"),
            (1, 1.0, "the l1-ball draw needs n >= 2"),
        ],
    )
    def test_undrawable_l1_ball_plan_rejected(self, n, radius, message):
        # the plan refuses an l1-ball model gen_signal cannot draw, before any trial
        with pytest.raises(ValueError, match=message):
            tiny_plan(model=SignalModel(L1Ball(radius=radius, n=n), 1.0, 1.0))

    def test_l1_ball_plan_at_radius_sqrt_n_accepted(self):
        # sqrt(10) * sqrt(10) rounds above 10, yet radius sqrt(10) is drawable
        plan = tiny_plan(model=SignalModel(L1Ball(radius=math.sqrt(10), n=10), 1.0, 1.0))
        x, *_ = next(draw_trial(plan, 0))
        np.testing.assert_allclose(np.abs(x).sum(), math.sqrt(10), atol=1e-12)

    def test_numpy_integers_accepted(self):
        plan = tiny_plan(m_grid=tuple(np.array([30, 60])), trials=np.int64(3), master_seed=2**127 - 1)
        assert plan.m_grid == (30, 60) and all(type(m) is int for m in plan.m_grid)


class TestFamilySetup:
    def test_one_bit_gaussian(self):
        s = tiny_plan().setup
        np.testing.assert_array_equal(s.spec.level_values, [-1.0, 1.0])
        assert s.matrix_kind is MatrixKind.GAUSSIAN
        assert s.dither == 0.0
        assert s.eta == pytest.approx(np.sqrt(np.pi / 2))

    def test_dithered_one_bit(self):
        plan = ExperimentPlan(
            family=Family.DITHERED_ONE_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            lam=1.5,
        )
        s = plan.setup
        np.testing.assert_array_equal(s.spec.level_values, [-1.0, 1.0])
        assert s.matrix_kind is MatrixKind.RADEMACHER
        assert s.dither == 1.5
        assert s.eta == 1.5

    def test_dithered_multi_bit_budget_rule(self):
        plan = ExperimentPlan(
            family=Family.DITHERED_MULTI_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            L=4,
        )
        s = plan.setup
        np.testing.assert_array_equal(s.spec.thresholds, [-1.25, 0.0, 1.25])
        assert s.spec.levels == 4
        assert s.spec.delta == pytest.approx(1.25)  # 5 / L
        assert s.dither == 0.625  # delta / 2
        assert s.eta == 1.0

    def test_multi_bit_quantizer_is_built_once_per_plan(self, monkeypatch, tmp_path):
        # the plan builds its quantizer when it is made; no run, draw, decode or emitter builds it again
        plan = tiny_plan(family=Family.DITHERED_MULTI_BIT, model=SignalModel(Sparse(k=3, n=12), 0.0, 1.0), L=4, m_grid=(30, 45, 60))
        calls = []

        def spy(*args):
            calls.append(args)
            return make_saturated(*args)

        monkeypatch.setattr("quantcs.harness.make_saturated", spy)
        cells = run_experiment(plan).cells
        emit_csv(plan, cells, str(tmp_path / "x.csv"))
        emit_svg_loglog(plan, cells, str(tmp_path / "x.svg"))
        for cell in draw_trial(plan, 0):
            run_trial(plan, *cell)
        assert calls == []

    def test_setup_takes_no_part_in_equality_hash_or_repr(self):
        text = json.dumps(
            {
                "family": "dithered_multi_bit",
                "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0},
                "m_grid": [30, 60],
                "L": 4,
            }
        )
        a, b = plan_from_json(text), plan_from_json(text)
        assert a == b and hash(a) == hash(b) and a.setup is not b.setup
        assert "setup" not in repr(a)
        assert dataclasses.replace(a, L=8).setup.spec.levels == 8

    @pytest.mark.parametrize(
        "plan, start",
        [
            (tiny_plan(m_grid=(60,)), "random"),
            (tiny_plan(m_grid=(60,), corruption_zeta=0.05), "random"),
            (tiny_plan(family=Family.DITHERED_ONE_BIT, model=SignalModel(Sparse(k=3, n=12), 0.0, 1.0), m_grid=(60,), lam=1.5), "zero"),
            (
                tiny_plan(
                    family=Family.DITHERED_MULTI_BIT,
                    model=SignalModel(Sparse(k=3, n=12), 0.0, 1.0),
                    m_grid=(60,),
                    L=4,
                ),
                "zero",
            ),
        ],
        ids=["one_bit_gaussian", "one_bit_gaussian_corrupted", "dithered_one_bit", "dithered_multi_bit"],
    )
    def test_start(self, plan, start):
        # a trial starts PGD at a random model member on the sphere and at zero on the ball;
        # draw_trial is this by-hand draw bit for bit, into a given workspace too
        setup, seed = plan.setup, derive_seed(plan.master_seed, 0, 0)
        m, n = plan.m_grid[0], plan.model.ambient_dim
        x = gen_signal(plan.model, seed)
        inst = sample_instance(setup.matrix_kind, setup.dither, m, n, seed)
        y = measure(inst, setup.spec, x)
        if plan.corruption_zeta > 0:
            y = corrupt(y, setup.spec, plan.corruption_zeta, seed)
        u = random_in_model(plan.model, seed) if start == "random" else np.zeros(n)
        workspace = np.empty(m * n, dtype=setup.matrix_kind.dtype)
        for buffer in (None, workspace):
            dx, dinst, dy, du = next(draw_trial(plan, 0, buffer))
            for got, want in ((dx, x), (dinst.matrix, inst.matrix), (dinst.dither, inst.dither), (dy, y), (du, u)):
                assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.shares_memory(dinst.matrix, workspace)
        config = PgdConfig(eta=setup.eta, iterations=plan.iterations)
        by_hand = pgd_recover(config, plan.model, setup.spec, inst, y, u, truth=x)
        res = run_trial(plan, *next(draw_trial(plan, 0)))
        for got, want in ((res.estimate, by_hand.estimate), (res.errors, by_hand.errors)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_delta_rule_validation(self):
        def multi_bit(**overrides):
            return ExperimentPlan(Family.DITHERED_MULTI_BIT, SignalModel(Sparse(k=1, n=12), 0.0, 1.0), (30,), L=8, **overrides)

        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="delta must be a positive finite real"):
                multi_bit(delta=bad)
        with pytest.raises(ValueError, match="takes no L or delta"):
            tiny_plan(family=Family.DITHERED_ONE_BIT, model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0), lam=1.5, delta=0.5)
        with pytest.raises(ValueError, match="takes no lambda, L, or delta"):
            tiny_plan(delta=0.5)
        assert multi_bit(delta=0.5).setup.spec.delta == 0.5
        assert multi_bit().setup.spec.delta == 0.625  # 5 / L


def csv_rows(plan, tmp_path):
    """The rows of the CSV that ``emit_csv`` writes for a run of ``plan``, as dicts."""
    path = tmp_path / "cells.csv"
    emit_csv(plan, run_experiment(plan).cells, str(path))
    return list(csv.DictReader(path.read_text().splitlines()))


class TestRunExperiment:
    def test_mean_matches_trial_errors(self):
        plan = tiny_plan()
        res = run_experiment(plan)
        assert len(res.records) == 6 and len(res.cells) == 2
        for i, (r, by_hand) in enumerate(zip(res.records, cell_runs(plan), strict=True)):
            # a record is its trial's (m, final error), two Python numbers and no array
            assert type(r) is TrialRecord and r == (plan.m_grid[i // 3], by_hand.errors[-1])
            assert type(r.m) is int and type(r.final_error) is float
        for ci, cell in enumerate(res.cells):
            errs = [r.final_error for r in res.records[ci * 3 : (ci + 1) * 3]]
            assert cell.mean_err == pytest.approx(np.mean(errs), abs=1e-12)
            assert cell.stderr == pytest.approx(np.std(errs, ddof=1) / np.sqrt(3), abs=1e-12)

    def test_threaded_equals_serial(self):
        # records come back in (cell, trial) order, whatever thread ran them
        plan = tiny_plan()
        serial = run_experiment(plan, threads=1)
        threaded = run_experiment(plan, threads=3)
        by_hand = [res.errors for res in cell_runs(plan)]
        assert serial.records == threaded.records == [(plan.m_grid[i // 3], e[-1]) for i, e in enumerate(by_hand)]
        assert serial.cells == threaded.cells
        # a trial's per-iterate errors repeat bit for bit
        assert [res.errors.tobytes() for res in cell_runs(plan)] == [e.tobytes() for e in by_hand]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_trials_draw_into_one_buffer_per_worker(self, monkeypatch, threads):
        plan = tiny_plan(trials=4, m_grid=(30, 45, 60))
        fresh = cell_runs(plan)
        real, addresses = sample_instance, []

        def spy(*args, out=None):
            addresses.append(out.ctypes.data)
            assert args[2] == 60 and out.size == 60 * 12  # each trial is drawn once, at the largest m
            return real(*args, out=out)

        monkeypatch.setattr("quantcs.harness.sample_instance", spy)
        res = run_experiment(plan, threads=threads)
        assert len(addresses) == 4 and len(set(addresses)) <= threads
        assert [r.final_error for r in res.records] == [f.errors[-1] for f in fresh]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_workspace_is_a_mapping_released_on_return(self, monkeypatch, threads):
        # each worker's buffer is its own anonymous mapping, unmapped once the run returns
        plan = tiny_plan(trials=4, m_grid=(30, 45, 60))
        fresh = cell_runs(plan)
        real, mappings = sample_instance, []

        def spy(*args, out=None):
            mapping = out.base.obj
            assert isinstance(mapping, mmap.mmap)
            if not any(ref() is mapping for ref in mappings):
                mappings.append(weakref.ref(mapping))
            return real(*args, out=out)

        monkeypatch.setattr("quantcs.harness.sample_instance", spy)
        res = run_experiment(plan, threads=threads)
        assert 1 <= len(mappings) <= threads
        assert all(ref() is None for ref in mappings)
        assert [r.final_error for r in res.records] == [f.errors[-1] for f in fresh]

    @pytest.mark.parametrize("family, dtype", [(Family.ONE_BIT_GAUSSIAN, np.float64), (Family.DITHERED_ONE_BIT, np.int8)])
    def test_workspace_dtype_follows_matrix_kind(self, monkeypatch, family, dtype):
        # a Rademacher plan's buffer holds one byte per entry
        alpha, lam = (1.0, None) if family is Family.ONE_BIT_GAUSSIAN else (0.0, 1.5)
        plan = tiny_plan(family=family, model=SignalModel(Sparse(k=3, n=12), alpha, 1.0), lam=lam, trials=2)
        real, dtypes = sample_instance, []

        def spy(*args, out=None):
            dtypes.append(out.dtype)
            return real(*args, out=out)

        monkeypatch.setattr("quantcs.harness.sample_instance", spy)
        run_experiment(plan)
        assert dtypes == [np.dtype(dtype)] * 2

    def test_thread_count_checked_before_any_pool(self, monkeypatch):
        plan = tiny_plan(trials=1)  # one task per trial, so no call here can start more than one thread
        serial = run_experiment(plan)
        assert run_experiment(plan, threads=THREADS_CAP).cells == serial.cells
        assert run_experiment(plan, threads=np.int64(2)).cells == serial.cells

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for a rejected thread count")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        for threads, message in [
            (2.5, "threads must be an integer, got 2.5"),
            ("2", "threads must be an integer, got '2'"),
            (True, "threads must be an integer, got True"),
            (0, rf"threads must be in \[1, {THREADS_CAP}\], got 0"),
            (THREADS_CAP + 1, rf"threads must be in \[1, {THREADS_CAP}\], got {THREADS_CAP + 1}"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_experiment(plan, threads=threads)

    def test_each_trial_is_drawn_once(self, monkeypatch):
        # a comparison over every cell of every trial draws each trial's matrix
        # once, at the largest m, and run_trial draws nothing; so does a run
        plan = tiny_plan(m_grid=(30, 45, 60))
        real, rows = sample_instance, []

        def spy(*args, **kwargs):
            rows.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr("quantcs.harness.sample_instance", spy)
        for ti in range(plan.trials):
            for x, inst, y, start in draw_trial(plan, ti):
                run_trial(plan, x, inst, y, start)
            assert rows == [60] * (ti + 1)
        rows.clear()
        run_experiment(plan)
        assert rows == [60] * plan.trials

    def test_trajectory_lengths(self):
        plan = tiny_plan(trials=1)
        for r, by_hand in zip(run_experiment(plan).records, cell_runs(plan), strict=True):
            assert by_hand.errors.shape == (10,)
            assert by_hand.errors[-1] == r.final_error

    def test_l1ball_group_key_uses_squared_radius(self, tmp_path):
        plan = ExperimentPlan(
            family=Family.ONE_BIT_GAUSSIAN,
            model=SignalModel(L1Ball(radius=float(np.sqrt(10.0)), n=20), 1.0, 1.0),
            m_grid=(40,),
            trials=2,
            iterations=5,
        )
        row = csv_rows(plan, tmp_path)[0]
        assert float(row["k_or_r"]) == pytest.approx(10.0)
        assert row["slope_group"] == "one_bit_gaussian:k_or_r=10:L=2"

    def test_corrupted_runs_record_zeta(self, tmp_path):
        assert [row["zeta"] for row in csv_rows(tiny_plan(corruption_zeta=0.1), tmp_path)] == ["0.1", "0.1"]


def three_cell_plans():
    # n = 13 and odd m give odd m * n, so a Rademacher draw ends on half a PCG64 word
    ball = SignalModel(Sparse(k=3, n=13), 0.0, 1.0)
    common = dict(model=SignalModel(Sparse(k=3, n=13), 1.0, 1.0), m_grid=(31, 46, 61), trials=3)
    return [
        tiny_plan(**common),
        tiny_plan(**common, corruption_zeta=0.1),
        tiny_plan(**{**common, "model": ball}, family=Family.DITHERED_ONE_BIT, lam=1.5),
        tiny_plan(**{**common, "model": ball}, family=Family.DITHERED_MULTI_BIT, L=4),
    ]


THREE_CELL_IDS = ["one_bit_gaussian", "one_bit_gaussian_corrupted", "dithered_one_bit", "dithered_multi_bit"]


class TestTrialDraws:
    """Every cell of a trial decodes a row prefix of the trial's one draw."""

    @pytest.mark.parametrize("plan", three_cell_plans(), ids=THREE_CELL_IDS)
    @pytest.mark.parametrize("threads", [1, 3])
    def test_cells_do_not_depend_on_the_grid(self, plan, threads):
        cells = run_experiment(plan, threads=threads).cells
        for ci, m in enumerate(plan.m_grid):
            alone = run_experiment(dataclasses.replace(plan, m_grid=(m,)), threads=threads).cells
            assert cells[ci] == alone[0]

    @pytest.mark.parametrize("plan", three_cell_plans(), ids=THREE_CELL_IDS)
    def test_draw_trial_is_a_row_prefix(self, plan):
        setup, n = plan.setup, plan.model.ambient_dim
        for ti in range(2):
            cells = list(draw_trial(plan, ti))
            lx, linst, _, lstart = cells[-1]
            for (x, inst, y, start), m in zip(cells, plan.m_grid, strict=True):
                fresh = sample_instance(setup.matrix_kind, setup.dither, m, n, derive_seed(plan.master_seed, 0, ti))
                assert x.tobytes() == lx.tobytes() and start.tobytes() == lstart.tobytes()
                for got, prefix, want in ((inst.matrix, linst.matrix, fresh.matrix), (inst.dither, linst.dither, fresh.dither)):
                    assert got.dtype == want.dtype and got.shape == want.shape == prefix[:m].shape
                    assert got.tobytes() == prefix[:m].tobytes() == want.tobytes()
                assert (inst.dither != 0).all() == (setup.dither > 0)
                assert y.size == m

    def test_each_decode_follows_its_own_signal_draw(self, monkeypatch):
        # perfbench/spans.py opens a trial at each gen_signal call, so a run must
        # call it once before each decode, and draw the matrix right after the first
        plan = tiny_plan(m_grid=(30, 45, 60))
        events = []

        def spy(name, real):
            def call(*args, **kwargs):
                events.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(f"quantcs.harness.{real.__name__}", call)

        spy("gen", gen_signal)
        spy("draw", sample_instance)
        spy("decode", pgd_recover)
        run_experiment(plan)
        assert events == ["gen", "draw", "decode", "gen", "decode", "gen", "decode"] * plan.trials

    @pytest.mark.parametrize(
        "plan, pins",
        [
            (
                tiny_plan(),
                [
                    ("58764cb0738a", "38fe3d0fa4d7", "2dfba6338170", "a2439f763a01"),
                    ("58764cb0738a", "9d190c6fd020", "4b48f21a4b7a", "ee488c8dbfee"),
                ],
            ),
            (
                tiny_plan(family=Family.DITHERED_ONE_BIT, model=SignalModel(Sparse(k=3, n=12), 0.0, 1.0), lam=1.5),
                [
                    ("1629901221f4", "22a5e90e392d", "5e1fed87cbec", "a437a2c72eb6"),
                    ("1629901221f4", "1ac1672248e5", "3d7f9aff2297", "4541d112f0a2"),
                ],
            ),
            (
                tiny_plan(family=Family.DITHERED_MULTI_BIT, model=SignalModel(Sparse(k=3, n=12), 0.0, 1.0), L=4),
                [
                    ("1629901221f4", "22a5e90e392d", "9091ef6e9cb7", "5decc80476ee"),
                    ("1629901221f4", "1ac1672248e5", "277e3065421d", "2102aa437393"),
                ],
            ),
        ],
        ids=["one_bit_gaussian", "dithered_one_bit", "dithered_multi_bit"],
    )
    def test_trial_draws_are_pinned(self, plan, pins):
        # SHA-256 prefixes of (x, matrix, dither, y) of trial 0 in cells 0 and 1: a
        # change to any trial stream must update these and say so
        got = []
        for x, inst, y, _ in draw_trial(plan, 0):
            got.append(tuple(hashlib.sha256(a.tobytes()).hexdigest()[:12] for a in (x, inst.matrix, inst.dither, y)))
        assert got == pins


class TestFitSlope:
    def test_exact_inverse_law(self):
        pts = [(m, 100.0 / m) for m in (100, 200, 400, 800)]
        slope, r2 = fit_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_exact_cube_root_law(self):
        pts = [(m, 5.0 * m ** (-1.0 / 3.0)) for m in (100, 300, 900)]
        slope, r2 = fit_slope(pts)
        assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_errors(self):
        slope, r2 = fit_slope([(100, 0.25), (200, 0.25), (400, 0.25)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0  # zero-residual convention

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1)])
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1), (200, -0.1)])
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1), (100, 0.2)])
        for bad in ([(1, float("nan")), (2, 1.0)], [(100, 0.1), (200, float("inf"))], [(100, 0.1), (float("inf"), 0.2)]):
            with pytest.raises(ValueError):
                fit_slope(bad)


class TestEmission:
    def test_csv_schema_and_determinism(self, tmp_path):
        plan = tiny_plan()
        res = run_experiment(plan)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(plan, res.cells, str(p1))
        emit_csv(plan, res.cells, str(p2))
        text = p1.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + len(res.cells)
        for line in lines[1:]:
            assert len(line.split(",")) == 12
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_row_values(self, tmp_path):
        plan = tiny_plan()
        res = run_experiment(plan)
        path = tmp_path / "cells.csv"
        emit_csv(plan, res.cells, str(path))
        row = path.read_text().strip().split("\n")[1].split(",")
        cell = res.cells[0]
        assert row[0] == "one_bit_gaussian"
        assert row[1] == "12" and row[2] == "3" and row[3] == "30" and row[4] == "2"
        assert row[5] == "2" and row[6] == "0" and row[7] == "0" and row[8] == "3"  # sign delta, no dither or flips
        assert float(row[9]) == pytest.approx(cell.mean_err, rel=1e-11)
        assert float(row[10]) == pytest.approx(cell.stderr, rel=1e-11)
        assert row[11] == "one_bit_gaussian:k_or_r=3:L=2"

    def test_svg_deterministic_and_grouped(self, tmp_path):
        plan = tiny_plan()
        res = run_experiment(plan)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_loglog(plan, res.cells, str(p1))
        emit_svg_loglog(plan, res.cells, str(p2))
        text = p1.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline ") == 1 and text.count("<circle ") == 2
        assert ">one_bit_gaussian:k_or_r=3:L=2</text>" in text  # the line's label is the plan's slope group
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_omits_zero_error_cells(self, tmp_path):
        # a cell recovered exactly has no place on a log scale; the label counts what was left out
        plan = tiny_plan(m_grid=(30, 60, 120))
        cells = [CellStats(30, 0.2, 0.01), CellStats(60, 0.0, 0.0), CellStats(120, 0.05, 0.002)]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_loglog(plan, cells, str(p1))
        emit_svg_loglog(plan, cells, str(p2))
        text = p1.read_text()
        assert text.count("<polyline ") == 1 and text.count("<circle ") == 2
        assert ">one_bit_gaussian:k_or_r=3:L=2 (1 of 3 cells with mean error 0 omitted)</text>" in text
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "cells, pin",
        [
            (
                [CellStats(m, 3.0 / m**0.5, 0.001) for m in (10, 20, 40, 80, 160, 320, 5000)],
                "a0a36cdd4a6dce1795f328761702461c164a32e8b40ff7cf729454eab1a5ec6a",
            ),
            (
                [CellStats(30, 0.2, 0.01), CellStats(60, 0.0, 0.0), CellStats(120, 0.05, 0.002)],
                "ac82825273fd5662284f70ab52ecd4902c763c46d09aac9f74f46e1119647bc4",
            ),
            ([CellStats(50, 0.25, 0.0)], "c9b9fcb85a40e137dd0e2199bc79ec8aa1f9aa807ec3054d2e89a1e867ed24d2"),
        ],
        ids=["all_positive", "some_zero", "one_cell"],
    )
    def test_svg_bytes_are_pinned(self, tmp_path, cells, pin):
        # decade ticks on x with three fallback ticks on y, a cell left out, and a single point
        path = tmp_path / "x.svg"
        emit_svg_loglog(tiny_plan(), cells, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pin

    def test_svg_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg_loglog(tiny_plan(), [], str(tmp_path / "x.svg"))


class TestPlanFromJson:
    def test_round_trip(self):
        text = json.dumps(
            {
                "family": "dithered_one_bit",
                "model": {"structure": "sparse", "n": 12, "k": 1, "alpha": 0.0, "beta": 1.0},
                "m_grid": [30, 60],
                "lambda": 1.5,
                "trials": 3,
                "iterations": 10,
                "master_seed": 9,
            }
        )
        plan = plan_from_json(text)
        assert plan.family is Family.DITHERED_ONE_BIT
        assert plan.lam == 1.5 and plan.m_grid == (30, 60)
        assert plan.model.structure == Sparse(k=1, n=12)

    def test_multi_bit_delta_rule(self):
        text = json.dumps(
            {
                "family": "dithered_multi_bit",
                "model": {"structure": "sparse", "n": 12, "k": 1, "alpha": 0.0, "beta": 1.0},
                "m_grid": [30],
                "L": 8,
                "delta_rule": {"rule": "five_over_l"},
            }
        )
        plan = plan_from_json(text)
        assert plan.L == 8 and plan.delta is None
        assert plan.setup.spec.delta == 0.625  # 5 / L
        obj = json.loads(text)
        assert plan_from_json(json.dumps({**obj, "delta_rule": {"rule": "fixed", "delta": 0.5}})).delta == 0.5
        assert plan_from_json(json.dumps({**obj, "delta_rule": {"rule": "five_over_l", "delta": None}})).delta is None
        del obj["delta_rule"]
        assert plan_from_json(json.dumps(obj)) == plan  # absent means five_over_l

    @pytest.mark.parametrize(
        "family, rule, message",
        [
            ("dithered_multi_bit", {"rule": "nope"}, "unknown delta rule 'nope'"),
            ("dithered_multi_bit", {"delta": 0.5}, "unknown delta rule None"),
            ("dithered_multi_bit", {"rule": "fixed"}, "a fixed delta rule needs a delta"),
            ("dithered_multi_bit", {"rule": "fixed", "delta": None}, "a fixed delta rule needs a delta"),
            ("dithered_multi_bit", {"rule": "five_over_l", "delta": 0.5}, "five_over_l takes none"),
            ("dithered_multi_bit", {"rule": "fixed", "delta": -0.5}, "delta must be a positive finite real"),
            ("dithered_multi_bit", {"rule": "fixed", "delta": "0.5"}, "delta must be a number"),
            ("dithered_multi_bit", ["five_over_l"], "delta_rule must be an object"),
            ("dithered_multi_bit", {"rule": "fixed", "delta": 0.5, "x": 1}, "unknown delta_rule keys"),
            ("dithered_one_bit", {"rule": "five_over_l"}, "dithered_one_bit takes no delta rule"),
        ],
    )
    def test_bad_delta_rule(self, family, rule, message):
        obj = {
            "family": family,
            "model": {"structure": "sparse", "n": 12, "k": 1, "alpha": 0.0, "beta": 1.0},
            "m_grid": [30],
            "delta_rule": rule,
            **({"L": 8} if family == "dithered_multi_bit" else {"lambda": 1.5}),
        }
        with pytest.raises(ValueError, match=message):
            plan_from_json(json.dumps(obj))

    def test_low_rank_model(self):
        text = json.dumps(
            {
                "family": "one_bit_gaussian",
                "model": {"structure": "low_rank", "n1": 5, "n2": 5, "r": 1, "alpha": 1.0, "beta": 1.0},
                "m_grid": [40],
            }
        )
        assert plan_from_json(text).model.structure == LowRank(r=1, n1=5, n2=5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            plan_from_json('{"family": "one_bit_gaussian", "m_grid": [30], "bogus": 1}')
        with pytest.raises(ValueError):
            plan_from_json(
                json.dumps(
                    {
                        "family": "one_bit_gaussian",
                        "model": {"structure": "sparse", "n": 12, "k": 1, "alpha": 1.0, "beta": 1.0, "x": 2},
                        "m_grid": [30],
                    }
                )
            )

    def test_missing_required_keys(self):
        with pytest.raises(ValueError):
            plan_from_json('{"family": "one_bit_gaussian"}')
        with pytest.raises(ValueError):
            plan_from_json('{"family": "no_such_family", "model": {}, "m_grid": [30]}')
