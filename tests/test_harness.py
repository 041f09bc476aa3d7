import json

import numpy as np
import pytest

from quantcs import (
    CSV_COLUMNS,
    DeltaRule,
    Dither,
    ExperimentPlan,
    Family,
    L1Ball,
    LowRank,
    MatrixKind,
    SignalModel,
    Sparse,
    emit_csv,
    emit_svg_loglog,
    family_setup,
    fit_slope,
    plan_from_json,
    run_experiment,
)
from quantcs.harness import PLAN_COST_CAP


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
                delta_rule=DeltaRule("five_over_l"),
            )  # odd level count
        plan = ExperimentPlan(
            family=Family.DITHERED_ONE_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            lam=1.5,
        )
        assert plan.lam == 1.5

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            tiny_plan(m_grid=(60, 30))
        with pytest.raises(ValueError):
            tiny_plan(m_grid=())

    def test_resource_cap(self):
        # the cost is the sum of m * n * trials * iterations; construction
        # raises, so an over-cap plan never reaches a draw
        m = PLAN_COST_CAP // (12 * 3 * 10)  # n, trials, iterations of tiny_plan
        assert tiny_plan(m_grid=(m,)).m_grid == (m,)
        with pytest.raises(ValueError, match="exceeds the cap"):
            tiny_plan(m_grid=(m + 1,))
        with pytest.raises(ValueError, match="exceeds the cap"):
            tiny_plan(m_grid=(m,), iterations=11)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            tiny_plan(corruption_zeta=1.5)


class TestFamilySetup:
    def test_one_bit_gaussian(self):
        s = family_setup(tiny_plan())
        np.testing.assert_array_equal(s.spec.level_values, [-1.0, 1.0])
        assert s.matrix_kind is MatrixKind.GAUSSIAN
        assert s.dither == Dither.zero()
        assert s.eta == pytest.approx(np.sqrt(np.pi / 2))
        assert s.init == "random_in_model"

    def test_dithered_one_bit(self):
        plan = ExperimentPlan(
            family=Family.DITHERED_ONE_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            lam=1.5,
        )
        s = family_setup(plan)
        np.testing.assert_array_equal(s.spec.level_values, [-1.0, 1.0])
        assert s.matrix_kind is MatrixKind.RADEMACHER
        assert s.dither == Dither.uniform(1.5)
        assert s.eta == 1.5 and s.init == "zero"

    def test_dithered_multi_bit_budget_rule(self):
        plan = ExperimentPlan(
            family=Family.DITHERED_MULTI_BIT,
            model=SignalModel(Sparse(k=1, n=12), 0.0, 1.0),
            m_grid=(30,),
            L=4,
            delta_rule=DeltaRule("five_over_l"),
        )
        s = family_setup(plan)
        np.testing.assert_array_equal(s.spec.thresholds, [-1.25, 0.0, 1.25])
        assert s.spec.levels == 4
        assert s.spec.delta == pytest.approx(1.25)  # 5 / L
        assert s.dither == Dither.uniform(0.625)  # delta / 2
        assert s.eta == 1.0 and s.init == "zero"

    def test_delta_rule_validation(self):
        with pytest.raises(ValueError):
            DeltaRule("fixed")
        with pytest.raises(ValueError):
            DeltaRule("five_over_l", delta=1.0)
        with pytest.raises(ValueError):
            DeltaRule("nope")
        assert DeltaRule("fixed", delta=0.5).resolve(8) == 0.5
        assert DeltaRule("five_over_l").resolve(8) == pytest.approx(0.625)


class TestRunExperiment:
    def test_mean_matches_trial_errors(self):
        res = run_experiment(tiny_plan())
        assert len(res.records) == 6 and len(res.cells) == 2
        for ci, cell in enumerate(res.cells):
            errs = [r.final_error for r in res.records[ci * 3 : (ci + 1) * 3]]
            assert cell.mean_err == pytest.approx(np.mean(errs), abs=1e-12)
            assert cell.trials == 3

    def test_threaded_equals_serial(self):
        serial = run_experiment(tiny_plan(), threads=1)
        threaded = run_experiment(tiny_plan(), threads=3)
        for a, b in zip(serial.records, threaded.records):
            assert a.final_error == b.final_error and a.seed == b.seed
        assert serial.cells == threaded.cells

    def test_trajectory_lengths(self):
        res = run_experiment(tiny_plan(trials=1))
        for r in res.records:
            assert r.per_iterate_errors.shape == (10,)
            assert r.per_iterate_errors[-1] == pytest.approx(r.final_error)

    def test_l1ball_group_key_uses_squared_radius(self):
        plan = ExperimentPlan(
            family=Family.ONE_BIT_GAUSSIAN,
            model=SignalModel(L1Ball(radius=float(np.sqrt(10.0)), n=20), 1.0, 1.0),
            m_grid=(40,),
            trials=2,
            iterations=5,
        )
        cell = run_experiment(plan).cells[0]
        assert cell.k_or_r == pytest.approx(10.0)
        assert cell.slope_group == "one_bit_gaussian:k_or_r=10:L=2"

    def test_corrupted_runs_record_zeta(self):
        res = run_experiment(tiny_plan(corruption_zeta=0.1))
        assert all(c.zeta == 0.1 for c in res.cells)


class TestFitSlope:
    def test_exact_inverse_law(self):
        pts = [(m, 100.0 / m) for m in (100, 200, 400, 800)]
        slope, _, r2 = fit_slope(pts)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_exact_cube_root_law(self):
        pts = [(m, 5.0 * m ** (-1.0 / 3.0)) for m in (100, 300, 900)]
        slope, _, r2 = fit_slope(pts)
        assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_errors(self):
        slope, _, r2 = fit_slope([(100, 0.25), (200, 0.25), (400, 0.25)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0  # zero-residual convention

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1)])
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1), (200, -0.1)])
        with pytest.raises(ValueError):
            fit_slope([(100, 0.1), (100, 0.2)])


class TestEmission:
    def test_csv_schema_and_determinism(self, tmp_path):
        res = run_experiment(tiny_plan())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(res.cells, str(p1))
        emit_csv(res.cells, str(p2))
        text = p1.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + len(res.cells)
        for line in lines[1:]:
            assert len(line.split(",")) == 12
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_row_values(self, tmp_path):
        res = run_experiment(tiny_plan())
        path = tmp_path / "cells.csv"
        emit_csv(res.cells, str(path))
        row = path.read_text().strip().split("\n")[1].split(",")
        cell = res.cells[0]
        assert row[0] == "one_bit_gaussian"
        assert row[1] == "12" and row[3] == "30" and row[4] == "2"
        assert float(row[9]) == pytest.approx(cell.mean_err, rel=1e-11)
        assert row[11] == "one_bit_gaussian:k_or_r=3:L=2"

    def test_svg_deterministic_and_grouped(self, tmp_path):
        res = run_experiment(tiny_plan())
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_loglog(res.cells, str(p1))
        emit_svg_loglog(res.cells, str(p2))
        text = p1.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline ") == 1  # single slope group
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg_loglog([], str(tmp_path / "x.svg"))


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
        assert plan.L == 8
        assert plan.delta_rule.resolve(8) == pytest.approx(0.625)

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
