"""Generated plan JSON: parsing gives a valid plan or a ValueError, nothing else, and a valid plan runs.

The CLI turns a ValueError into one ``error:`` line and exit 2, so any other
exception here would end ``quantcs run`` in a traceback.  A plan checks itself
by building its quantizer and PGD settings, so every plan that parses holds its
setup, and a small one can be drawn and decoded without an error or a warning.
"""

import json
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quantcs import ExperimentPlan, draw_trial, plan_from_json, run_trial  # noqa: E402
from quantcs.harness import LEVELS_CAP  # noqa: E402

# edge values next to the ranges the constructors check, and values far past them
BIG_INTS = [0, -1, 2, LEVELS_CAP, LEVELS_CAP + 1, LEVELS_CAP + 2, 10**12, 2**63, 2**127, -(2**127) - 1, 10**400]
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.just({}))
ints = st.one_of(st.sampled_from(BIG_INTS), st.integers(-3, 70), st.integers(), junk)
reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 1.5, 5e-324, 1e308, -0.0, 10**400]),
    st.integers(-3, 3),
    junk,
)

sparse = st.fixed_dictionaries({"structure": st.just("sparse"), "n": ints, "k": ints, "alpha": reals, "beta": reals})
low_rank = st.fixed_dictionaries(
    {"structure": st.just("low_rank"), "n1": ints, "n2": ints, "r": ints, "alpha": reals, "beta": reals}
)
l1_ball = st.fixed_dictionaries({"structure": st.just("l1_ball"), "n": ints, "radius": reals, "alpha": reals, "beta": reals})
delta_rules = st.one_of(
    st.fixed_dictionaries({"rule": st.sampled_from(["fixed", "five_over_l", "other"])}, optional={"delta": reals}),
    junk,
)
FIELDS = {
    "family": st.one_of(st.sampled_from(["one_bit_gaussian", "dithered_one_bit", "dithered_multi_bit"]), junk),
    "model": st.one_of(sparse, low_rank, l1_ball, junk),
    "m_grid": st.one_of(st.lists(ints, max_size=4), junk),
    "L": ints,
    "delta_rule": delta_rules,
    "lambda": reals,
    "trials": ints,
    "iterations": ints,
    "master_seed": ints,
    "corruption_zeta": reals,
    "bogus": junk,
}
# a valid plan of each family, so that most edits reach the checks past the key checks
BALL = {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0}
VALID = {
    "one_bit_gaussian": {"model": {**BALL, "alpha": 1.0}},
    "dithered_one_bit": {"model": BALL, "lambda": 1.5},
    "dithered_multi_bit": {"model": BALL, "L": 4, "delta_rule": {"rule": "five_over_l"}},
}


@st.composite
def plans(draw, key):
    """A valid plan with ``key`` and maybe one more field replaced and, one time in ten, a key dropped."""
    family = draw(st.sampled_from(sorted(VALID)))
    obj = {"family": family, "m_grid": [30, 60], **VALID[family]}
    for k in [key, *draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=1))]:
        obj[k] = draw(FIELDS[k])
    if draw(st.integers(0, 9)) == 7:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


@pytest.mark.parametrize("key", sorted(FIELDS))
@hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_plan_parses_or_raises_value_error(key, data):
    obj = data.draw(plans(key))
    try:
        plan = plan_from_json(json.dumps(obj))
    except ValueError:
        return
    setup = plan.setup
    assert isinstance(plan, ExperimentPlan)
    assert plan.trials >= 1 and plan.iterations >= 1 and plan.m_grid[0] >= 1
    assert all(type(m) is int for m in plan.m_grid) and list(plan.m_grid) == sorted(set(plan.m_grid))
    assert math.isfinite(setup.eta) and setup.eta > 0
    assert 2 <= setup.spec.levels <= LEVELS_CAP
    assert np.all(np.isfinite(setup.spec.thresholds))


# dither levels and cell widths over the float range, where PGD's steps reach the guards of the l1-ball and
# norm projections and of the gradient (HUGE_STEPS below)
widths = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.sampled_from([5e-324, 1e-300, 2.0**60, 1e200, 1e308])
)
N2_L1_BALL = {"structure": "l1_ball", "n": 2, "radius": math.sqrt(2), "alpha": 1.0, "beta": 1.0}
HUGE_DELTA = {"family": "dithered_multi_bit", "model": BALL, "L": 8, "delta_rule": {"rule": "fixed", "delta": 1e308}}


@st.composite
def small_models(draw):
    """A sparse, low-rank or l1-ball model with n <= 40, its sizes and radius mostly in range."""
    structure = draw(st.sampled_from(["sparse", "low_rank", "l1_ball"]))
    if structure == "low_rank":
        return {"structure": structure, "n1": draw(st.integers(1, 6)), "n2": draw(st.integers(1, 6)), "r": draw(st.integers(1, 7))}
    n = draw(st.integers(1, 40))
    if structure == "sparse":
        return {"structure": structure, "n": n, "k": draw(st.integers(1, n + 1))}
    return {"structure": structure, "n": n, "radius": draw(st.one_of(st.floats(1.0, math.sqrt(n)), st.floats(0.5, 7.0)))}


@st.composite
def small_plans(draw):
    """A plan of n <= 40, m <= 60 and L <= 64, with the family's norm range most of the time."""
    family = draw(st.sampled_from(sorted(VALID)))
    model = draw(small_models())
    sphere = family == "one_bit_gaussian"
    alpha, beta = draw(st.sampled_from([(1.0, 1.0) if sphere else (0.0, 1.0)] * 4 + [(0.5, 2.0)]))
    obj = {"family": family, "model": {**model, "alpha": alpha, "beta": beta}, "trials": 1, "iterations": 1}
    obj["m_grid"] = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=3)))
    obj["master_seed"] = draw(st.integers(-(2**127), 2**127 - 1))
    obj["corruption_zeta"] = draw(st.sampled_from([0.0, 0.0, 0.05, 1.0]))
    if family == "dithered_one_bit":
        obj["lambda"] = draw(widths)
    elif family == "dithered_multi_bit":
        obj["L"] = draw(st.one_of(st.integers(1, 32).map(lambda h: 2 * h), st.integers(1, 64)))
        if draw(st.booleans()):
            obj["delta_rule"] = {"rule": "fixed", "delta": draw(widths)}
    return obj


# one-cell plans whose every measurement is flipped, so PGD's first step is the dither level (or the level
# span) times a sign pattern: the l1-ball threshold w_1 - radius rounds to w_1, a norm squares entries past
# 1e154, and A^T d sums m residuals of up to the level span
HUGE_STEPS = {
    "l1_ball_lambda_2**60": ("dithered_one_bit", {"structure": "l1_ball", "n": 2, "radius": 1.0}, {"lambda": 2.0**60}, [1]),
    "sparse_lambda_1e200": ("dithered_one_bit", {"structure": "sparse", "n": 12, "k": 3}, {"lambda": 1e200}, [1]),
    "multi_bit_span_1e308": ("dithered_multi_bit", BALL, {"L": 2, "delta_rule": {"rule": "fixed", "delta": 1e308}}, [60]),
    # an l1-ball iterate whose l1 norm overflows, and a low-rank one whose SVD's sums do
    "l1_ball_lambda_4e307": ("dithered_one_bit", {"structure": "l1_ball", "n": 20, "radius": 2.0}, {"lambda": 4e307}, [1]),
    "low_rank_span_1e308": (
        "dithered_multi_bit",
        {"structure": "low_rank", "n1": 3, "n2": 4, "r": 1},
        {"L": 2, "delta_rule": {"rule": "fixed", "delta": 1e308}},
        [1],
    ),
}


def huge_step_plan(family, model, extra, m_grid):
    """The JSON object of a ``HUGE_STEPS`` case: one trial of one iteration, every bit flipped."""
    obj = {"family": family, "model": {**model, "alpha": 0.0, "beta": 1.0}, "m_grid": m_grid, "corruption_zeta": 1.0}
    return {**obj, **extra, "trials": 1, "iterations": 1}


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(obj=small_plans())
@hypothesis.example(obj={"family": "one_bit_gaussian", "model": N2_L1_BALL, "m_grid": [5, 9], "trials": 1, "iterations": 1})
@hypothesis.example(obj={**HUGE_DELTA, "m_grid": [30], "trials": 1, "iterations": 1})
@hypothesis.example(obj=huge_step_plan(*HUGE_STEPS["l1_ball_lambda_4e307"]))
@hypothesis.example(obj=huge_step_plan(*HUGE_STEPS["low_rank_span_1e308"]))
def test_plan_that_constructs_can_be_drawn_and_decoded(obj):
    # pinned: an l1-ball plan at n = 2, where c can only be 1, a multi-bit plan
    # whose cell width is finite but whose level span is not, and the l1-ball and
    # low-rank HUGE_STEPS plans, whose projections take iterates near the float maximum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            plan = plan_from_json(json.dumps(obj))
        except ValueError:
            return
        for cell in draw_trial(plan, 0):
            result = run_trial(plan, *cell)
            assert result.errors.shape == (1,) and np.isfinite(result.errors[0])


@pytest.mark.parametrize("family, model, extra, m_grid", HUGE_STEPS.values(), ids=HUGE_STEPS.keys())
def test_huge_step_decodes(family, model, extra, m_grid):
    plan = plan_from_json(json.dumps(huge_step_plan(family, model, extra, m_grid)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(run_trial(plan, *next(draw_trial(plan, 0))).errors).all()


def test_malformed_json_raises_value_error():
    for text in ("", "{", "[1, 2]", "null", '{"family": NaN}', "[" * 200_000):
        with pytest.raises(ValueError):
            plan_from_json(text)
