"""Generated plan JSON: parsing and family set-up give a valid plan or a ValueError, nothing else.

The CLI turns a ValueError into one ``error:`` line and exit 2, so any other
exception here would end ``quantcs run`` in a traceback. The plans are parsed
and set up but never run.
"""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quantcs import ExperimentPlan, family_setup, plan_from_json  # noqa: E402
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
        setup = family_setup(plan)
    except ValueError:
        return
    assert isinstance(plan, ExperimentPlan)
    assert plan.trials >= 1 and plan.iterations >= 1 and plan.m_grid[0] >= 1
    assert all(type(m) is int for m in plan.m_grid) and list(plan.m_grid) == sorted(set(plan.m_grid))
    assert math.isfinite(setup.eta) and setup.eta > 0
    assert 2 <= setup.spec.levels <= LEVELS_CAP
    assert np.all(np.isfinite(setup.spec.thresholds))


def test_malformed_json_raises_value_error():
    for text in ("", "{", "[1, 2]", "null", '{"family": NaN}', "[" * 200_000):
        with pytest.raises(ValueError):
            plan_from_json(text)
