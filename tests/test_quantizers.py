import dataclasses
import warnings

import numpy as np
import pytest

from quantcs import QuantizerSpec, level_index, make_saturated, make_sign, quantize_vec
from quantcs.verify import _uniform_reference

rng = np.random.default_rng(42)


class TestConstructors:
    def test_sign_spec(self):
        s = make_sign()
        np.testing.assert_array_equal(s.thresholds, [0.0])
        np.testing.assert_array_equal(s.level_values, [-1.0, 1.0])
        assert s.delta == 2.0 and s.levels == 2

    def test_saturated_four_levels(self):
        s = make_saturated(1.0, 4)
        np.testing.assert_array_equal(s.thresholds, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(s.level_values, [-1.5, -0.5, 0.5, 1.5])
        assert s.delta == 1.0 and s.levels == 4
        assert [f.name for f in dataclasses.fields(s)] == ["thresholds", "level_values"]

    def test_odd_levels_rejected(self):
        with pytest.raises(ValueError):
            make_saturated(1.0, 5)
        with pytest.raises(ValueError):
            make_saturated(1.0, 0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuantizerSpec(thresholds=[0.0, 1.0], level_values=[0.0, 1.0, 1.5])  # uneven gaps
        with pytest.raises(ValueError):
            QuantizerSpec(thresholds=[1.0, 0.0], level_values=[0.0, 1.0, 2.0])  # unordered
        with pytest.raises(ValueError):
            QuantizerSpec(thresholds=None, level_values=[0.0, 1.0])
        # make_saturated checks its arguments before building any array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for delta, levels, message in [
                (0.0, 4, "delta must be a positive finite real"),
                (-1.0, 4, "delta must be a positive finite real"),
                (np.inf, 4, "delta must be a positive finite real"),
                (np.nan, 4, "delta must be a positive finite real"),
                ("1", 4, "delta must be a number"),
                (True, 4, "delta must be a number"),
                (1.0, "4", "levels must be an integer"),
                (1.0, 4.0, "levels must be an integer"),
                (1e308, 8, r"level span delta \* \(levels - 1\) = 1e\+308 \* 7 must be finite"),
                (2.0**1023, 4, "level span"),
            ]:
                with pytest.raises(ValueError, match=message):
                    make_saturated(delta, levels)
            assert make_saturated(1e308, 2).level_values.tolist() == [-5e307, 5e307]  # a span of 1e308 is finite

    @pytest.mark.parametrize(
        "delta, L",
        [(d, L) for L in (2, 4, 8, 32) for d in (0.5, 0.7, 5.0 / L)] + [(None, 2)],
        ids=lambda v: "sign" if v is None else str(v),
    )
    def test_general_matches_saturated(self, delta, L):
        # every quantizer is its thresholds and levels: the named constructors
        # quantize bit for bit like a QuantizerSpec built from the same lists
        if delta is None:
            spec, gen = make_sign(), QuantizerSpec([0.0], [-1.0, 1.0])
        else:
            spec = make_saturated(delta, L)
            gen = QuantizerSpec(spec.thresholds, spec.level_values)
        t = spec.thresholds
        z = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), rng.uniform(-L, L, size=1000)])
        out = quantize_vec(spec, z)
        assert out.tobytes() == quantize_vec(gen, z).tobytes()
        # ties at a threshold map up; the closed forms hold off the thresholds
        assert out[: t.size].tobytes() == spec.level_values[1:].tobytes()
        r = z[3 * t.size :]
        if delta is None:
            want = np.where(r >= 0.0, 1.0, -1.0)
        else:
            want = np.clip(_uniform_reference(delta, r), spec.level_values[0], spec.level_values[-1])
        assert out[3 * t.size :].tobytes() == want.tobytes()


class TestQuantize:
    def test_frozen_examples(self):
        assert quantize_vec(make_saturated(1.0, 8), 0.3) == 0.5
        assert quantize_vec(make_saturated(1.0, 4), 2.7) == 1.5
        assert quantize_vec(make_sign(), 0.0) == 1.0

    def test_ties_map_up(self):
        # values sitting exactly on a threshold belong to the upper cell
        assert quantize_vec(make_saturated(1.0, 8), 1.0) == 1.5
        assert quantize_vec(make_saturated(1.0, 8), -1.0) == -0.5
        assert quantize_vec(make_saturated(1.0, 4), 0.0) == 0.5
        assert quantize_vec(make_saturated(1.0, 4), -1.0) == -0.5

    def test_uniform_within_half_cell(self):
        # saturated quantizers whose range covers every draw
        for delta in (0.25, 1.0, 2.5):
            z = rng.uniform(-40, 40, size=20000)
            err = np.abs(quantize_vec(make_saturated(delta, 2 * (int(np.ceil(40 / delta)) + 1)), z) - z)
            assert err.max() <= delta / 2 + 1e-12

    def test_saturated_equals_uniform_inside_range(self):
        delta, L = 0.7, 8
        sat = make_saturated(delta, L)
        z = rng.uniform(-L * delta / 2, L * delta / 2, size=20000)
        inside = np.abs(z) < L * delta / 2
        np.testing.assert_array_equal(quantize_vec(sat, z[inside]), _uniform_reference(delta, z[inside]))

    def test_saturation_clamps(self):
        sat = make_saturated(1.0, 4)
        assert quantize_vec(sat, 100.0) == 1.5
        assert quantize_vec(sat, -100.0) == -1.5
        assert quantize_vec(sat, 2.0) == 1.5  # exact saturation boundary

    def test_exactly_l_distinct_outputs(self):
        for L in (2, 4, 10):
            sat = make_saturated(0.5, L)
            out = quantize_vec(sat, np.linspace(-L, L, 16 * L + 1))
            assert np.unique(out).size == L

    def test_monotone(self):
        z = np.sort(rng.uniform(-10, 10, size=5000))
        for spec in (make_sign(), make_saturated(0.9, 24), make_saturated(0.9, 6)):
            q = quantize_vec(spec, z)
            assert np.all(np.diff(q) >= 0)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                quantize_vec(make_sign(), bad)
        with pytest.raises(ValueError):
            quantize_vec(make_saturated(1.0, 4), np.array([0.1, np.nan]))

    @pytest.mark.parametrize("spec", [make_sign(), QuantizerSpec([0.3], [-0.25, 0.75])], ids=["sign", "offset"])
    def test_one_threshold_comparison_equals_search(self, spec):
        t = spec.thresholds[0]
        z = np.concatenate([rng.uniform(-5, 5, size=5000), [0.0, -0.0, t, -t, np.nextafter(t, -1.0), np.nextafter(t, 1.0)]])
        search = spec.level_values[np.searchsorted(spec.thresholds, z, side="right")]
        out = quantize_vec(spec, z)
        assert out.dtype == search.dtype and out.tobytes() == search.tobytes()
        assert quantize_vec(spec, t) == spec.level_values[1]  # the tie maps up
        assert quantize_vec(spec, z.reshape(2, -1)).tobytes() == search.tobytes()

    @pytest.mark.parametrize("spec", [make_sign(), make_saturated(1.0, 4)], ids=["comparison", "search"])
    def test_scalar_gives_float64_on_both_paths(self, spec):
        for value in (0.3, -0.0, np.float64(2.0), np.array(0.3)):
            assert type(quantize_vec(spec, value)) is np.float64
        assert quantize_vec(spec, [0.3]).shape == (1,)
        with pytest.raises(ValueError, match="quantizer input must be finite"):
            quantize_vec(spec, np.nan)
        with pytest.raises(ValueError, match="quantizer input must be finite"):
            quantize_vec(spec, np.array([0.1, np.nan]))


class TestLevelStepBound:
    def test_quantized_gap_vs_input_gap(self):
        # | |Q(a) - Q(b)| - delta | 1(Q(a) != Q(b)) <= |a - b| 1(|a - b| >= delta)
        local = np.random.default_rng(20260814)
        total = 0
        for delta in (0.2, 1.0 / 3.0, 0.625, 1.0, 2.4):
            for L in (2, 4, 8, 16):
                spec = make_saturated(delta, L)
                size = 100_000 // 20 + 1
                a = local.uniform(-20, 20, size=size)
                b = a + local.uniform(-6, 6, size=size)
                qa = quantize_vec(spec, a)
                qb = quantize_vec(spec, b)
                lhs = np.abs(np.abs(qa - qb) - delta) * (qa != qb)
                rhs = np.abs(a - b) * (np.abs(a - b) >= delta)
                assert np.count_nonzero(lhs > rhs + 1e-12) == 0
                total += size
        assert total >= 100_000


class TestLevelIndex:
    def test_roundtrip_finite(self):
        spec = make_saturated(0.5, 8)
        z = rng.uniform(-4, 4, size=1000)
        y = quantize_vec(spec, z)
        idx = level_index(spec, y)
        np.testing.assert_array_equal(spec.level_values[idx], y)

    def test_invalid_codeword_rejected(self):
        with pytest.raises(ValueError):
            level_index(make_sign(), np.array([0.5]))
        with pytest.raises(ValueError):
            level_index(make_saturated(1.0, 4), np.array([2.5]))  # outside level range
