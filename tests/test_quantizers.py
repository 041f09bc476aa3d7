import numpy as np
import pytest

from quantcs import (
    level_index,
    make_general,
    make_saturated,
    make_sign,
    make_uniform,
    quantize,
    quantize_vec,
)

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

    def test_odd_levels_rejected(self):
        with pytest.raises(ValueError):
            make_saturated(1.0, 5)
        with pytest.raises(ValueError):
            make_saturated(1.0, 0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_uniform(0.0)
        with pytest.raises(ValueError):
            make_uniform(-1.0)
        with pytest.raises(ValueError):
            make_general(thresholds=[0.0, 1.0], level_values=[0.0, 1.0, 1.5])  # uneven gaps
        with pytest.raises(ValueError):
            make_general(thresholds=[1.0, 0.0], level_values=[0.0, 1.0, 2.0])  # unordered

    @pytest.mark.parametrize(
        "delta, L",
        [(d, L) for L in (2, 4, 8, 32) for d in (0.5, 0.7, 5.0 / L)] + [(None, 2)],
        ids=lambda v: "sign" if v is None else str(v),
    )
    def test_general_matches_saturated(self, delta, L):
        # every finite quantizer is its thresholds and levels: the named
        # constructors quantize bit for bit like make_general on the same lists
        if delta is None:
            spec, gen = make_sign(), make_general([0.0], [-1.0, 1.0])
        else:
            spec = make_saturated(delta, L)
            gen = make_general(spec.thresholds, spec.level_values)
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
            want = np.clip(quantize_vec(make_uniform(delta), r), spec.level_values[0], spec.level_values[-1])
        assert out[3 * t.size :].tobytes() == want.tobytes()


class TestQuantize:
    def test_frozen_examples(self):
        assert quantize(make_uniform(1.0), 0.3) == 0.5
        assert quantize(make_saturated(1.0, 4), 2.7) == 1.5
        assert quantize(make_sign(), 0.0) == 1.0

    def test_ties_map_up(self):
        # values sitting exactly on a threshold belong to the upper cell
        assert quantize(make_uniform(1.0), 1.0) == 1.5
        assert quantize(make_uniform(1.0), -1.0) == -0.5
        assert quantize(make_saturated(1.0, 4), 0.0) == 0.5
        assert quantize(make_saturated(1.0, 4), -1.0) == -0.5

    def test_uniform_within_half_cell(self):
        for delta in (0.25, 1.0, 2.5):
            z = rng.uniform(-40, 40, size=20000)
            err = np.abs(quantize_vec(make_uniform(delta), z) - z)
            assert err.max() <= delta / 2 + 1e-12

    def test_saturated_equals_uniform_inside_range(self):
        delta, L = 0.7, 8
        sat = make_saturated(delta, L)
        z = rng.uniform(-L * delta / 2, L * delta / 2, size=20000)
        inside = np.abs(z) < L * delta / 2
        np.testing.assert_array_equal(
            quantize_vec(sat, z[inside]), quantize_vec(make_uniform(delta), z[inside])
        )

    def test_saturation_clamps(self):
        sat = make_saturated(1.0, 4)
        assert quantize(sat, 100.0) == 1.5
        assert quantize(sat, -100.0) == -1.5
        assert quantize(sat, 2.0) == 1.5  # exact saturation boundary

    def test_exactly_l_distinct_outputs(self):
        for L in (2, 4, 10):
            sat = make_saturated(0.5, L)
            out = quantize_vec(sat, np.linspace(-L, L, 16 * L + 1))
            assert np.unique(out).size == L

    def test_monotone(self):
        z = np.sort(rng.uniform(-10, 10, size=5000))
        for spec in (make_sign(), make_uniform(0.9), make_saturated(0.9, 6)):
            q = quantize_vec(spec, z)
            assert np.all(np.diff(q) >= 0)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                quantize(make_sign(), bad)
        with pytest.raises(ValueError):
            quantize_vec(make_uniform(1.0), np.array([0.1, np.nan]))


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

    def test_roundtrip_uniform(self):
        spec = make_uniform(0.3)
        z = rng.uniform(-30, 30, size=1000)
        y = quantize_vec(spec, z)
        idx = level_index(spec, y)
        np.testing.assert_allclose(spec.delta * (idx + 0.5), y, rtol=0, atol=1e-12)

    def test_invalid_codeword_rejected(self):
        with pytest.raises(ValueError):
            level_index(make_sign(), np.array([0.5]))
        with pytest.raises(ValueError):
            level_index(make_saturated(1.0, 4), np.array([2.5]))  # outside level range
