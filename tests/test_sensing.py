import numpy as np
import pytest

from quantcs import (
    Dither,
    MatrixKind,
    SensingInstance,
    corrupt,
    derive_seed,
    hamming,
    make_saturated,
    make_sign,
    make_uniform,
    measure,
    quantize_vec,
    sample_instance,
    stream,
)


class TestStreams:
    def test_derive_seed_deterministic_and_tag_sensitive(self):
        assert derive_seed(1, "matrix") == derive_seed(1, "matrix")
        assert derive_seed(1, "matrix") != derive_seed(1, "dither")
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")
        assert derive_seed(0) != derive_seed(1)

    def test_stream_reproducible(self):
        a = stream(7, "x").standard_normal(5)
        b = stream(7, "x").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_bad_part_type(self):
        with pytest.raises(TypeError):
            derive_seed(1.5)


class TestSampleInstance:
    def test_deterministic(self):
        a = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(1.0), 20, 5, 3)
        b = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(1.0), 20, 5, 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.dither, b.dither)

    def test_matrix_and_dither_streams_independent(self):
        # same seed, different dither law: the matrix must not reflow
        a = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 20, 5, 3)
        b = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(2.0), 20, 5, 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert np.all(a.dither == 0)
        assert np.any(b.dither != 0)

    def test_rademacher_entries(self):
        inst = sample_instance(MatrixKind.RADEMACHER, Dither.zero(), 50, 7, 1)
        assert set(np.unique(inst.matrix)) == {-1.0, 1.0}

    def test_gaussian_isotropy(self):
        # empirical second moment of <a_i, u> over many rows is 1 +- 3 se
        inst = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 100_000, 8, 11)
        u = np.array([0.5, -0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        z = inst.matrix @ u
        second = np.mean(z**2)
        se = np.sqrt(2.0 / z.size)  # var of a squared standard normal is 2
        assert abs(second - 1.0) <= 3 * se

    def test_dither_law(self):
        lam = 1.5
        inst = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(lam), 100_000, 2, 5)
        assert np.all(np.abs(inst.dither) <= lam)
        se = lam / np.sqrt(3.0 * inst.m)
        assert abs(inst.dither.mean()) <= 3 * se

    def test_dither_level_validation(self):
        with pytest.raises(ValueError):
            Dither.uniform(-1.0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 0, 5, 1)


def _fixed_instance(matrix, dither):
    return SensingInstance(
        matrix=np.asarray(matrix, dtype=float),
        dither=np.asarray(dither, dtype=float),
    )


class TestMeasure:
    def test_identity_matrix_examples(self):
        inst = _fixed_instance(np.eye(2), np.zeros(2))
        y = measure(inst, make_sign(), np.array([0.6, -0.8]))
        np.testing.assert_array_equal(y, [1.0, -1.0])
        y0 = measure(inst, make_sign(), np.zeros(2))
        np.testing.assert_array_equal(y0, [1.0, 1.0])  # sign(0) = +1

        inst = _fixed_instance([[1.0, 0.0], [0.0, 2.0]], [0.2, -0.2])
        y = measure(inst, make_uniform(1.0), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(y, [0.5, 2.5])

    def test_shape_mismatch(self):
        inst = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 4, 3, 0)
        with pytest.raises(ValueError):
            measure(inst, make_sign(), np.zeros(5))


class TestCorrupt:
    def test_exact_fraction_flipped(self):
        spec = make_sign()
        y = np.ones(100)
        for zeta, want in ((0.0, 0), (0.02, 2), (0.05, 5), (0.1, 10), (0.119, 11)):
            out = corrupt(y, spec, zeta, seed=4)
            assert hamming(y, out) == want

    def test_sign_flips_negate(self):
        y = np.array([1.0, -1.0] * 25)
        out = corrupt(y, make_sign(), 0.2, seed=9)
        changed = y != out
        np.testing.assert_array_equal(out[changed], -y[changed])

    def test_multilevel_steps_stay_valid(self):
        spec = make_saturated(0.5, 4)
        rng = np.random.default_rng(1)
        z = rng.uniform(-3, 3, size=400)
        y = quantize_vec(spec, z)
        out = corrupt(y, spec, 0.25, seed=2)
        assert hamming(y, out) == 100
        assert np.all(np.isin(out, spec.level_values))
        changed = y != out
        np.testing.assert_allclose(np.abs(out[changed] - y[changed]), spec.delta, atol=1e-12)

    def test_uniform_quantizer_steps(self):
        spec = make_uniform(1.0)
        y = quantize_vec(spec, np.linspace(-5, 5, 60))
        out = corrupt(y, spec, 0.5, seed=3)
        assert hamming(y, out) == 30
        changed = y != out
        np.testing.assert_allclose(np.abs(out[changed] - y[changed]), 1.0, atol=1e-12)

    def test_sign_rejects_non_codeword(self):
        y = np.ones(10)
        y[3] = 0.5
        with pytest.raises(ValueError):
            corrupt(y, make_sign(), 1.0, seed=0)

    def test_deterministic_given_seed(self):
        y = np.ones(50)
        a = corrupt(y, make_sign(), 0.3, seed=8)
        b = corrupt(y, make_sign(), 0.3, seed=8)
        np.testing.assert_array_equal(a, b)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            corrupt(np.ones(4), make_sign(), 1.5, seed=0)


class TestHamming:
    def test_counts(self):
        assert hamming(np.array([1, -1, 1]), np.array([1, 1, 1])) == 1
        assert hamming(np.zeros(3), np.zeros(3)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming(np.zeros(3), np.zeros(4))
