import tracemalloc

import numpy as np
import pytest

from quantcs import (
    MatrixKind,
    SensingInstance,
    corrupt,
    derive_seed,
    estimate_puv,
    make_saturated,
    make_sign,
    measure,
    quantize_vec,
    sample_instance,
    stream,
)
from quantcs.rng import SEED_PART_BOUND
from quantcs.sensing import _CHUNK, _FORWARD_BLOCK_ENTRIES, _block_rows, _forward, instance_rows


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

    def test_integer_part_outside_packing_range_rejected(self):
        # an integer part is packed into 16 signed bytes: the ends of [-2**127, 2**127) hash, the rest raise
        assert derive_seed(-SEED_PART_BOUND) != derive_seed(SEED_PART_BOUND - 1)
        assert derive_seed(np.int64(5)) == derive_seed(5)
        message = r"integer seed parts must lie in \[-2\*\*127, 2\*\*127\)"
        for call in (
            lambda: sample_instance(MatrixKind.GAUSSIAN, 0.0, 2, 2, 2**127),
            lambda: stream(2**200, "x"),
            lambda: derive_seed(-(2**127) - 1),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def _read_only(size):
    a = np.empty(size)
    a.flags.writeable = False
    return a


class TestSampleInstance:
    def test_deterministic(self):
        a = sample_instance(MatrixKind.GAUSSIAN, 1.0, 20, 5, 3)
        b = sample_instance(MatrixKind.GAUSSIAN, 1.0, 20, 5, 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.dither, b.dither)

    def test_matrix_and_dither_streams_independent(self):
        # same seed, different dither law: the matrix must not reflow
        a = sample_instance(MatrixKind.GAUSSIAN, 0.0, 20, 5, 3)
        b = sample_instance(MatrixKind.GAUSSIAN, 2.0, 20, 5, 3)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert np.all(a.dither == 0)
        assert np.any(b.dither != 0)

    def test_rademacher_entries(self):
        inst = sample_instance(MatrixKind.RADEMACHER, 0.0, 50, 7, 1)
        assert inst.matrix.dtype == np.int8
        assert set(np.unique(inst.matrix)) == {-1, 1}

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (1, _CHUNK - 1), (_CHUNK + 1, 1), (_CHUNK, 2), (317, 161)])
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    def test_rademacher_stream_is_integers_stream(self, m, n, seed):
        # the chunked draw reproduces 2 * integers(0, 2) - 1 bit for bit, one byte per entry
        want = (2 * stream(seed, "matrix").integers(0, 2, size=(m, n)) - 1).astype(np.int8)
        got = sample_instance(MatrixKind.RADEMACHER, 1.0, m, n, seed).matrix
        assert got.shape == (m, n) and got.dtype == np.int8
        assert got.tobytes() == want.tobytes()

    def test_rademacher_draw_allocates_no_matrix_temporary(self):
        m, n = 2000, 500
        out = np.empty(m * n, dtype=np.int8)
        sample_instance(MatrixKind.RADEMACHER, 0.0, 2, 2, 0)  # one-time allocations of a first draw
        peaks = []
        for buffer in (None, out):
            tracemalloc.start()
            try:
                sample_instance(MatrixKind.RADEMACHER, 0.0, m, n, 0, out=buffer)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.1 * m * n  # one byte per entry
        assert peaks[1] < 0.1 * m * n

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("dither", [0.0, 1.5])
    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (1, _CHUNK + 1), (317, 161)])
    def test_draw_into_buffer_equals_fresh_draw(self, kind, dither, m, n):
        fresh = sample_instance(kind, dither, m, n, 9)
        # the tail starts as a value no entry takes: NaN, or 0 in an int8 buffer
        buf = np.full(m * n + 5, np.nan if kind is MatrixKind.GAUSSIAN else 0, dtype=kind.dtype)
        tail = buf[m * n :].tobytes()
        for _ in range(2):  # the second draw lands on the first one's entries
            inst = sample_instance(kind, dither, m, n, 9, out=buf)
            assert np.shares_memory(inst.matrix, buf) and inst.matrix.shape == (m, n)
            assert inst.matrix.tobytes() == fresh.matrix.tobytes()
            assert inst.dither.tobytes() == fresh.dither.tobytes()
            assert buf[m * n :].tobytes() == tail

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 3)),
            np.empty(24)[::2],
            _read_only(12),
            np.empty(12, dtype=np.float32),
            np.empty(12, dtype=">f8"),
            np.empty(11),
            [0.0] * 12,
        ],
        ids=["two_dimensional", "strided", "read_only", "float32", "big_endian", "too_small", "list"],
    )
    def test_bad_out_raises_value_error(self, out):
        with pytest.raises(ValueError, match="out must be a 1-D C-contiguous writeable float64 array of at least 12 entries"):
            sample_instance(MatrixKind.GAUSSIAN, 0.0, 4, 3, 0, out=out)

    def test_out_dtype_follows_kind(self):
        with pytest.raises(ValueError, match="writeable int8 array of at least 12 entries"):
            sample_instance(MatrixKind.RADEMACHER, 0.0, 4, 3, 0, out=np.empty(12))
        with pytest.raises(ValueError, match="writeable float64 array of at least 12 entries"):
            sample_instance(MatrixKind.GAUSSIAN, 0.0, 4, 3, 0, out=np.empty(12, dtype=np.int8))

    def test_gaussian_isotropy(self):
        # empirical second moment of <a_i, u> over many rows is 1 +- 3 se
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 100_000, 8, 11)
        u = np.array([0.5, -0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        z = inst.matrix @ u
        second = np.mean(z**2)
        se = np.sqrt(2.0 / z.size)  # var of a squared standard normal is 2
        assert abs(second - 1.0) <= 3 * se

    def test_dither_law(self):
        lam = 1.5
        inst = sample_instance(MatrixKind.GAUSSIAN, lam, 100_000, 2, 5)
        assert np.all(np.abs(inst.dither) <= lam)
        se = lam / np.sqrt(3.0 * inst.m)
        assert abs(inst.dither.mean()) <= 3 * se

    def test_dither_level_validation(self):
        # 1e308 is finite, but the width 2e308 of [-1e308, 1e308] is not
        for bad in (-1.0, np.nan, np.inf, -np.inf, 1e308):
            with pytest.raises(ValueError, match="dither level"):
                sample_instance(MatrixKind.GAUSSIAN, bad, 20, 5, 3)
        tau = sample_instance(MatrixKind.GAUSSIAN, 8e307, 20, 5, 3).dither
        assert np.all(np.isfinite(tau)) and np.max(np.abs(tau)) <= 8e307

    @pytest.mark.parametrize(
        "kind, dither, m, n, message",
        [
            (MatrixKind.GAUSSIAN, 0.0, 2.5, 3, "m must be an integer"),
            (MatrixKind.RADEMACHER, 0.0, True, 3, "m must be an integer"),
            (MatrixKind.GAUSSIAN, 0.0, 4, "3", "n must be an integer"),
            (MatrixKind.GAUSSIAN, "1", 4, 3, "dither level must be a number"),
            (MatrixKind.RADEMACHER, 10**400, 4, 3, "dither level must be a number within the float range"),
        ],
        ids=["float_m", "bool_m", "string_n", "string_dither", "huge_dither"],
    )
    def test_mistyped_arguments_raise_value_error(self, kind, dither, m, n, message):
        with pytest.raises(ValueError, match=message):
            sample_instance(kind, dither, m, n, 0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            sample_instance(MatrixKind.GAUSSIAN, 0.0, 0, 5, 1)


class TestInstanceRows:
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("m,n,rows", [(7, 3, 2), (317, 161, 100), (_CHUNK + 1, 1, 2**12), (5, 4, 5), (5, 4, 8)])
    def test_blocks_are_the_one_draw(self, kind, m, n, rows):
        # blocks of rows rows, and a last block of one row joins the block before it
        sizes = [min(rows, m - s) for s in range(0, m, rows)]
        if len(sizes) > 1 and sizes[-1] == 1:
            sizes[-2:] = [rows + 1]
        fresh = sample_instance(kind, 1.5, m, n, 4)
        buf = np.full(max(sizes) * n, np.nan if kind is MatrixKind.GAUSSIAN else 0, dtype=kind.dtype)
        blocks = [(b.matrix.copy(), b.dither) for b in instance_rows(kind, 1.5, m, n, 4, rows, out=buf)]
        assert [a.shape[0] for a, _ in blocks] == sizes
        assert np.concatenate([a for a, _ in blocks]).tobytes() == fresh.matrix.tobytes()
        assert np.concatenate([t for _, t in blocks]).tobytes() == fresh.dither.tobytes()

    def test_block_rows_checked(self):
        for rows in (0, 3, 2.0):
            with pytest.raises(ValueError, match="rows must be"):
                next(instance_rows(MatrixKind.RADEMACHER, 0.0, 5, 3, 0, rows))
        # 5 rows in blocks of 2 end in a joined block of 3 rows, 9 entries
        with pytest.raises(ValueError, match="at least 9 entries"):
            next(instance_rows(MatrixKind.RADEMACHER, 0.0, 5, 3, 0, 2, out=np.empty(6, dtype=np.int8)))

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("n", [5, 7, 8])
    def test_block_products_are_the_matvec(self, kind, n):
        # two full blocks and one row: the last row joins the second block, so
        # the block products and the puv count are the dense _forward's, bit
        # for bit
        rows = _block_rows(n)
        samples = 2 * rows + 1
        rng = stream(8, "uv", n)
        u, v = rng.standard_normal((2, n))
        one = sample_instance(kind, 1.5, samples, n, 9)
        whole = _forward(one.matrix, [(samples, u)])[0]
        blocks = [b.matrix @ u for b in instance_rows(kind, 1.5, samples, n, 9, rows)]
        assert [b.size for b in blocks] == [rows, rows + 1]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        spec = make_saturated(1.0, 4)
        q = [quantize_vec(spec, p - one.dither) for p in (whole, _forward(one.matrix, [(samples, v)])[0])]
        count = np.count_nonzero(q[0] != q[1])
        assert estimate_puv(spec, kind, 1.5, u, v, samples, 9).p_hat == count / samples


class TestForwardPrefixes:
    """The products of several iterates with row prefixes of one matrix, sharing its blocks of rows."""

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("n", [7, 300])
    def test_each_product_is_the_prefix_forward(self, kind, n):
        # prefixes of 1 row, of no multiple of 4 rows, ending one row short of a
        # shared block, and one row past it (that row joins the block before it),
        # each twice, with a dense u and with a sparse one (zero at n = 7), all
        # in one call; the bits must be those of _forward on each prefix alone
        rows = _block_rows(n, _FORWARD_BLOCK_ENTRIES)
        grid = [1, 61, rows - 1, rows + 1]
        A = sample_instance(kind, 0.0, grid[-1], n, 3).matrix
        rng = stream(3, "u", n)
        sparse = np.zeros(n)
        sparse[rng.choice(n, n // 20, replace=False)] = rng.standard_normal(n // 20)
        cells = [(m, u) for m in grid for u in (rng.standard_normal(n), sparse)]
        got = _forward(A, cells)
        assert [z.tobytes() for z in got] == [_forward(A, [(m, u)])[0].tobytes() for m, u in cells]

    def test_one_byte_prefixes_cast_one_block_at_a_time(self):
        m, n = 5600, 500
        A = sample_instance(MatrixKind.RADEMACHER, 0.0, m, n, 0).matrix
        us = stream(1, "u").standard_normal((3, n))
        tracemalloc.start()
        try:
            _forward(A, [(m // 3, us[0]), (m // 2, us[1]), (m, us[2])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _FORWARD_BLOCK_ENTRIES + 5 * 8 * m  # one cast block and the products, not 8 m n bytes


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
        y = measure(inst, make_saturated(1.0, 8), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(y, [0.5, 2.5])

    @pytest.mark.parametrize(
        "m,n",
        [(1, 1), (5, 3), (_block_rows(300) + 1, 300), (2 * _block_rows(300) + 2, 300), (_block_rows(300, _FORWARD_BLOCK_ENTRIES) + 1, 300), (5601, 500)],
    )
    def test_one_byte_product_is_the_float64_product(self, m, n):
        # a one-byte matrix is multiplied in blocks of rows; the bits must be those of its float64 copy
        A = sample_instance(MatrixKind.RADEMACHER, 0.0, m, n, 6).matrix
        x = stream(6, "x").standard_normal(n)
        assert _forward(A, [(m, x)])[0].tobytes() == (A.astype(float) @ x).tobytes()

    @pytest.mark.parametrize(
        "kind, m, dither",
        [(MatrixKind.RADEMACHER, 5600, 1.5), (MatrixKind.GAUSSIAN, 1200, 0.0)],
        ids=["rademacher", "gaussian"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sparse_measure_is_the_dense_float64_measure(self, kind, m, dither, seed):
        # at the benchmark's shapes a 3-sparse signal is measured through its
        # support columns; no measured value may move from the dense product's
        n = 500
        inst = sample_instance(kind, dither, m, n, seed)
        x = np.zeros(n)
        rng = stream(seed, "x")
        x[rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
        spec = make_sign()
        assert measure(inst, spec, x).tobytes() == quantize_vec(spec, inst.matrix.astype(float) @ x - inst.dither).tobytes()

    def test_one_byte_measure_casts_one_block_at_a_time(self):
        m, n = 5600, 500
        inst = sample_instance(MatrixKind.RADEMACHER, 1.5, m, n, 0)
        x = stream(1, "x").standard_normal(n)
        tracemalloc.start()
        try:
            measure(inst, make_sign(), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _FORWARD_BLOCK_ENTRIES + 5 * 8 * m  # one cast block and a few m-vectors, not 8 m n bytes

    def test_shape_mismatch(self):
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 4, 3, 0)
        with pytest.raises(ValueError):
            measure(inst, make_sign(), np.zeros(5))


class TestCorrupt:
    def test_exact_fraction_flipped(self):
        spec = make_sign()
        y = np.ones(100)
        for zeta, want in ((0.0, 0), (0.02, 2), (0.05, 5), (0.1, 10), (0.119, 11)):
            out = corrupt(y, spec, zeta, seed=4)
            assert np.count_nonzero(y != out) == want

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
        assert np.count_nonzero(y != out) == 100
        assert np.all(np.isin(out, spec.level_values))
        changed = y != out
        np.testing.assert_allclose(np.abs(out[changed] - y[changed]), spec.delta, atol=1e-12)

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

    @pytest.mark.parametrize("zeta", ["0.5", True, 10**400], ids=["string_zeta", "bool_zeta", "huge_zeta"])
    def test_mistyped_zeta_raises_value_error(self, zeta):
        with pytest.raises(ValueError, match="zeta must be a number"):
            corrupt(np.ones(4), make_sign(), zeta, seed=0)
