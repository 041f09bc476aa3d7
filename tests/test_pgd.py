import tracemalloc

import numpy as np
import pytest

from quantcs import (
    L1Ball,
    LowRank,
    PgdConfig,
    SignalModel,
    Sparse,
    gen_signal,
    gradient,
    make_saturated,
    make_sign,
    measure,
    pgd_recover,
    random_in_model,
    sample_instance,
)
import quantcs.pgd
from quantcs.pgd import ERRORS_CAP
from quantcs.quantizers import quantize_vec
from quantcs.sensing import _BLOCK_ENTRIES, _FORWARD_BLOCK_ENTRIES, _SPARSE_D, _SPARSE_U, MatrixKind, SensingInstance, _adjoint, _forward
from quantcs.verify import (
    clipped_gradient,
    fd_gradient,
    gradient_from_thresholds,
    one_sided_l1_loss,
    pgd_full_loop,
    raic_residual,
    random_quantizer,
    restricted_dual_norm,
)

from test_sensing import _fixed_instance


def _identity_instance(n):
    return _fixed_instance(np.eye(n), np.zeros(n))


def _dense_gradient(spec, inst, y, u):
    """The literal dense formula (1/m) A^T (Q(Au - tau) - y)."""
    return inst.matrix.T @ (quantize_vec(spec, inst.matrix @ u - inst.dither) - y) / inst.m


def _assert_close_to_dense(g, ref):
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


class TestLoss:
    def test_sign_hand_example(self):
        # rows y=(+1,-1) against z=(-0.2, 0.3): hinges 0.2 and 0.3, Delta/m = 1
        inst = _identity_instance(2)
        spec = make_sign()
        loss = one_sided_l1_loss(spec, inst, np.array([1.0, -1.0]), np.array([-0.2, 0.3]))
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_uniform_hand_example(self):
        # y = Q(0.3) = 0.5; z = 2.2 clears thresholds 1 and 2 the wrong way
        inst = _identity_instance(1)
        spec = make_saturated(1.0, 8)
        y = np.array([0.5])
        assert one_sided_l1_loss(spec, inst, y, np.array([2.2])) == pytest.approx(1.4, abs=1e-12)
        assert one_sided_l1_loss(spec, inst, y, np.array([-1.7])) == pytest.approx(2.4, abs=1e-12)

    def test_zero_exactly_on_consistent_points(self):
        rng = np.random.default_rng(0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.5, 40, 6, seed=1)
        x = gen_signal(SignalModel(Sparse(k=2, n=6), 1.0, 1.0), 2)
        for spec in (make_sign(), make_saturated(0.5, 40), make_saturated(0.5, 8)):
            y = measure(inst, spec, x)
            assert one_sided_l1_loss(spec, inst, y, x) == 0.0
            # any same-cell perturbation keeps the loss at zero
            assert one_sided_l1_loss(spec, inst, y, x * (1 + 1e-12)) == 0.0
            u = x + 0.3 * rng.standard_normal(6)
            if not np.array_equal(measure(inst, spec, u), y):
                assert one_sided_l1_loss(spec, inst, y, u) > 0.0


class TestGradient:
    def test_sign_hand_example(self):
        inst = _identity_instance(2)
        g = gradient(make_sign(), inst, np.array([1.0, -1.0]), np.array([-0.2, 0.3]))
        np.testing.assert_array_equal(g, [-1.0, 1.0])

    def test_zero_at_truth(self):
        inst = sample_instance(MatrixKind.RADEMACHER, 1.0, 60, 8, seed=4)
        x = gen_signal(SignalModel(Sparse(k=3, n=8), 0.0, 1.0), 5)
        for spec in (make_sign(), make_saturated(0.4, 16), make_saturated(0.4, 6)):
            y = measure(inst, spec, x)
            np.testing.assert_array_equal(gradient(spec, inst, y, x), np.zeros(8))

    def test_threshold_form_agrees(self):
        rng = np.random.default_rng(7)
        for spec in (make_sign(), make_saturated(0.3, 80), make_saturated(0.5, 4), make_saturated(0.25, 16)):
            for trial in range(20):
                inst = sample_instance(MatrixKind.GAUSSIAN, 0.8, 25, 5, seed=trial)
                x = gen_signal(SignalModel(Sparse(k=2, n=5), 1.0, 1.0), trial + 100)
                y = measure(inst, spec, x)
                u = 2.0 * rng.standard_normal(5)
                np.testing.assert_allclose(
                    gradient_from_thresholds(spec, inst, y, u),
                    gradient(spec, inst, y, u),
                    atol=1e-12,
                )

    def test_clipped_equals_plain_for_sign(self):
        spec = make_sign()
        for seed in range(10):
            inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 30, 6, seed=seed)
            rng = np.random.default_rng(seed + 50)
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            plain = gradient(spec, inst, measure(inst, spec, v), u)
            np.testing.assert_array_equal(clipped_gradient(spec, inst, u, v), plain)

    def test_zero_iterate(self):
        # the zero start of the dithered families: no support, about half the rows mismatched
        inst = sample_instance(MatrixKind.RADEMACHER, 1.5, 1200, 500, seed=2)
        x = gen_signal(SignalModel(Sparse(k=3, n=500), 0.0, 1.0), 3)
        u = np.zeros(500)
        for spec in (make_sign(), make_saturated(0.625, 8)):
            y = measure(inst, spec, x)
            _assert_close_to_dense(gradient(spec, inst, y, u), _dense_gradient(spec, inst, y, u))

    @pytest.mark.parametrize("support", [500 // _SPARSE_U, 500 // _SPARSE_U + 1])
    @pytest.mark.parametrize("mismatched", [1200 // _SPARSE_D, 1200 // _SPARSE_D + 1])
    def test_matches_dense_at_crossovers(self, support, mismatched):
        # exactly at and one past each gather cutoff, for m x n = 1200 x 500
        spec = make_sign()
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.5, 1200, 500, seed=support + mismatched)
        rng = np.random.default_rng(support * mismatched)
        u = np.zeros(500)
        u[rng.choice(500, support, replace=False)] = rng.standard_normal(support)
        z = inst.matrix @ u - inst.dither
        y = quantize_vec(spec, z)
        y[rng.choice(1200, mismatched, replace=False)] *= -1.0
        assert np.count_nonzero(quantize_vec(spec, z) - y) == mismatched
        _assert_close_to_dense(gradient(spec, inst, y, u), _dense_gradient(spec, inst, y, u))

    def test_clipped_equals_plain_on_gathered_rows(self):
        # a 3-sparse u near v leaves few rows mismatched, so both take the row gather
        spec = make_sign()
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.5, 1200, 500, seed=8)
        v = gen_signal(SignalModel(Sparse(k=3, n=500), 1.0, 1.0), 9)
        u = v * (1.0 + 0.1 * np.random.default_rng(10).standard_normal(500))
        y = measure(inst, spec, v)
        mismatched = np.count_nonzero(quantize_vec(spec, inst.matrix @ u - inst.dither) != y)
        assert 0 < mismatched and mismatched * _SPARSE_D <= 1200
        np.testing.assert_array_equal(clipped_gradient(spec, inst, u, v), gradient(spec, inst, y, u))

    def test_clipped_caps_multilevel_rows(self):
        # one row, far-apart cells: plain transfer is 3 levels, clipped is 1
        inst = _identity_instance(1)
        spec = make_saturated(1.0, 8)
        u, v = np.array([3.4]), np.array([0.2])
        plain = gradient(spec, inst, measure(inst, spec, v), u)
        clipped = clipped_gradient(spec, inst, u, v)
        np.testing.assert_array_equal(plain, [3.0])
        np.testing.assert_array_equal(clipped, [1.0])

    def test_matches_finite_differences_away_from_thresholds(self):
        spec = make_sign()
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 50, 8, seed=9)
        x = gen_signal(SignalModel(Sparse(k=3, n=8), 1.0, 1.0), 10)
        y = measure(inst, spec, x)
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(20):
            u = rng.standard_normal(8)
            z = inst.matrix @ u
            if np.abs(z).min() < 1e-3:
                continue  # too close to a kink for differencing
            g = gradient(spec, inst, y, u)
            h = 1e-6
            fd = np.empty(8)
            for j in range(8):
                e = np.zeros(8)
                e[j] = h
                fd[j] = (
                    one_sided_l1_loss(spec, inst, y, u + e)
                    - one_sided_l1_loss(spec, inst, y, u - e)
                ) / (2 * h)
            np.testing.assert_allclose(fd, g, rtol=1e-6, atol=1e-9)
            checked += 1
        assert checked >= 10

    def test_stacked_probes_match_per_coordinate_loop(self):
        # fd_gradient puts its 2n probes through the loss as one stack; the
        # product with the stack rounds differently from one product per probe,
        # by a few ulps of the loss, and the 1/(2h) quotient scales that to a
        # few 1e-11 of the loss, well inside the 1e-9 allowed here
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(200):
            spec = random_quantizer(rng)
            n, m = int(rng.integers(2, 9)), int(rng.integers(3, 25))
            inst = sample_instance(MatrixKind.GAUSSIAN, float(rng.uniform(0.0, 2.0)), m, n, int(rng.integers(0, 2**32)))
            y = measure(inst, spec, rng.standard_normal(n))
            u = rng.standard_normal(n)
            ref = np.empty(n)
            for i in range(n):
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                ref[i] = (one_sided_l1_loss(spec, inst, y, up) - one_sided_l1_loss(spec, inst, y, dn)) / (2 * h)
            scale = max(1.0, one_sided_l1_loss(spec, inst, y, u))
            np.testing.assert_allclose(fd_gradient(spec, inst, y, u), ref, rtol=0, atol=1e-9 * scale)

    def test_stack_gives_the_value_of_each_column(self):
        rng = np.random.default_rng(29)
        spec = make_saturated(0.5, 8)
        inst = sample_instance(MatrixKind.RADEMACHER, 0.25, 20, 6, seed=30)
        y = measure(inst, spec, rng.standard_normal(6))
        stack = rng.standard_normal((6, 5))
        losses = one_sided_l1_loss(spec, inst, y, stack)
        assert losses.shape == (5,)
        want = [one_sided_l1_loss(spec, inst, y, col) for col in stack.T]
        np.testing.assert_allclose(losses, want, rtol=1e-12)
        grads = np.stack([gradient_from_thresholds(spec, inst, y, col) for col in stack.T], axis=1)
        np.testing.assert_allclose(gradient_from_thresholds(spec, inst, y, stack), grads, rtol=1e-12, atol=1e-15)
        with pytest.raises(ValueError):
            one_sided_l1_loss(spec, inst, y, stack[:5])
        with pytest.raises(ValueError):
            one_sided_l1_loss(spec, inst, y, stack[..., None])
        with pytest.raises(ValueError, match=r"^measurement shape \(19,\) does not match m=20$"):
            one_sided_l1_loss(spec, inst, y[:19], stack)


class TestPgdRecover:
    def test_one_bit_gaussian_converges(self):
        model = SignalModel(Sparse(k=2, n=20), 1.0, 1.0)
        x = gen_signal(model, 1)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 300, 20, seed=2)
        y = measure(inst, make_sign(), x)
        eta = np.sqrt(np.pi / 2)
        config = PgdConfig(eta=eta, iterations=100)
        res = pgd_recover(config, model, make_sign(), inst, y, random_in_model(model, seed=3), truth=x)
        assert np.linalg.norm(res.estimate - x) < 0.35
        assert res.errors.shape == (100,)
        assert res.errors[-1] == pytest.approx(np.linalg.norm(res.estimate - x))

    def test_dithered_one_bit_converges_from_zero(self):
        lam = 1.5
        model = SignalModel(Sparse(k=2, n=20), 0.0, 1.0)
        x = gen_signal(model, 4)
        inst = sample_instance(MatrixKind.RADEMACHER, lam, 400, 20, seed=5)
        y = measure(inst, make_sign(), x)
        res = pgd_recover(PgdConfig(eta=lam, iterations=100), model, make_sign(), inst, y, np.zeros(20), truth=x)
        assert np.linalg.norm(res.estimate - x) < 0.35

    def test_deterministic(self):
        model = SignalModel(Sparse(k=2, n=12), 1.0, 1.0)
        x = gen_signal(model, 6)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 100, 12, seed=7)
        y = measure(inst, make_sign(), x)
        config = PgdConfig(eta=1.2, iterations=30)
        a = pgd_recover(config, model, make_sign(), inst, y, random_in_model(model, seed=8))
        b = pgd_recover(config, model, make_sign(), inst, y, random_in_model(model, seed=8))
        np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_trajectory_recording(self):
        # errors[t-1] of a 5-iteration run is the error of the t-iteration run's estimate
        model = SignalModel(Sparse(k=1, n=6), 1.0, 1.0)
        x = gen_signal(model, 9)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 40, 6, seed=10)
        y = measure(inst, make_sign(), x)
        res = pgd_recover(PgdConfig(eta=1.0, iterations=5), model, make_sign(), inst, y, np.zeros(6), truth=x)
        assert res.errors.shape == (5,)
        for t in range(1, 6):
            short = pgd_recover(PgdConfig(eta=1.0, iterations=t), model, make_sign(), inst, y, np.zeros(6))
            np.testing.assert_allclose(res.errors[t - 1], np.linalg.norm(short.estimate - x))

    def test_iterates_stay_in_model(self):
        model = SignalModel(Sparse(k=2, n=15), 0.5, 1.0)
        x = gen_signal(model, 11)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 120, 15, seed=12)
        y = measure(inst, make_sign(), x)
        for t in range(1, 21):
            row = pgd_recover(PgdConfig(eta=1.0, iterations=t), model, make_sign(), inst, y, np.zeros(15)).estimate
            assert np.count_nonzero(row) <= 2
            assert 0.5 - 1e-12 <= np.linalg.norm(row) <= 1.0 + 1e-12

    def test_given_init_validation(self):
        # a start of shape (n,) is taken as given, in the model or not: the
        # first iterate is projected into the model and the start is left
        # unchanged; any other shape is rejected
        model = SignalModel(Sparse(k=1, n=4), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 10, 4, seed=13)
        y = np.ones(10)
        for start in (np.array([0.0, 1.0, 0.0, 0.0]), np.ones(4), np.array([0.0, 2.0, 0.0, 0.0])):
            given = start.copy()
            res = pgd_recover(PgdConfig(eta=1.0, iterations=1), model, make_sign(), inst, y, start)
            assert res.estimate.shape == (4,)
            assert np.count_nonzero(res.estimate) <= 1
            assert np.linalg.norm(res.estimate) == pytest.approx(1.0)
            assert start.tobytes() == given.tobytes()
        for bad in (np.ones(3), np.ones((4, 1)), 1.0):
            with pytest.raises(ValueError, match=r"start shape .* does not match n=4"):
                pgd_recover(PgdConfig(eta=1.0, iterations=1), model, make_sign(), inst, y, bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PgdConfig(eta=0.0)
        with pytest.raises(ValueError):
            PgdConfig(eta=1.0, iterations=0)

    def test_config_caps_iterations(self):
        # a run with a truth stores one error per iteration
        assert PgdConfig(eta=1.0, iterations=ERRORS_CAP).iterations == ERRORS_CAP
        with pytest.raises(ValueError, match=f"iterations = {ERRORS_CAP + 1} exceeds the cap {ERRORS_CAP}"):
            PgdConfig(eta=1.0, iterations=ERRORS_CAP + 1)

    @pytest.mark.parametrize("iterations", [2.5, True])
    def test_config_rejects_non_integer_iterations(self, iterations):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            PgdConfig(eta=1.0, iterations=iterations)

    def test_config_rejects_non_numeric_eta(self):
        with pytest.raises(ValueError, match="step size eta must be a number"):
            PgdConfig(eta="1")


def _stopping_case(name, seed, iterations):
    """A small recovery problem of each family and structure: (config, model, spec, instance, y, start, truth)."""
    sign, fine = make_sign(), make_saturated(5.0 / 32, 32)
    eta = np.sqrt(np.pi / 2)
    sphere, ball = SignalModel(Sparse(k=2, n=20), 1.0, 1.0), SignalModel(Sparse(k=2, n=20), 0.0, 1.0)
    model, spec, kind, dither, m, step = {
        "one_bit_gaussian": (sphere, sign, MatrixKind.GAUSSIAN, 0.0, 200, eta),
        "dithered_one_bit": (ball, sign, MatrixKind.RADEMACHER, 1.5, 300, 1.5),
        "dithered_multi_bit": (ball, fine, MatrixKind.RADEMACHER, fine.delta / 2, 60, 1.0),
        "low_rank": (SignalModel(LowRank(r=1, n1=5, n2=5), 1.0, 1.0), sign, MatrixKind.GAUSSIAN, 0.0, 100, eta),
        "l1_ball": (SignalModel(L1Ball(radius=np.sqrt(5), n=100), 1.0, 1.0), sign, MatrixKind.GAUSSIAN, 0.0, 200, eta),
    }[name]
    inst = sample_instance(kind, dither, m, model.ambient_dim, seed=seed)
    x = gen_signal(model, seed + 1)
    start = random_in_model(model, seed=seed + 2) if model.alpha > 0 else np.zeros(model.ambient_dim)
    return PgdConfig(eta=step, iterations=iterations), model, spec, inst, measure(inst, spec, x), start, x


CASES = ["one_bit_gaussian", "dithered_one_bit", "dithered_multi_bit", "low_rank", "l1_ball"]


class TestOneByteMatrix:
    @pytest.mark.parametrize("name", ["dithered_one_bit", "dithered_multi_bit", "dithered_l1_ball"])
    def test_trial_matches_float64_copy(self, name):
        # a Rademacher matrix is stored as int8 and cast to float64 block by
        # block in every product: a run must give the bits of a run on its
        # float64 copy.  The adjoint takes several blocks (m * n above
        # _BLOCK_ENTRIES), and the l1-ball iterates are dense, so the forward
        # product takes several too (m * n above _FORWARD_BLOCK_ENTRIES)
        fine = make_saturated(5.0 / 8, 8)
        model, spec, dither, m, iterations = {
            "dithered_one_bit": (SignalModel(Sparse(k=3, n=500), 0.0, 1.0), make_sign(), 1.5, 800, 100),
            "dithered_multi_bit": (SignalModel(Sparse(k=3, n=500), 0.0, 1.0), fine, fine.delta / 2, 400, 100),
            "dithered_l1_ball": (SignalModel(L1Ball(radius=np.sqrt(10), n=300), 0.0, 1.0), make_sign(), 1.5, 1000, 30),
        }[name]
        n = model.ambient_dim
        assert m * n > _BLOCK_ENTRIES and (name != "dithered_l1_ball" or m * n > _FORWARD_BLOCK_ENTRIES)
        inst = sample_instance(MatrixKind.RADEMACHER, dither, m, n, seed=8)
        copy = SensingInstance(inst.matrix.astype(float), inst.dither)
        assert inst.matrix.dtype == np.int8
        x = gen_signal(model, 9)
        y = measure(inst, spec, x)
        assert y.tobytes() == measure(copy, spec, x).tobytes()
        config = PgdConfig(eta=1.5 if spec.levels == 2 else 1.0, iterations=iterations)
        one_byte = pgd_recover(config, model, spec, inst, y, np.zeros(n), truth=x)
        wide = pgd_recover(config, model, spec, copy, y, np.zeros(n), truth=x)
        assert one_byte.estimate.tobytes() == wide.estimate.tobytes()
        assert one_byte.errors.tobytes() == wide.errors.tobytes()
        if name == "dithered_l1_ball":
            assert np.count_nonzero(one_byte.estimate) * _SPARSE_U > n

    @pytest.mark.parametrize("support", [*range(1, 13), "dense"])
    def test_products_match_float64_copy(self, support):
        # both products and the gradient of an int8 matrix have the bits of its
        # float64 copy's for every support size: numpy's mixed int8 x float64
        # product of 4 or more gathered columns sums in another order
        m, n = 1200, 300
        inst = sample_instance(MatrixKind.RADEMACHER, 1.5, m, n, seed=support if support != "dense" else 0)
        copy = SensingInstance(inst.matrix.astype(float), inst.dither)
        rng = np.random.default_rng(41)
        spec = make_sign()
        few_rows = set()
        for i in range(6):
            u = rng.standard_normal(n)
            if support != "dense":
                u[rng.permutation(n)[support:]] = 0.0
            assert (np.count_nonzero(u) * _SPARSE_U <= n) == (support != "dense")
            u *= 3.0 / np.linalg.norm(u)  # well past the dither level 1.5
            # the measurements of a point near u mismatch few rows, those of -u many
            y = measure(copy, spec, u + 0.03 * rng.standard_normal(n) / np.sqrt(n) if i % 2 else -u)
            d = measure(copy, spec, u) - y
            few_rows.add(np.count_nonzero(d) * _SPARSE_D <= m)
            assert _forward(inst.matrix, [(m, u)])[0].tobytes() == _forward(copy.matrix, [(m, u)])[0].tobytes()
            assert _adjoint(inst.matrix, d).tobytes() == _adjoint(copy.matrix, d).tobytes()
            assert gradient(spec, inst, y, u).tobytes() == gradient(spec, copy, y, u).tobytes()
        assert few_rows == {True, False}  # both adjoint paths


FINE = make_saturated(5.0 / 8, 8)


class TestTruthIsConsistent:
    # the decoder's residual is measure of its iterate, so the truth has zero
    # gradient and is a fixed point on every forward path: 3 nonzeros of 300
    # take the gathered columns, a dense x the blocked product
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("spec, dither", [(make_sign(), 1.5), (FINE, FINE.delta / 2)], ids=["sign", "multi_bit"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_zero_gradient_and_fixed_point_at_truth(self, kind, spec, dither, sparse):
        m, n = 1000, 300
        assert m * n > _FORWARD_BLOCK_ENTRIES  # the dense forward product takes several blocks
        inst = sample_instance(kind, dither, m, n, seed=21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal(n)
        if sparse:
            x[rng.permutation(n)[3:]] = 0.0
        x *= 0.8 / np.linalg.norm(x)
        assert (np.count_nonzero(x) * _SPARSE_U <= n) == sparse
        y = measure(inst, spec, x)
        assert not np.any(gradient(spec, inst, y, x))
        model = SignalModel(Sparse(k=3 if sparse else n, n=n), 0.0, 1.0)
        res = pgd_recover(PgdConfig(eta=1.0, iterations=5), model, spec, inst, y, x, truth=x)
        assert res.estimate.tobytes() == x.tobytes()
        assert not np.any(res.errors)

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_truth_on_every_threshold_is_consistent(self, kind):
        # a dither equal to the forward product puts every row of the truth on
        # the sign threshold, where a product summed in another order than
        # measure's would flip some rows to -1
        m, n = 600, 300
        A = sample_instance(kind, 0.0, m, n, seed=23).matrix
        x = np.zeros(n)
        x[[7, 150, 299]] = [0.3, -0.5, 0.7]
        inst = SensingInstance(A, _forward(A, [(m, x)])[0])
        y = measure(inst, make_sign(), x)
        assert np.all(y == 1.0)
        assert not np.any(gradient(make_sign(), inst, y, x))


class TestStoppingRule:
    @pytest.mark.parametrize("iterations", [1, 2, 3, 5, 17, 100])
    @pytest.mark.parametrize("name", CASES)
    def test_bitwise_equal_to_full_loop(self, name, iterations):
        for seed in range(3):
            config, model, spec, inst, y, start, x = _stopping_case(name, seed, iterations)
            estimate, errors, _ = pgd_full_loop(config, model, spec, inst, y, start, x)
            res = pgd_recover(config, model, spec, inst, y, start, truth=x)
            assert res.estimate.tobytes() == estimate.tobytes()
            assert res.errors.tobytes() == errors.tobytes()
            blind = pgd_recover(config, model, spec, inst, y, start)
            assert blind.errors is None and blind.estimate.tobytes() == estimate.tobytes()

    def test_cases_cover_every_kind_of_run(self):
        # the cases above must hold fixed points, cycles of period >= 2 and runs that never repeat
        periods = {pgd_full_loop(*_stopping_case(name, seed, 100))[2] for name in CASES for seed in range(3)}
        assert 0 in periods and 1 in periods and max(periods) >= 2

    def test_settled_run_calls_gradient_less(self, monkeypatch):
        config, model, spec, inst, y, start, x = _stopping_case("dithered_multi_bit", 0, 100)
        estimate, errors, period = pgd_full_loop(config, model, spec, inst, y, start, x)
        assert period >= 1
        calls = []

        def counted(*args):
            calls.append(1)
            return gradient(*args)

        monkeypatch.setattr(quantcs.pgd, "gradient", counted)
        res = pgd_recover(config, model, spec, inst, y, start, truth=x)
        assert len(calls) < config.iterations
        assert res.estimate.tobytes() == estimate.tobytes()
        assert res.errors.tobytes() == errors.tobytes()

    def test_fixed_point_stops_when_reached(self, monkeypatch):
        # this run first repeats at t = 13 with x_13 == x_12, between the
        # power-of-two checkpoints 8 and 16; it takes exactly 13 gradient calls
        config, model, spec, inst, y, start, x = _stopping_case("low_rank", 12, 100)
        first = 13
        for iterations, period in ((first - 1, 0), (first, 1)):
            short = PgdConfig(eta=config.eta, iterations=iterations)
            assert pgd_full_loop(short, model, spec, inst, y, start, x)[2] == period
        estimate, errors, _ = pgd_full_loop(config, model, spec, inst, y, start, x)
        calls = []

        def counted(*args):
            calls.append(1)
            return gradient(*args)

        monkeypatch.setattr(quantcs.pgd, "gradient", counted)
        res = pgd_recover(config, model, spec, inst, y, start, truth=x)
        assert len(calls) == first
        assert res.estimate.tobytes() == estimate.tobytes()
        assert res.errors.tobytes() == errors.tobytes()


class TestRaicResidual:
    def test_zero_when_points_coincide(self):
        model = SignalModel(Sparse(k=2, n=10), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 80, 10, seed=14)
        u = gen_signal(model, 15)
        assert raic_residual(model, make_sign(), inst, 1.0, 1.0, u, u) == 0.0

    def test_eta_zero_reduces_to_dual_norm_of_difference(self):
        model = SignalModel(Sparse(k=2, n=10), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 80, 10, seed=16)
        u, v = gen_signal(model, 17), gen_signal(model, 18)
        got = raic_residual(model, make_sign(), inst, 1e-300, 2.0, u, v)
        want = restricted_dual_norm(model, u - v, 2.0)
        assert got == pytest.approx(want, rel=1e-6)

    def test_small_for_good_step_size(self):
        # with eta = sqrt(pi/2) and plenty of measurements the residual is
        # well below ||u - v|| for typical sphere pairs
        model = SignalModel(Sparse(k=2, n=30), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 2000, 30, seed=19)
        u, v = gen_signal(model, 20), gen_signal(model, 21)
        res = raic_residual(model, make_sign(), inst, np.sqrt(np.pi / 2), 1.0, u, v)
        assert res < np.linalg.norm(u - v)

    @pytest.mark.parametrize("spec,dither", [(make_sign(), 0.0), (make_saturated(0.5, 8), 0.25)])
    def test_stack_matches_two_point_gradient_per_pair(self, spec, dither):
        # 70 pairs at m=4000 make chunks of 32, 32 and 6 columns
        m, n, pairs, eta, phi = 4000, 40, 70, 0.8, 0.3
        assert pairs % (_BLOCK_ENTRIES // m) != 0
        model = SignalModel(Sparse(k=3, n=n), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, dither, m, n, seed=31)
        us = np.stack([gen_signal(model, 100 + i) for i in range(pairs)], axis=1)
        vs = np.stack([gen_signal(model, 200 + i) for i in range(pairs)], axis=1)
        got = raic_residual(model, spec, inst, eta, phi, us, vs)
        assert got.shape == (pairs,)
        for j, (u, v) in enumerate(zip(us.T, vs.T)):
            h = gradient(spec, inst, measure(inst, spec, v), u)
            want = restricted_dual_norm(model, u - v - eta * h, phi)
            assert abs(got[j] - want) <= 1e-12 * want
        assert raic_residual(model, spec, inst, eta, phi, us[:, 5], vs[:, 5]) == pytest.approx(got[5], rel=1e-12)

    def test_stack_memory_is_bounded_by_the_chunk(self):
        # one product of all 1000 pairs at once would take 40 MB per m x p
        # temporary; chunks of _BLOCK_ENTRIES // m columns keep each near 1 MB
        m, n, pairs = 5000, 100, 1000
        model = SignalModel(Sparse(k=3, n=n), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, m, n, seed=17)
        rng = np.random.default_rng(37)
        us, vs = rng.standard_normal((n, pairs)), rng.standard_normal((n, pairs))
        raic_residual(model, make_sign(), inst, 1.0, 0.05, us[:, :2], vs[:, :2])  # one-time allocations
        tracemalloc.start()
        try:
            raic_residual(model, make_sign(), inst, 1.0, 0.05, us, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_input_validation(self):
        model = SignalModel(Sparse(k=2, n=10), 1.0, 1.0)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 80, 10, seed=14)
        u, v = gen_signal(model, 15), gen_signal(model, 16)
        for eta in ("1", True, 0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eta"):
                raic_residual(model, make_sign(), inst, eta, 1.0, u, v)
        for a, b in ((u, v[:9]), (u[:9], v[:9]), (u[:, None], v), (u[:, None, None], v[:, None, None])):
            with pytest.raises(ValueError):
                raic_residual(model, make_sign(), inst, 1.0, 1.0, a, b)


class TestPgdVsBruteForce:
    def test_within_factor_two_of_net_decoder(self):
        # gradient descent should not lose more than a factor of two against
        # exhaustive Hamming decoding over the exact 0.05-net of the model
        from quantcs import enumerate_net, hdm_decode
        from quantcs.rng import derive_seed

        n, k, m, trials = 12, 2, 800, 50
        model = SignalModel(Sparse(k=k, n=n), 1.0, 1.0)
        spec = make_sign()
        net = enumerate_net(model, r=0.05)
        assert net.shape == (8316, n)
        eta = np.sqrt(np.pi / 2)
        wins = 0
        for t in range(trials):
            x = gen_signal(model, derive_seed(2026, "net-vs-pgd", t, "signal"))
            inst = sample_instance(
                MatrixKind.GAUSSIAN, 0.0, m, n,
                seed=derive_seed(2026, "net-vs-pgd", t, "matrix"),
            )
            y = measure(inst, spec, x)
            start = random_in_model(model, seed=derive_seed(2026, "net-vs-pgd", t, "init"))
            est = pgd_recover(PgdConfig(eta=eta, iterations=100), model, spec, inst, y, start).estimate
            ref = net[hdm_decode(net, spec, inst, y).index]
            if np.linalg.norm(est - x) <= 2.0 * np.linalg.norm(ref - x):
                wins += 1
        assert wins >= 45
