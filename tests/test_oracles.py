import numpy as np
import pytest

from quantcs import (
    LowRank,
    MatrixKind,
    SignalModel,
    Sparse,
    enumerate_net,
    estimate_puv,
    gen_signal,
    geodesic_puv,
    hdm_decode,
    make_sign,
    measure,
    sample_instance,
)


def sphere_sparse(k, n):
    return SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)


class TestEnumerateNet:
    def test_k1_is_signed_basis(self):
        net = enumerate_net(sphere_sparse(1, 3), r=0.1)
        assert net.exact and net.size == 6
        want = np.concatenate([np.eye(3), -np.eye(3)])
        np.testing.assert_array_equal(net.points, want)

    def test_k1_respects_sphere_radius(self):
        model = SignalModel(Sparse(k=1, n=4), alpha=2.5, beta=2.5)
        net = enumerate_net(model, r=0.1)
        np.testing.assert_allclose(np.linalg.norm(net.points, axis=1), 2.5)

    def test_k2_covering_property(self):
        model = sphere_sparse(2, 5)
        r = 0.2
        net = enumerate_net(model, r=r)
        assert net.exact
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = gen_signal(model, int(rng.integers(0, 2**32)))
            gap = np.linalg.norm(net.points - x, axis=1).min()
            assert gap <= r + 1e-12

    def test_k2_circle_spacing(self):
        # n_theta points at angle step 2 pi / n_theta on each support circle
        net = enumerate_net(sphere_sparse(2, 3), r=0.5)
        n_theta = net.size // 3
        assert n_theta >= np.ceil(2 * np.pi / 0.5)
        # chord between neighbors is below the covering radius
        chord = 2 * np.sin(np.pi / n_theta)
        assert chord <= 0.5

    def test_cap_raises_instead_of_degrading(self):
        with pytest.raises(ValueError):
            enumerate_net(sphere_sparse(2, 12), r=1e-4, max_points=1000)

    def test_random_fallback_labeled(self):
        model = sphere_sparse(3, 20)
        net = enumerate_net(model, r=0.1, max_points=50, seed=4)
        assert not net.exact and net.size == 50
        # every fallback point is a model member
        assert all(np.count_nonzero(p) <= 3 for p in net.points)
        np.testing.assert_allclose(np.linalg.norm(net.points, axis=1), 1.0, atol=1e-12)

    def test_random_fallback_deterministic(self):
        model = SignalModel(LowRank(r=1, n1=4, n2=4), 1.0, 1.0)
        a = enumerate_net(model, r=0.1, max_points=20, seed=9)
        b = enumerate_net(model, r=0.1, max_points=20, seed=9)
        np.testing.assert_array_equal(a.points, b.points)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            enumerate_net(sphere_sparse(1, 3), r=0.0)


class TestHdmDecode:
    def test_recovers_net_member(self):
        model = sphere_sparse(1, 6)
        net = enumerate_net(model, r=0.05)
        spec = make_sign()
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 80, 6, seed=1)
        x = net.points[7]
        y = measure(inst, spec, x)
        res = hdm_decode(net, spec, inst, y)
        assert res.index == 7 and res.distance == 0
        np.testing.assert_array_equal(res.point, x)

    def test_matches_manual_scan(self):
        model = sphere_sparse(2, 4)
        net = enumerate_net(model, r=0.3)
        spec = make_sign()
        rng = np.random.default_rng(2)
        for trial in range(20):
            inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 15, 4, seed=trial)
            x = gen_signal(model, int(rng.integers(0, 2**32)))
            y = measure(inst, spec, x)
            res = hdm_decode(net, spec, inst, y)
            dists = [int(np.count_nonzero(measure(inst, spec, p) != y)) for p in net.points]
            assert res.distance == min(dists)
            assert res.index == int(np.argmin(dists))  # first tie wins

    def test_shape_validation(self):
        net = enumerate_net(sphere_sparse(1, 6), r=0.05)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 10, 6, seed=3)
        with pytest.raises(ValueError):
            hdm_decode(net, make_sign(), inst, np.ones(9))
        inst5 = sample_instance(MatrixKind.GAUSSIAN, 0.0, 10, 5, seed=3)
        with pytest.raises(ValueError):
            hdm_decode(net, make_sign(), inst5, np.ones(10))


class TestPuv:
    def test_identical_signals_never_separate(self):
        u = np.array([0.6, -0.8])
        est = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, u, 5000, seed=0)
        assert est.p_hat == 0.0 and est.stderr == 0.0

    def test_antipodal_always_separate(self):
        u = np.array([1.0, 0.0, 0.0])
        est = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, -u, 5000, seed=1)
        assert est.p_hat == 1.0
        assert geodesic_puv(u, -u) == pytest.approx(1.0)

    def test_orthogonal_pair_half(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert geodesic_puv(u, v) == pytest.approx(0.5)
        est = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 100_000, seed=2)
        assert est.p_hat == pytest.approx(0.5, abs=4 * est.stderr)

    def test_monte_carlo_matches_geodesic(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(3, 10))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            est = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 100_000, seed=trial)
            assert abs(est.p_hat - geodesic_puv(u, v)) <= 4 * max(est.stderr, 1e-12)

    def test_deterministic(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        a = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 1000, seed=7)
        b = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 1000, seed=7)
        assert a == b

    def test_geodesic_requires_unit_vectors(self):
        with pytest.raises(ValueError):
            geodesic_puv(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(2), np.ones(3), 10, 0)
        with pytest.raises(ValueError):
            estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(2), np.ones(2), 0, 0)
