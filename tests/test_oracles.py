import tracemalloc

import numpy as np
import pytest

from quantcs import (
    HdmResult,
    L1Ball,
    LowRank,
    MatrixKind,
    SignalModel,
    Sparse,
    UnsupportedModelError,
    enumerate_net,
    estimate_puv,
    gen_signal,
    geodesic_puv,
    hdm_decode,
    make_sign,
    measure,
    sample_instance,
)
from quantcs.oracles import NET_ENTRIES_CAP


def sphere_sparse(k, n):
    return SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)


class TestEnumerateNet:
    def test_k1_is_signed_basis(self):
        net = enumerate_net(sphere_sparse(1, 3), r=0.1)
        want = np.concatenate([np.eye(3), -np.eye(3)])
        np.testing.assert_array_equal(net, want)

    def test_k_above_n_covers_the_whole_model(self):
        # with k = 2 and n = 1 the model is {+1, -1}, not an empty set
        model = SignalModel(Sparse(k=2, n=1), 1.0, 1.0)
        net = enumerate_net(model, r=0.1)
        np.testing.assert_array_equal(net, [[1.0], [-1.0]])
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 10, 1, seed=5)
        y = measure(inst, make_sign(), np.array([-1.0]))
        assert hdm_decode(net, make_sign(), inst, y) == HdmResult(index=1, distance=0)

    def test_k1_respects_sphere_radius(self):
        model = SignalModel(Sparse(k=1, n=4), alpha=2.5, beta=2.5)
        net = enumerate_net(model, r=0.1)
        np.testing.assert_allclose(np.linalg.norm(net, axis=1), 2.5)

    def test_k2_covering_property(self):
        model = sphere_sparse(2, 5)
        r = 0.2
        net = enumerate_net(model, r=r)
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = gen_signal(model, int(rng.integers(0, 2**32)))
            gap = np.linalg.norm(net - x, axis=1).min()
            assert gap <= r + 1e-12

    def test_k2_circle_spacing(self):
        # n_theta points at angle step 2 pi / n_theta on each support circle
        net = enumerate_net(sphere_sparse(2, 3), r=0.5)
        n_theta = len(net) // 3
        assert n_theta >= np.ceil(2 * np.pi / 0.5)
        # chord between neighbors is below the covering radius
        chord = 2 * np.sin(np.pi / n_theta)
        assert chord <= 0.5

    def test_cap_raises_instead_of_degrading(self):
        # 8,316 points x 12 fit under the cap; the same grid at n = 14 does not
        assert len(enumerate_net(sphere_sparse(2, 12), r=0.05)) * 12 <= NET_ENTRIES_CAP
        too_big = [(sphere_sparse(2, 14), 0.05), (sphere_sparse(2, 12), 1e-4), (sphere_sparse(2, 3), 5e-324), (sphere_sparse(1, 1000), 0.1)]
        for model, r in too_big:
            with pytest.raises(ValueError, match="above the cap"):
                enumerate_net(model, r=r)

    @pytest.mark.parametrize(
        "model",
        [
            sphere_sparse(3, 20),
            SignalModel(Sparse(k=2, n=5), alpha=0.0, beta=1.0),
            SignalModel(LowRank(r=1, n1=4, n2=4), 1.0, 1.0),
            SignalModel(L1Ball(n=5, radius=1.0), 1.0, 1.0),
        ],
    )
    def test_unsupported_models_raise(self, model):
        with pytest.raises(UnsupportedModelError):
            enumerate_net(model, r=0.1)

    def test_radius_validation(self):
        for r in (0.0, -0.1, float("nan"), float("inf"), "0.1", True):
            with pytest.raises(ValueError):
                enumerate_net(sphere_sparse(1, 3), r=r)


class TestHdmDecode:
    def test_recovers_net_member(self):
        model = sphere_sparse(1, 6)
        net = enumerate_net(model, r=0.05)
        spec = make_sign()
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 80, 6, seed=1)
        y = measure(inst, spec, net[7])
        assert hdm_decode(net, spec, inst, y) == HdmResult(index=7, distance=0)

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
            dists = [int(np.count_nonzero(measure(inst, spec, p) != y)) for p in net]
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
        for bad in (net[0], net[:0], net[None]):
            with pytest.raises(ValueError):
                hdm_decode(bad, make_sign(), inst, np.ones(10))


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
        with pytest.raises(ValueError):
            geodesic_puv(np.array([1.0, 0.0]), np.array([np.nan, 0.0]))

    def test_stacked_geodesic_equals_rows(self):
        rng = np.random.default_rng(4)
        count, width = 300, 11
        us, vs = np.zeros((count, width)), np.zeros((count, width))
        rows = []
        for i in range(count):
            n = int(rng.integers(2, width + 1))
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            us[i, :n], vs[i, :n] = u, v
            rows.append(geodesic_puv(u, v))
        assert all(type(p) is float for p in rows)
        stacked = geodesic_puv(us, vs)
        assert stacked.shape == (count,)
        np.testing.assert_allclose(stacked, rows, rtol=0.0, atol=1e-15)
        # more zero padding changes nothing
        wider = geodesic_puv(np.pad(us, ((0, 0), (0, 5))), np.pad(vs, ((0, 0), (0, 5))))
        np.testing.assert_allclose(wider, stacked, rtol=0.0, atol=1e-15)

    def test_stacked_geodesic_requires_unit_rows(self):
        us = np.eye(3)
        for bad in (2.0 * us[1], np.zeros(3), np.array([np.nan, 0.0, 0.0])):
            vs = us.copy()
            vs[1] = bad
            with pytest.raises(ValueError, match="v must be a unit vector"):
                geodesic_puv(us, vs)
        with pytest.raises(ValueError, match="must share a shape"):
            geodesic_puv(us, us[:, :2])
        with pytest.raises(ValueError, match="must share a shape"):
            geodesic_puv(us[None], us[None])

    def test_memory_does_not_grow_with_samples(self):
        # one block of rows at a time: a one-shot draw would hold 10**6 x 15 floats, 120 MB
        u, v = np.eye(15)[:2]
        estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 10, 0)  # one-time allocations
        tracemalloc.start()
        try:
            est = estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, u, v, 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert est.p_hat == pytest.approx(0.5, abs=4 * est.stderr)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(2), np.ones(3), 10, 0)
        with pytest.raises(ValueError, match="nonempty"):
            estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(0), np.ones(0), 10, 0)
        with pytest.raises(ValueError):
            estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(2), np.ones(2), 0, 0)
        for samples in ("5", 5.5, True, None):
            with pytest.raises(ValueError, match="samples must be an integer"):
                estimate_puv(make_sign(), MatrixKind.GAUSSIAN, 0.0, np.ones(2), np.ones(2), samples, 0)
