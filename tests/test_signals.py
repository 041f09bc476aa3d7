import math

import numpy as np
import pytest

from quantcs import (
    L1Ball,
    LowRank,
    SignalModel,
    Sparse,
    UnsupportedModelError,
    gen_signal,
    project_model,
    project_norm,
    project_structure,
)
from quantcs.signals import l1ball_magnitudes
from quantcs.verify import l1_projection_report, nearest_in_sparse_sphere, restricted_dual_norm, sparse_project_bruteforce

rng = np.random.default_rng(42)


def sphere(structure):
    return SignalModel(structure, alpha=1.0, beta=1.0)


def ball(structure):
    return SignalModel(structure, alpha=0.0, beta=1.0)


class TestSparseProjection:
    def test_frozen_example(self):
        out = project_structure(sphere(Sparse(k=1, n=3)), np.array([3.0, -4.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, -4.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        out = project_structure(sphere(Sparse(k=1, n=3)), np.array([2.0, -2.0, 2.0]))
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])
        out = project_structure(sphere(Sparse(k=2, n=4)), np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0])

    def test_matches_bruteforce_enumeration(self):
        for _ in range(200):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n + 1))
            u = rng.standard_normal(n)
            fast = project_structure(sphere(Sparse(k=k, n=n)), u)
            np.testing.assert_allclose(fast, sparse_project_bruteforce(u, k), atol=1e-12)

    def test_k_at_least_n_is_identity(self):
        u = rng.standard_normal(4)
        np.testing.assert_array_equal(project_structure(sphere(Sparse(k=7, n=4)), u), u)

    def test_idempotent(self):
        u = rng.standard_normal(30)
        model = sphere(Sparse(k=4, n=30))
        once = project_structure(model, u)
        np.testing.assert_array_equal(project_structure(model, once), once)


class TestLowRankProjection:
    def test_rank_one_diagonal(self):
        # column-major vectorization of diag(3, 1) -> best rank-1 is diag(3, 0)
        u = np.array([3.0, 0.0, 0.0, 1.0])
        out = project_structure(sphere(LowRank(r=1, n1=2, n2=2)), u)
        np.testing.assert_allclose(out, [3.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_rank_never_exceeds_r(self):
        model = sphere(LowRank(r=2, n1=6, n2=5))
        u = rng.standard_normal(30)
        M = project_structure(model, u).reshape((6, 5), order="F")
        assert np.linalg.matrix_rank(M, tol=1e-9) <= 2

    def test_closer_than_any_other_truncation(self):
        model = sphere(LowRank(r=1, n1=4, n2=4))
        u = rng.standard_normal(16)
        p = project_structure(model, u)
        # compare against rank-1 candidates from random directions
        for _ in range(50):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            cand = np.outer(a, b).reshape(-1, order="F")
            cand *= (u @ cand) / (cand @ cand)
            assert np.linalg.norm(u - p) <= np.linalg.norm(u - cand) + 1e-9


class TestL1BallProjection:
    def test_frozen_example(self):
        out = project_structure(ball(L1Ball(radius=1.0, n=2)), np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_inside_ball_untouched(self):
        u = np.array([0.2, -0.3, 0.1])
        out = project_structure(ball(L1Ball(radius=1.0, n=3)), u)
        np.testing.assert_array_equal(out, u)

    def test_kkt_certificate_bulk(self):
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            u = rng.standard_normal(n) * float(10 ** rng.uniform(-2, 2))
            radius = float(rng.uniform(0.1, 5.0))
            p = project_structure(ball(L1Ball(radius=radius, n=n)), u)
            infeas, recon, gap = l1_projection_report(u, radius, p)
            assert infeas <= 1e-10 and recon <= 1e-10 and gap <= 1e-8

    def test_stacked_report_equals_rows(self):
        count, width = 300, 39
        us, ps, radii = np.zeros((count, width)), np.zeros((count, width)), np.empty(count)
        rows = []
        for i in range(count):
            n = int(rng.integers(2, width + 1))
            u = rng.standard_normal(n) * float(10 ** rng.uniform(-2, 2))
            radii[i] = rng.uniform(0.1, 5.0)
            p = project_structure(ball(L1Ball(radius=float(radii[i]), n=n)), u)
            us[i, :n], ps[i, :n] = u, p
            rows.append(l1_projection_report(u, float(radii[i]), p))
        assert all(type(v) is float for row in rows for v in row)
        stacked = l1_projection_report(us, radii, ps)
        # ||p||_1 is summed left to right, so the zero padding moves no bit
        for got, want in zip(stacked, zip(*rows), strict=True):
            assert got.shape == (count,)
            np.testing.assert_array_equal(got, want)
        wider = l1_projection_report(np.pad(us, ((0, 0), (0, 5))), radii, np.pad(ps, ((0, 0), (0, 5))))
        for got, want in zip(wider, stacked, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_stacked_report_flags_only_the_wrong_row(self):
        u = rng.standard_normal((4, 6)) * 3.0
        p = np.stack([project_structure(ball(L1Ball(radius=1.0, n=6)), row) for row in u])
        p[2] *= 0.9  # inside the ball but not the nearest point
        worst = np.maximum.reduce(l1_projection_report(u, np.ones(4), p))
        assert worst[2] > 1e-3 and np.all(np.delete(worst, 2) <= 1e-12)

    def test_report_on_empty_vectors_is_zero(self):
        assert l1_projection_report(np.zeros(0), 1.0, np.zeros(0)) == (0.0, 0.0, 0.0)
        for part in l1_projection_report(np.zeros((3, 0)), np.ones(3), np.zeros((3, 0))):
            np.testing.assert_array_equal(part, np.zeros(3))

    def test_report_shape_checks(self):
        for u, radius, p in [
            (np.ones(3), 1.0, np.ones(4)),
            (np.ones((2, 3)), 1.0, np.ones((2, 3))),
            (np.ones((2, 3)), np.ones(3), np.ones((2, 3))),
            (np.ones(3), np.ones(3), np.ones(3)),
            (np.ones((1, 2, 3)), np.ones((1, 2)), np.ones((1, 2, 3))),
        ]:
            with pytest.raises(ValueError, match="one radius per row"):
                l1_projection_report(u, radius, p)


class TestNormProjection:
    def test_annulus_cases(self):
        np.testing.assert_allclose(project_norm(0.5, 2.0, np.array([0.1, 0.0])), [0.5, 0.0])
        np.testing.assert_allclose(project_norm(0.5, 2.0, np.array([0.0, 4.0])), [0.0, 2.0])
        u = np.array([1.0, 0.5])
        np.testing.assert_array_equal(project_norm(0.5, 2.0, u), u)

    def test_zero_tie_break(self):
        np.testing.assert_array_equal(project_norm(0.5, 2.0, np.zeros(3)), [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(project_norm(0.0, 1.0, np.zeros(3)), np.zeros(3))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            project_norm(-0.1, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            project_norm(2.0, 1.0, np.ones(2))

    def test_cone_composition_matches_bruteforce(self):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            rho = float(rng.uniform(0.5, 2.0))
            model = SignalModel(Sparse(k=k, n=n), alpha=rho, beta=rho)
            u = rng.standard_normal(n)
            np.testing.assert_allclose(
                project_model(model, u), nearest_in_sparse_sphere(u, k, rho), atol=1e-10
            )

    def test_invalid_annulus(self):
        with pytest.raises(ValueError):
            SignalModel(Sparse(k=1, n=2), alpha=2.0, beta=1.0)
        with pytest.raises(ValueError):
            SignalModel(Sparse(k=1, n=2), alpha=-0.1, beta=1.0)


class TestGenSignal:
    def test_sparse_on_sphere(self):
        model = sphere(Sparse(k=3, n=40))
        for seed in range(20):
            x = gen_signal(model, seed)
            assert np.count_nonzero(x) <= 3
            np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)

    def test_sparse_in_ball_rescaled(self):
        model = ball(Sparse(k=3, n=40))
        norms = [np.linalg.norm(gen_signal(model, seed)) for seed in range(500)]
        assert all(0.0 <= v <= 1.0 for v in norms)
        assert 0.4 <= np.mean(norms) <= 0.6  # U([0,1]) has mean 1/2

    def test_low_rank_member(self):
        model = sphere(LowRank(r=2, n1=6, n2=7))
        x = gen_signal(model, 3)
        M = x.reshape((6, 7), order="F")
        assert np.linalg.matrix_rank(M, tol=1e-9) <= 2
        np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)

    def test_l1ball_exact_norms(self):
        # unit l2 norm and l1 norm exactly sqrt(k), for the paper-scale shapes
        for n, k in ((300, 10), (400, 20)):
            model = sphere(L1Ball(radius=np.sqrt(k), n=n))
            for seed in range(500):
                x = gen_signal(model, seed)
                np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-9)
                np.testing.assert_allclose(np.abs(x).sum(), np.sqrt(k), atol=1e-9)

    def test_l1ball_large_entry_count_at_radius_sqrt10(self):
        # c ~ U{1..ceil(0.6 k)} with k = radius * radius in floating point:
        # sqrt(10) squared is 10.000000000000002, so c reaches 7, not 6
        model = sphere(L1Ball(radius=np.sqrt(10), n=300))
        counts = set()
        for seed in range(60):
            mags = np.abs(gen_signal(model, seed))
            counts.add(int(np.count_nonzero(mags == mags.max())))
        assert counts == set(range(1, 8))

    def test_l1ball_tiny_case_collapses(self):
        # n=4, k=1 forces c=1, a=1, b=0: the signal is a signed basis vector
        model = sphere(L1Ball(radius=1.0, n=4))
        x = gen_signal(model, 11)
        np.testing.assert_array_equal(np.sort(np.abs(x)), [0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_l1ball_radius_at_sqrt_n_draws(self, n):
        # sqrt(n) * sqrt(n) rounds above n for these n, yet radius sqrt(n) is the
        # largest l1 norm of a unit vector: every entry has magnitude about 1/sqrt(n)
        x = gen_signal(sphere(L1Ball(radius=math.sqrt(n), n=n)), 0)
        np.testing.assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(x).sum(), math.sqrt(n), atol=1e-12)
        np.testing.assert_allclose(np.abs(x), 1 / math.sqrt(n), atol=1e-7)
        with pytest.raises(ValueError, match=r"exceeds sqrt\(n\)"):
            gen_signal(sphere(L1Ball(radius=float(np.nextafter(math.sqrt(n), n)), n=n)), 0)

    @pytest.mark.parametrize("radius", [1e10, 1e200, 3.2])
    def test_l1ball_radius_beyond_sqrt_n_rejected(self, radius):
        # no unit vector in dimension 10 has an l1 norm above sqrt(10)
        with pytest.raises(ValueError, match=r"exceeds sqrt\(n\)"):
            gen_signal(sphere(L1Ball(radius=radius, n=10)), 0)

    @pytest.mark.parametrize("radius", [0.5, 0.99, 1 - 2**-53])
    def test_l1ball_radius_below_one_rejected(self, radius):
        # every unit vector has an l1 norm of at least 1
        with pytest.raises(ValueError, match="is below 1"):
            gen_signal(sphere(L1Ball(radius=radius, n=10)), 0)

    def test_l1ball_in_one_dimension_rejected(self):
        # radius 1 is the only l1 norm of a unit vector in dimension 1, but the
        # two-valued draw needs a large entry and at least one small one
        with pytest.raises(ValueError, match="the l1-ball draw needs n >= 2"):
            gen_signal(sphere(L1Ball(radius=1.0, n=1)), 0)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 2.0), (0.0, 0.5), (0.5, 2.0)])
    def test_l1ball_norm_range_must_hold_one(self, alpha, beta):
        # the l1-ball draw has unit l2 norm whatever the model's norm range, so the range must hold 1
        model = SignalModel(L1Ball(radius=np.sqrt(10), n=300), alpha, beta)
        if alpha <= 1.0 <= beta:
            assert gen_signal(model, 1).tobytes() == gen_signal(sphere(model.structure), 1).tobytes()
        else:
            with pytest.raises(ValueError, match="unit l2 norm"):
                gen_signal(model, 1)

    def test_magnitude_formula(self):
        a, b = l1ball_magnitudes(1.0, 4, 1)
        assert a == 1.0 and b == 0.0

    def test_deterministic(self):
        model = sphere(Sparse(k=3, n=40))
        np.testing.assert_array_equal(gen_signal(model, 5), gen_signal(model, 5))


class TestRestrictedDualNorm:
    def test_sparse_top_2k(self):
        model = sphere(Sparse(k=2, n=10))
        z = np.arange(10.0)
        # top 4 magnitudes are 6..9
        want = 2.0 * np.linalg.norm([6.0, 7.0, 8.0, 9.0])
        np.testing.assert_allclose(restricted_dual_norm(model, z, 2.0), want)

    def test_sparse_matches_support_search(self):
        model = sphere(Sparse(k=2, n=8))
        z = rng.standard_normal(8)
        from itertools import combinations

        best = max(np.linalg.norm(z[list(s)]) for s in combinations(range(8), 4))
        np.testing.assert_allclose(restricted_dual_norm(model, z, 1.5), 1.5 * best)

    def test_low_rank_top_singular_values(self):
        model = sphere(LowRank(r=1, n1=5, n2=5))
        z = rng.standard_normal(25)
        sv = np.linalg.svd(z.reshape((5, 5), order="F"), compute_uv=False)
        np.testing.assert_allclose(restricted_dual_norm(model, z, 0.7), 0.7 * np.linalg.norm(sv[:2]))

    def test_l1ball_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            restricted_dual_norm(ball(L1Ball(radius=2.0, n=5)), np.zeros(5), 1.0)

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            restricted_dual_norm(sphere(Sparse(k=1, n=3)), np.zeros(3), 0.0)
        for phi in (True, "1", None, float("nan"), -1.0):
            with pytest.raises(ValueError, match="phi"):
                restricted_dual_norm(sphere(Sparse(k=1, n=3)), np.zeros(3), phi)
