"""Self-contained oracle suites cross-checking every numerical component.

Each suite pits a fast implementation against an independent reference:
closed forms against Monte Carlo, analytic gradients against finite
differences, structured projections against exhaustive enumeration, the
gradient solver against brute-force Hamming decoding.  The suites power the
``verify`` command and are reused by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .oracles import enumerate_net, estimate_puv, geodesic_puv, hdm_decode
from .pgd import (
    PgdConfig,
    RaicParams,
    RandomInit,
    clipped_gradient,
    gradient,
    gradient_from_thresholds,
    one_sided_l1_loss,
    pgd_recover,
    raic_residual,
)
from .quantizers import make_general, make_saturated, make_sign, make_uniform, quantize, quantize_vec
from .rng import derive_seed, stream
from .sensing import Dither, MatrixKind, measure, sample_instance
from .signals import L1Ball, SignalModel, Sparse, gen_signal, project_model, project_norm, project_structure

__all__ = [
    "Check",
    "SUITES",
    "run_suite",
    "sparse_project_bruteforce",
    "nearest_in_sparse_sphere",
    "l1_projection_report",
    "fd_gradient",
    "random_quantizer",
    "fit_raic_params",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# reference implementations (oracles)


def sparse_project_bruteforce(u: np.ndarray, k: int) -> np.ndarray:
    """Best k-sparse approximation by trying every support of size k.

    Distance ties resolve to the lexicographically smallest support, which
    matches breaking magnitude ties toward lower indices.
    """
    n = u.size
    if k >= n:
        return u.copy()
    best, best_d = None, np.inf
    for supp in combinations(range(n), k):
        cand = np.zeros(n)
        cand[list(supp)] = u[list(supp)]
        d = float(np.linalg.norm(u - cand))
        if d < best_d - 1e-15:
            best, best_d = cand, d
    return best


def nearest_in_sparse_sphere(u: np.ndarray, k: int, rho: float) -> np.ndarray:
    """Brute-force nearest point among k-sparse vectors of norm ``rho``."""
    n = u.size
    best, best_d = None, np.inf
    for supp in combinations(range(n), min(k, n)):
        us = u[list(supp)]
        nrm = np.linalg.norm(us)
        cand = np.zeros(n)
        if nrm == 0.0:
            cand[supp[0]] = rho
        else:
            cand[list(supp)] = rho * us / nrm
        d = float(np.linalg.norm(u - cand))
        if d < best_d - 1e-15:
            best, best_d = cand, d
    return best


def l1_projection_report(u: np.ndarray, radius: float, p: np.ndarray) -> tuple[float, float, float]:
    """KKT-style certificate for a claimed l1-ball projection ``p`` of ``u``.

    Returns ``(infeasibility, reconstruction_gap, duality_gap)``: how far
    ``||p||_1`` exceeds the radius, how far ``p`` is from the soft
    thresholding of ``u`` at the implied multiplier, and the complementary
    slackness product. All three are ~0 iff ``p`` is the true projection.
    """
    theta = max(0.0, float(np.max(np.abs(u) - np.abs(p))))
    soft = np.sign(u) * np.maximum(np.abs(u) - theta, 0.0)
    infeas = max(0.0, float(np.abs(p).sum() - radius))
    recon = float(np.max(np.abs(p - soft))) if p.size else 0.0
    gap = abs(theta * (radius - float(np.abs(p).sum())))
    return infeas, recon, gap


def fd_gradient(spec, instance, y, u, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the one-sided l1 loss."""
    u = np.asarray(u, dtype=float)
    g = np.zeros_like(u)
    for i in range(u.size):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (one_sided_l1_loss(spec, instance, y, up) - one_sided_l1_loss(spec, instance, y, dn)) / (2 * h)
    return g


def random_quantizer(rng: np.random.Generator):
    """Draw from one of the four quantizer constructors with random parameters."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return make_sign()
    delta = float(rng.uniform(0.2, 3.0))
    if kind == 1:
        return make_uniform(delta)
    levels = 2 * int(rng.integers(1, 9))
    if kind == 2:
        return make_saturated(delta, levels)
    q0 = float(rng.uniform(-4.0, 0.0))
    values = q0 + delta * np.arange(levels)
    return make_general(thresholds=(values[:-1] + values[1:]) / 2.0, level_values=values)


def _min_threshold_margin(spec, instance, u) -> float:
    """Smallest |correlation - threshold| over all rows and thresholds."""
    z = instance.matrix @ np.asarray(u, float) - instance.dither
    if spec.thresholds is None:
        frac = z / spec.delta
        return float(spec.delta * np.min(np.abs(frac - np.rint(frac))))
    return float(np.min(np.abs(z[:, None] - spec.thresholds[None, :])))


def fit_raic_params(dists, residuals, phi: float, mu4: float) -> RaicParams:
    """Least-squares fit of residual/phi ~ mu1*d + sqrt(mu2*d) + mu3.

    The model is linear in ``(mu1, sqrt(mu2), mu3)`` over features
    ``(d, sqrt(d), 1)``; negative coefficients clip to zero.
    """
    d = np.asarray(dists, dtype=float)
    r = np.asarray(residuals, dtype=float) / phi
    X = np.stack([d, np.sqrt(d), np.ones_like(d)], axis=1)
    coef, *_ = np.linalg.lstsq(X, r, rcond=None)
    c1, c2, c3 = (max(0.0, float(c)) for c in coef)
    return RaicParams(mu1=c1, mu2=c2 * c2, mu3=c3, mu4=mu4, phi=phi)


# ---------------------------------------------------------------------------
# suites


def quantizer_suite(pairs: int = 100_000, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "quantizer")

    a = rng.uniform(-50, 50, size=pairs)
    deltas = rng.uniform(0.1, 5.0, size=8)
    worst = max(float(np.max(np.abs(quantize_vec(make_uniform(d), a) - a)) / (d / 2)) for d in deltas)
    checks.append(Check("uniform_error_within_half_cell", worst <= 1.0 + 1e-12, f"max |Q(a)-a|/(delta/2) = {worst:.6f}"))

    ok, detail = True, ""
    for d in (0.5, 1.0, 2.5):
        for L in (2, 4, 8, 16):
            sat = make_saturated(d, L)
            z = rng.uniform(-L * d, L * d, size=5000)
            inside = np.abs(z) < L * d / 2
            same = np.array_equal(quantize_vec(sat, z[inside]), quantize_vec(make_uniform(d), z[inside]))
            nlev = np.unique(quantize_vec(sat, np.linspace(-L * d, L * d, 4 * L + 1))).size
            if not same or nlev != L:
                ok, detail = False, f"delta={d}, L={L}: in-range match={same}, levels seen={nlev}"
                break
    checks.append(Check("saturated_equals_uniform_in_range", ok, detail or "all (delta, L) combinations agree"))

    a = rng.uniform(-20, 20, size=pairs)
    b = a + rng.uniform(-6, 6, size=pairs)
    delta_grid = np.array([0.2, 1.0 / 3.0, 0.5, 0.625, 1.0, 1.7, 2.4, 3.0])
    delta = rng.choice(delta_grid, size=pairs)
    levels = 2 * rng.integers(1, 9, size=pairs)
    qa = np.empty(pairs)
    qb = np.empty(pairs)
    for L in np.unique(levels):
        for d in delta_grid:
            mask = (levels == L) & (delta == d)
            if not np.any(mask):
                continue
            spec = make_saturated(float(d), int(L))
            qa[mask] = quantize_vec(spec, a[mask])
            qb[mask] = quantize_vec(spec, b[mask])
    rhs = np.abs(a - b) * (np.abs(a - b) >= delta)
    lhs = np.abs(np.abs(qa - qb) - delta) * (qa != qb)
    violations = int(np.count_nonzero(lhs > rhs + 1e-12))
    checks.append(
        Check(
            "level_step_bound",
            violations == 0,
            f"{violations} violations of ||Q(a)-Q(b)|-delta| <= |a-b| 1(|a-b|>=delta) on {pairs} tuples",
        )
    )

    ok = True
    for spec in (make_sign(), make_uniform(0.7), make_saturated(0.7, 6)):
        z = np.sort(rng.uniform(-5, 5, size=2000))
        q = quantize_vec(spec, z)
        if np.any(np.diff(q) < 0):
            ok = False
    checks.append(Check("monotone", ok, "quantization preserves ordering"))

    ties = (
        quantize(make_sign(), 0.0) == 1.0
        and quantize(make_uniform(1.0), 1.0) == 1.5
        and quantize(make_saturated(1.0, 4), 1.0) == 1.5
        and quantize(make_saturated(1.0, 4), -1.0) == -0.5
    )
    checks.append(Check("threshold_ties_map_up", ties, "values on thresholds take the upper level"))
    return checks


def projection_suite(l1_count: int = 10_000, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "projection")

    ok, detail = True, ""
    for trial in range(300):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        u = rng.standard_normal(n)
        if rng.random() < 0.2:  # inject magnitude ties
            u[rng.integers(0, n)] = u[rng.integers(0, n)]
        model = SignalModel(Sparse(k=k, n=n), alpha=1.0, beta=1.0)
        fast = project_structure(model, u)
        slow = sparse_project_bruteforce(u, k)
        if not np.allclose(fast, slow, atol=1e-12):
            ok, detail = False, f"trial {trial}: n={n}, k={k}"
            break
    checks.append(Check("sparse_matches_enumeration", ok, detail or "300 random instances agree"))

    worst = (0.0, 0.0, 0.0)
    structure_fail = 0
    for _ in range(l1_count):
        n = int(rng.integers(2, 40))
        u = rng.standard_normal(n) * float(10 ** rng.uniform(-2, 2))
        radius = float(rng.uniform(0.1, 5.0))
        model = SignalModel(L1Ball(radius=radius, n=n), alpha=0.0, beta=100.0)
        p = project_structure(model, u)
        rep = l1_projection_report(u, radius, p)
        worst = tuple(max(w, r) for w, r in zip(worst, rep))
        if max(rep) > 1e-8:
            structure_fail += 1
    checks.append(
        Check(
            "l1_ball_kkt",
            structure_fail == 0,
            f"worst (infeasibility, recon, duality gap) = ({worst[0]:.2e}, {worst[1]:.2e}, {worst[2]:.2e}) "
            f"over {l1_count} vectors",
        )
    )

    zero_tie = project_norm(0.5, 2.0, np.zeros(6))
    expected = np.zeros(6)
    expected[0] = 0.5
    in_annulus = all(
        0.5 - 1e-12 <= np.linalg.norm(project_norm(0.5, 2.0, rng.standard_normal(6) * s)) <= 2.0 + 1e-12
        for s in (1e-3, 0.3, 1.0, 50.0)
    )
    checks.append(
        Check(
            "norm_annulus",
            bool(np.array_equal(zero_tie, expected) and in_annulus),
            "zero maps to alpha*e1; norms always land in [alpha, beta]",
        )
    )

    ok, detail = True, ""
    for trial in range(200):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n))
        rho = float(rng.uniform(0.5, 2.0))
        u = rng.standard_normal(n)
        model = SignalModel(Sparse(k=k, n=n), alpha=rho, beta=rho)
        fast = project_model(model, u)
        slow = nearest_in_sparse_sphere(u, k, rho)
        if not np.allclose(fast, slow, atol=1e-10):
            ok, detail = False, f"trial {trial}: n={n}, k={k}, rho={rho:.3f}"
            break
    checks.append(Check("cone_composition", ok, detail or "two-stage projection matches brute force on spheres"))

    u = rng.standard_normal(12)
    model = SignalModel(Sparse(k=3, n=12), alpha=1.0, beta=1.0)
    once = project_model(model, u)
    twice = project_model(model, once)
    checks.append(Check("idempotent", bool(np.array_equal(once, twice)), "projection is a fixed point of itself"))
    return checks


def gradient_suite(configs: int = 1000, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "gradient")

    worst_id = 0.0
    worst_fd = 0.0
    done_fd = 0
    for trial in range(configs):
        spec = random_quantizer(rng)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(3, 25))
        mk = MatrixKind.GAUSSIAN if rng.random() < 0.5 else MatrixKind.RADEMACHER
        dither = Dither.uniform(float(rng.uniform(0.0, 2.0))) if rng.random() < 0.5 else Dither.zero()
        inst = sample_instance(mk, dither, m, n, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(n)
        y = measure(inst, spec, x)
        u = rng.standard_normal(n)
        g1 = gradient(spec, inst, y, u)
        g2 = gradient_from_thresholds(spec, inst, y, u)
        scale = max(1.0, float(np.max(np.abs(g1))))
        worst_id = max(worst_id, float(np.max(np.abs(g1 - g2))) / scale)
        if _min_threshold_margin(spec, inst, u) > 1e-3:
            fd = fd_gradient(spec, inst, y, u, h=1e-5)
            denom = max(float(np.linalg.norm(g1)), 1e-9)
            worst_fd = max(worst_fd, float(np.linalg.norm(fd - g1)) / denom)
            done_fd += 1
    checks.append(Check("gradient_forms_agree", worst_id <= 1e-12, f"worst relative gap {worst_id:.2e}"))
    checks.append(
        Check(
            "finite_difference_match",
            worst_fd <= 1e-6 and done_fd > configs // 3,
            f"worst relative FD error {worst_fd:.2e} on {done_fd} off-threshold configs",
        )
    )

    ok = True
    spec = make_sign()
    for _ in range(50):
        n, m = 6, 40
        inst = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(0.5), m, n, int(rng.integers(0, 2**32)))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = clipped_gradient(spec, inst, u, v)
        rhs = gradient(spec, inst, measure(inst, spec, v), u)
        if not np.array_equal(lhs, rhs):
            ok = False
            break
    checks.append(Check("sign_clipped_equals_plain", ok, "one-bit clipped gradient is the plain gradient, bitwise"))

    spec = make_saturated(0.5, 8)
    inst = sample_instance(MatrixKind.GAUSSIAN, Dither.uniform(0.25), 60, 8, 7)
    x = gen_signal(SignalModel(Sparse(k=3, n=8), alpha=1.0, beta=1.0), 3)
    y = measure(inst, spec, x)
    at_truth = one_sided_l1_loss(spec, inst, y, x) == 0.0 and not np.any(gradient(spec, inst, y, x))
    checks.append(Check("zero_loss_at_truth", bool(at_truth), "consistent signals have zero loss and zero gradient"))
    return checks


def puv_suite(mc_pairs: int = 20, mc_samples: int = 100_000, bound_pairs: int = 10_000, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "puv")
    sign = make_sign()

    hits = 0
    worst_z = 0.0
    for i in range(mc_pairs):
        n = int(rng.integers(3, 16))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        est = estimate_puv(sign, MatrixKind.GAUSSIAN, Dither.zero(), u, v, mc_samples, int(rng.integers(0, 2**32)))
        exact = geodesic_puv(u, v)
        se = max(est.stderr, 1e-12)
        z = abs(est.p_hat - exact) / se
        worst_z = max(worst_z, z)
        hits += z <= 3.0
    checks.append(
        Check(
            "geodesic_matches_monte_carlo",
            hits >= mc_pairs - 1,
            f"{hits}/{mc_pairs} pairs within 3 binomial stderr (worst z = {worst_z:.2f})",
        )
    )

    ok = True
    for _ in range(bound_pairs):
        n = int(rng.integers(2, 12))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        d = float(np.linalg.norm(u - v))
        p = geodesic_puv(u, v)
        if not (d / math.pi - 1e-12 <= p <= d / 2.0 + 1e-12):
            ok = False
            break
    checks.append(Check("two_sided_norm_bound", ok, f"d/pi <= p <= d/2 on {bound_pairs} unit pairs"))

    lam = 2.0
    ok, worst = True, -np.inf
    for _ in range(20):
        n = int(rng.integers(2, 12))
        u = rng.standard_normal(n)
        u *= rng.uniform(0, 1) / np.linalg.norm(u)
        v = rng.standard_normal(n)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        est = estimate_puv(sign, MatrixKind.RADEMACHER, Dither.uniform(lam), u, v, 50_000, int(rng.integers(0, 2**32)))
        slack = est.p_hat - (float(np.linalg.norm(u - v)) / (2 * lam) + 3 * est.stderr)
        worst = max(worst, slack)
        ok = ok and slack <= 0
    checks.append(Check("dithered_one_bit_bound", ok, f"max excess over ||u-v||/(2 lam) + 3 se: {worst:.2e}"))

    delta, L = 5.0 / 8, 8
    sat = make_saturated(delta, L)
    ok, worst = True, -np.inf
    for _ in range(20):
        n = int(rng.integers(2, 12))
        u = rng.standard_normal(n)
        u *= rng.uniform(0, 1) / np.linalg.norm(u)
        v = rng.standard_normal(n)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        est = estimate_puv(sat, MatrixKind.RADEMACHER, Dither.uniform(delta / 2), u, v, 50_000, int(rng.integers(0, 2**32)))
        slack = est.p_hat - (float(np.linalg.norm(u - v)) / delta + 3 * est.stderr)
        worst = max(worst, slack)
        ok = ok and slack <= 0
    checks.append(Check("multi_bit_bound", ok, f"max excess over ||u-v||/delta + 3 se: {worst:.2e}"))

    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    est = estimate_puv(sign, MatrixKind.GAUSSIAN, Dither.zero(), u, u, 10_000, 5)
    checks.append(Check("identical_signals_never_separate", est.p_hat == 0.0, f"p_hat = {est.p_hat}"))
    return checks


def hdm_suite(trials: int = 50, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "hdm")
    sign = make_sign()
    model = SignalModel(Sparse(k=1, n=6), alpha=1.0, beta=1.0)
    net = enumerate_net(model, r=0.05)

    ok = True
    inst = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 25, 6, 11)
    for _ in range(30):
        x = gen_signal(model, int(rng.integers(0, 2**32)))
        y = measure(inst, sign, x)
        res = hdm_decode(net, sign, inst, y)
        dists = [int(np.count_nonzero(measure(inst, sign, p) != y)) for p in net.points]
        manual = int(np.argmin(dists))
        if res.index != manual or res.distance != dists[manual]:
            ok = False
            break
    checks.append(Check("exhaustive_argmin_with_first_tie", ok, "decoder matches a manual scan of the net"))

    member_err = max(
        abs(float(np.linalg.norm(p)) - 1.0) + (0.0 if np.count_nonzero(p) <= 1 else 1.0) for p in net.points
    )
    checks.append(Check("net_points_lie_in_model", member_err <= 1e-12, f"worst membership defect {member_err:.2e}"))

    good = 0
    for t in range(trials):
        tseed = derive_seed(seed, "hdm_theorem", t)
        x = gen_signal(model, tseed)
        inst = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 200, 6, tseed)
        y = measure(inst, sign, x)
        hdm_err = float(np.linalg.norm(hdm_decode(net, sign, inst, y).point - x))
        cfg = PgdConfig(eta=math.sqrt(math.pi / 2), iterations=100, init=RandomInit(tseed))
        pgd_err = float(np.linalg.norm(pgd_recover(cfg, model, sign, inst, y, truth=x).estimate - x))
        good += hdm_err <= 0.1 and pgd_err <= 0.1
    checks.append(
        Check(
            "both_decoders_near_truth",
            good >= trials - 2,
            f"{good}/{trials} trials with HDM and PGD errors <= 0.1 at m=200",
        )
    )
    return checks


# Generous cap on the additive resolution term: measured fits over random pairs
# stay far below this, so a violation flags a real regression rather than noise.
RAIC_C_CEILING = 8.0


def raic_suite(pairs: int = 1000, seed: int = 20260814) -> list[Check]:
    checks = []
    rng = stream(seed, "verify", "raic")
    sign = make_sign()
    model = SignalModel(Sparse(k=3, n=100), alpha=1.0, beta=1.0)
    inst = sample_instance(MatrixKind.GAUSSIAN, Dither.zero(), 5000, 100, 17)
    eta = math.sqrt(math.pi / 2)
    r = 0.05

    u = gen_signal(model, 1)
    checks.append(Check("zero_residual_at_equal_points", raic_residual(model, sign, inst, eta, r, u, u) == 0.0, "residual(u, u) = 0"))

    v = gen_signal(model, 2)
    r1 = raic_residual(model, sign, inst, eta, 1.0, u, v)
    r2 = raic_residual(model, sign, inst, eta, 2.5, u, v)
    checks.append(Check("residual_linear_in_phi", abs(r2 - 2.5 * r1) <= 1e-9 * max(1.0, r2), f"phi=1: {r1:.6f}, phi=2.5: {r2:.6f}"))

    dists, residuals = [], []
    for i in range(pairs):
        a = gen_signal(model, derive_seed(seed, "pair_a", i))
        b = gen_signal(model, derive_seed(seed, "pair_b", i))
        dists.append(float(np.linalg.norm(a - b)))
        residuals.append(raic_residual(model, sign, inst, eta, r, a, b))
    dists = np.array(dists)
    residuals = np.array(residuals)
    slack = residuals / r - (0.6 * dists + 3.0 * np.sqrt(r * dists) + RAIC_C_CEILING * r)
    params = fit_raic_params(dists, residuals, phi=r, mu4=float(dists.max()))
    checks.append(
        Check(
            "contraction_envelope",
            float(slack.max()) <= 0.0,
            f"max slack {slack.max():.3f}; fitted (mu1, mu2, mu3) = "
            f"({params.mu1:.3f}, {params.mu2:.3f}, {params.mu3:.3f}) over {pairs} pairs",
        )
    )
    return checks


SUITES = {
    "quantizer": quantizer_suite,
    "projection": projection_suite,
    "gradient": gradient_suite,
    "puv": puv_suite,
    "hdm": hdm_suite,
    "raic": raic_suite,
}


def run_suite(name: str) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
