"""Self-contained oracle suites cross-checking every numerical component.

Each suite pits a fast implementation against an independent reference:
closed forms against Monte Carlo, analytic gradients against finite
differences, structured projections against exhaustive enumeration, the
gradient solver against brute-force Hamming decoding.  The suites power the
``verify`` command and are reused by the test suite; each takes no argument
and draws from its own stream of ``SEED``.  Only ``quantcs verify`` imports
this module.

The analysis objects that only these cross-checks need live here, beside
their references, and not in the solver: the one-sided l1 loss value, its
gradient assembled threshold by threshold, the clipped two-point gradient,
the restricted dual norm and the RAIC residual measured in it.

The loss and the RAIC residual also take iterates stacked as the columns of
an ``(n, p)`` array, so the ``2n`` probes of ``fd_gradient`` and the RAIC
pairs go through the matrix as products with column stacks; the residual
takes its stack in chunks of ``_BLOCK_ENTRIES // m`` columns, about 1 MB per
temporary whatever ``p`` is.  Likewise ``l1_projection_report`` and
``geodesic_puv`` take row stacks: the projection and separation suites draw
their vectors one by one, as before, into zero-padded stacks, the 10,000
l1-ball vectors in stacks of 1,000 rows and the 10,000 geodesic pairs in
one, and certify each stack with one call.

Each suite holds one chunk or one check's arrays at a time: it drops a
check's large arrays once the check is counted.  Their ``tracemalloc`` peaks
are about 5.8 MB (quantizer), 1.3 MB (projection), 4.4 MB (gradient), 5.6 MB
(puv), 0.1 MB (hdm) and 6.6 MB (raic: its 5000 x 100 matrix and two column
chunks); the acceptance tests hold each to 7.5 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .oracles import enumerate_net, estimate_puv, geodesic_puv, hdm_decode
from .pgd import PgdConfig, gradient, pgd_recover
from .quantizers import QuantizerSpec, level_index, make_saturated, make_sign, quantize_vec
from .rng import derive_seed, stream
from .sensing import _BLOCK_ENTRIES, _CHUNK, _SPARSE_D, _SPARSE_U, MatrixKind, SensingInstance, _adjoint, _block_rows
from .sensing import _forward, measure, sample_instance
from .signals import (
    L1Ball,
    LowRank,
    SignalModel,
    Sparse,
    UnsupportedModelError,
    _check_dim,
    check_real,
    gen_signal,
    project_model,
    project_norm,
    project_structure,
    random_in_model,
)

__all__ = [
    "Check",
    "SUITES",
    "SEED",
    "run_suite",
    "one_sided_l1_loss",
    "gradient_from_thresholds",
    "clipped_gradient",
    "restricted_dual_norm",
    "raic_residual",
    "sparse_project_bruteforce",
    "nearest_in_sparse_sphere",
    "l1_projection_report",
    "fd_gradient",
    "pgd_full_loop",
    "random_quantizer",
    "fit_raic_params",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


# seed of every suite's random stream
SEED = 20260814


# ---------------------------------------------------------------------------
# analysis forms of the loss and its gradient


def _margins(spec, instance, y, u):
    """Shared setup: correlations ``z`` and the ``(m, L-1)`` per-threshold signs of ``y``.

    ``u`` is one iterate of shape ``(n,)``, giving ``z`` of shape ``(m,)``, or
    a stack ``(n, p)`` of them, giving one row of ``z`` per iterate, ``(p, m)``.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != instance.n:
        raise ValueError(f"iterate shape {u.shape} does not match n={instance.n}")
    if y.shape != (instance.m,):
        raise ValueError(f"measurement shape {y.shape} does not match m={instance.m}")
    z = (instance.matrix @ u).T - instance.dither
    idx = level_index(spec, y)
    return z, np.where(idx[:, None] > np.arange(spec.thresholds.size)[None, :], 1.0, -1.0)


def one_sided_l1_loss(spec, instance, y, u) -> float | np.ndarray:
    """One-sided l1 consistency loss of the iterate ``u`` against ``y``.

    Zero exactly on the set of signals that reproduce ``y``; each term grows
    linearly with the distance by which a correlation lands on the wrong
    side of a threshold it should clear.  An iterate of shape ``(n,)`` gives a
    float; a stack ``(n, p)`` gives the ``p`` losses of its columns.
    """
    z, yij = _margins(spec, instance, y, u)
    hinge = np.maximum(-yij * (z[..., None] - spec.thresholds), 0.0)
    loss = spec.delta / instance.m * hinge.sum(axis=(-2, -1))
    return float(loss) if loss.ndim == 0 else loss


def gradient_from_thresholds(spec, instance, y, u) -> np.ndarray:
    """The same subgradient assembled threshold by threshold.

    Evaluates ``(Delta / 2m) sum_i sum_j (sign(<a_i,u> - tau_i - b_j) - y_ij) a_i``
    directly; kept as an independent cross-check of ``gradient``.  Like the
    loss, it takes a stack ``(n, p)`` of iterates and then returns ``(n, p)``.
    """
    z, yij = _margins(spec, instance, y, u)
    sgn = np.where(z[..., None] - spec.thresholds >= 0.0, 1.0, -1.0)
    coeff = (sgn - yij).sum(axis=-1)
    return spec.delta / (2.0 * instance.m) * (instance.matrix.T @ coeff.T)


def clipped_gradient(spec, instance, u, v) -> np.ndarray:
    """Gradient with per-row transfer clipped to a single level step.

    Rows where ``u`` and ``v`` quantize identically drop out; every other row
    contributes ``Delta * sign(<a_i, u - v>) a_i / m`` regardless of how many
    levels apart the two quantized values are. Coincides with the plain
    two-point gradient whenever no row jumps more than one level (always, for
    one-bit quantizers).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (instance.n,) or v.shape != (instance.n,):
        raise ValueError("u and v must both have shape (n,)")
    zu = _forward(instance.matrix, u) - instance.dither
    zv = _forward(instance.matrix, v) - instance.dither
    changed = quantize_vec(spec, zu) != quantize_vec(spec, zv)
    d = spec.delta * np.sign(zu - zv) * changed
    return _adjoint(instance.matrix, d) / instance.m


def _column_chunks(m: int, p: int) -> list[slice]:
    """Slices of at most ``_BLOCK_ENTRIES // m`` columns covering ``p`` columns."""
    width = max(1, _BLOCK_ENTRIES // m)
    return [slice(i, i + width) for i in range(0, p, width)]


def restricted_dual_norm(model: SignalModel, z, phi: float) -> float:
    """Support function of ``(K - K)`` intersected with the radius-``phi`` ball.

    Closed forms: for ``k``-sparse models this is ``phi`` times the l2 norm
    of the ``2k`` largest-magnitude entries of ``z``; for rank-``r`` models,
    ``phi`` times the l2 norm of the ``2r`` largest singular values of the
    reshaped ``z``. The l1 ball has no such closed form here.
    """
    if not (math.isfinite(check_real(phi, "phi")) and phi > 0):
        raise ValueError(f"phi must be a positive finite real, got {phi}")
    z = _check_dim(model, z)
    s = model.structure
    if isinstance(s, Sparse):
        top = min(2 * s.k, s.n)
        largest = np.sort(np.abs(z))[s.n - top :]
        return phi * float(np.linalg.norm(largest))
    if isinstance(s, LowRank):
        sv = np.linalg.svd(z.reshape((s.n1, s.n2), order="F"), compute_uv=False)
        top = min(2 * s.r, sv.size)
        return phi * float(np.linalg.norm(sv[:top]))
    raise UnsupportedModelError("restricted dual norm has no closed form for l1-ball models")


def raic_residual(model, spec, instance, eta: float, phi: float, u, v) -> float | np.ndarray:
    """Restricted dual norm of ``u - v - eta * h(u, v)``.

    ``h(u, v) = (1/m) A^T (Q(Au - tau) - Q(Av - tau))`` is the two-point
    gradient; a small residual uniformly over model pairs is exactly the
    approximate-invertibility property that drives convergence proofs.

    One pair of shape ``(n,)`` gives a float.  Two stacks of shape ``(n, p)``,
    pair ``j`` in column ``j``, give the ``p`` residuals; they go through the
    matrix in chunks of ``_BLOCK_ENTRIES // m`` columns, so ``A U - tau`` and
    ``A V - tau`` take about 1 MB each whatever ``p`` is.  Their quantized
    difference ``D`` overwrites the first, an eighth of its rows at a time.
    """
    eta = check_real(eta, "step size eta")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"step size eta must be a positive finite real, got {eta}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim not in (1, 2) or u.shape[0] != instance.n:
        raise ValueError(f"u and v must share a shape (n,) or (n, p) with n={instance.n}, got {u.shape} and {v.shape}")
    us, vs = u.reshape(instance.n, -1), v.reshape(instance.n, -1)
    a, tau = instance.matrix, instance.dither[:, None]
    out = np.empty(us.shape[1])
    piece = -(-instance.m // 8)
    for cols in _column_chunks(instance.m, us.shape[1]):
        zu, zv = a @ us[:, cols], a @ vs[:, cols]
        zu -= tau
        zv -= tau
        # D overwrites zu eight pieces of rows at a time, as Q is elementwise
        for i in range(0, instance.m, piece):
            rows = slice(i, i + piece)
            zu[rows] = quantize_vec(spec, zu[rows]) - quantize_vec(spec, zv[rows])
        r = us[:, cols] - vs[:, cols] - eta * (a.T @ zu / instance.m)
        out[cols] = [restricted_dual_norm(model, col, phi) for col in r.T]
    return float(out[0]) if u.ndim == 1 else out


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


def l1_projection_report(u, radius, p) -> tuple[float, float, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KKT-style certificate for a claimed l1-ball projection ``p`` of ``u``.

    Returns ``(infeasibility, reconstruction_gap, duality_gap)``: how far
    ``||p||_1`` exceeds the radius, how far ``p`` is from the soft
    thresholding of ``u`` at the implied multiplier, and the complementary
    slackness product. All three are ~0 iff ``p`` is the true projection.

    Vectors of shape ``(n,)`` and a float radius give three floats, all zero
    when ``n = 0``; row stacks ``(N, n)`` and ``N`` radii give three arrays of
    the ``N`` row certificates.  ``||p||_1`` is summed left to right, so zeros
    padding the end of a row leave every bit of its certificate unchanged.
    Beyond its inputs a stack takes about two more arrays of its size, as the
    work goes through one buffer in place.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    radius = np.asarray(radius, dtype=float)
    if u.shape != p.shape or u.ndim not in (1, 2) or radius.shape != u.shape[:-1]:
        raise ValueError(f"need u and p of one shape (n,) or (N, n) and one radius per row, got {u.shape}, {radius.shape}, {p.shape}")
    buf = np.abs(u)
    buf -= np.abs(p)
    theta = np.max(buf, axis=-1, initial=0.0)
    # buf becomes the soft thresholding of u at theta, then |soft - p|, then the running sums of |p|
    np.abs(u, out=buf)
    buf -= theta[..., None]
    np.copysign(np.maximum(buf, 0.0, out=buf), u, out=buf)
    buf -= p
    recon = np.max(np.abs(buf, out=buf), axis=-1, initial=0.0)
    np.cumsum(np.abs(p, out=buf), axis=-1, out=buf)
    l1 = buf[..., -1] if p.shape[-1] else np.zeros(radius.shape)
    infeas = np.maximum(0.0, l1 - radius)
    gap = np.abs(theta * (radius - l1))
    return (float(infeas), float(recon), float(gap)) if u.ndim == 1 else (infeas, recon, gap)


def fd_gradient(spec, instance, y, u) -> np.ndarray:
    """Central finite differences of the one-sided l1 loss, step ``1e-5``.

    The ``2n`` probes ``u + h e_i`` and ``u - h e_i`` go through the loss as
    the columns of one stack.
    """
    u = np.asarray(u, dtype=float)
    h = 1e-5
    n = u.size
    probes = np.repeat(u.reshape(n, 1), 2 * n, axis=1)
    i = np.arange(n)
    probes[i, i] += h
    probes[i, n + i] -= h
    loss = one_sided_l1_loss(spec, instance, y, probes)
    return (loss[:n] - loss[n:]) / (2 * h)


def pgd_full_loop(config, model, spec, instance, y, start, truth):
    """Every iteration of ``pgd_recover``'s step from ``start``, with no stopping rule.

    Returns ``(estimate, errors, period)``: the last iterate, the per-iterate
    errors against ``truth``, and the length of the first bitwise repeat
    ``x_t == x_s`` (``s < t``), found by keeping every iterate's bytes, or 0
    when no iterate repeats.
    """
    x = np.array(start, dtype=float)
    seen, period = {x.tobytes(): 0}, 0
    errors = np.empty(config.iterations)
    for t in range(1, config.iterations + 1):
        x = project_model(model, x - config.eta * gradient(spec, instance, y, x))
        errors[t - 1] = np.linalg.norm(x - truth)
        key = x.tobytes()
        if not period:
            if key in seen:
                period = t - seen[key]
            seen[key] = t
    return x, errors, period


def random_quantizer(rng: np.random.Generator) -> QuantizerSpec:
    """Draw a sign, saturated or general-levels quantizer with random parameters."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return make_sign()
    delta = float(rng.uniform(0.2, 3.0))
    levels = 2 * int(rng.integers(1, 9))
    if kind == 1:
        return make_saturated(delta, levels)
    values = float(rng.uniform(-4.0, 0.0)) + delta * np.arange(levels)
    return QuantizerSpec((values[:-1] + values[1:]) / 2.0, values)


def _uniform_reference(delta: float, z: np.ndarray) -> np.ndarray:
    """The unclipped uniform map ``delta * (floor(z / delta) + 1/2)``, in closed form."""
    return delta * (np.floor(z / delta) + 0.5)


def fit_raic_params(dists, residuals, phi: float) -> tuple[float, float, float]:
    """Least-squares fit ``(mu1, mu2, mu3)`` of residual/phi ~ mu1*d + sqrt(mu2*d) + mu3.

    The model is linear in ``(mu1, sqrt(mu2), mu3)`` over features
    ``(d, sqrt(d), 1)``; negative coefficients clip to zero.
    """
    d = np.asarray(dists, dtype=float)
    r = np.asarray(residuals, dtype=float) / phi
    X = np.stack([d, np.sqrt(d), np.ones_like(d)], axis=1)
    coef, *_ = np.linalg.lstsq(X, r, rcond=None)
    c1, c2, c3 = (max(0.0, float(c)) for c in coef)
    return c1, c2 * c2, c3


# ---------------------------------------------------------------------------
# suites


def quantizer_suite() -> list[Check]:
    checks = []
    pairs = 100_000
    rng = stream(SEED, "verify", "quantizer")

    # saturated quantizers whose range covers every draw, with a cell to spare
    a = rng.uniform(-50, 50, size=pairs)
    deltas = rng.uniform(0.1, 5.0, size=8)
    worst = max(
        float(np.max(np.abs(quantize_vec(make_saturated(d, 2 * (math.ceil(50 / d) + 1)), a) - a)) / (d / 2))
        for d in deltas
    )
    checks.append(Check("uniform_error_within_half_cell", worst <= 1.0 + 1e-12, f"max |Q(a)-a|/(delta/2) = {worst:.6f}"))

    ok, detail = True, ""
    for d in (0.5, 1.0, 2.5):
        for L in (2, 4, 8, 16):
            sat = make_saturated(d, L)
            z = rng.uniform(-L * d, L * d, size=5000)
            inside = np.abs(z) < L * d / 2
            same = np.array_equal(quantize_vec(sat, z[inside]), _uniform_reference(d, z[inside]))
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
    violations = 0
    for L in np.unique(levels):
        for d in delta_grid:
            mask = (levels == L) & (delta == d)
            if not np.any(mask):
                continue
            spec = make_saturated(float(d), int(L))
            am, bm = a[mask], b[mask]
            qa, qb = quantize_vec(spec, am), quantize_vec(spec, bm)
            gap = np.abs(am - bm)
            rhs = gap * (gap >= d)
            lhs = np.abs(np.abs(qa - qb) - d) * (qa != qb)
            violations += int(np.count_nonzero(lhs > rhs + 1e-12))
    del a, b, delta, levels
    checks.append(
        Check(
            "level_step_bound",
            violations == 0,
            f"{violations} violations of ||Q(a)-Q(b)|-delta| <= |a-b| 1(|a-b|>=delta) on {pairs} tuples",
        )
    )

    ok = True
    for spec in (make_sign(), make_saturated(0.7, 16), make_saturated(0.7, 6)):
        z = np.sort(rng.uniform(-5, 5, size=2000))
        q = quantize_vec(spec, z)
        if np.any(np.diff(q) < 0):
            ok = False
    checks.append(Check("monotone", ok, "quantization preserves ordering"))

    ties = bool(
        quantize_vec(make_sign(), 0.0) == 1.0
        and quantize_vec(QuantizerSpec([-1.0, 1.0], [-2.0, 0.0, 2.0]), 1.0) == 2.0
        and quantize_vec(make_saturated(1.0, 4), 1.0) == 1.5
        and quantize_vec(make_saturated(1.0, 4), -1.0) == -0.5
    )
    checks.append(Check("threshold_ties_map_up", ties, "values on thresholds take the upper level"))

    # quantize_vec compares against a lone threshold instead of searching it
    specs = (make_sign(), QuantizerSpec([0.3], [-0.25, 0.75]))
    mismatch = []
    for spec in specs:
        t = spec.thresholds[0]
        z = np.concatenate([rng.uniform(-5, 5, size=pairs), [0.0, -0.0, t, np.nextafter(t, -1.0), np.nextafter(t, 1.0)]])
        search = spec.level_values[np.searchsorted(spec.thresholds, z, side="right")]
        if quantize_vec(spec, z).tobytes() != search.tobytes():
            mismatch.append(float(t))
    checks.append(
        Check(
            "one_threshold_matches_search",
            not mismatch,
            f"differs from the search at thresholds {mismatch}"
            if mismatch
            else f"bitwise equal to level_values[searchsorted] on {len(specs)} specs x {z.size} values, ties and +/-0 included",
        )
    )
    return checks


def projection_suite() -> list[Check]:
    checks = []
    l1_count, l1_width, l1_rows = 10_000, 39, 1000  # the l1 dimensions n run from 2 to l1_width
    rng = stream(SEED, "verify", "projection")

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

    # the vectors are drawn one by one and certified in zero-padded stacks of
    # l1_rows rows; each row's certificate is its own, so the worst entries
    # and the failure count over the stacks are those of one stack of them all
    worst, structure_fail = np.zeros(3), 0
    for start in range(0, l1_count, l1_rows):
        size = min(l1_rows, l1_count - start)
        us, ps = np.zeros((2, size, l1_width))
        radii = np.empty(size)
        for i in range(size):
            n = int(rng.integers(2, l1_width + 1))
            us[i, :n] = rng.standard_normal(n) * float(10 ** rng.uniform(-2, 2))
            radii[i] = rng.uniform(0.1, 5.0)
            model = SignalModel(L1Ball(radius=float(radii[i]), n=n), alpha=0.0, beta=100.0)
            ps[i, :n] = project_structure(model, us[i, :n])
        rep = np.stack(l1_projection_report(us, radii, ps))
        worst = np.maximum(worst, rep.max(axis=1))
        structure_fail += int(np.count_nonzero(rep.max(axis=0) > 1e-8))
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

    # past about 1e154 a norm's square overflows, and past 2**53 * radius the
    # l1 threshold w_1 - radius rounds to w_1; at these u the answer is scale-free:
    # a sphere's projection, and the radius split over the l1 ball's tied top pair
    u = rng.uniform(-0.5, 0.5, 12)
    u[:2] = 1.0, -1.0
    models = (
        SignalModel(Sparse(k=3, n=12), alpha=1.0, beta=1.0),
        SignalModel(LowRank(r=1, n1=3, n2=4), alpha=1.0, beta=1.0),
        SignalModel(L1Ball(radius=0.5, n=12), alpha=0.0, beta=1.0),
    )
    bad = [
        f"{type(model.structure).__name__} at s={s:.3g}"
        for model in models
        for s in (2.0**60, 1e200, 1e300, 1e308)
        if not (
            np.allclose(p := project_model(model, s * u), project_model(model, p), rtol=0, atol=1e-12)
            and np.allclose(p, project_model(model, u), rtol=0, atol=1e-12)
        )
    ]
    checks.append(
        Check(
            "huge_inputs_scale_free",
            not bad,
            "; ".join(bad) or "project_model(s u) for s up to 1e308 lies in the model and equals project_model(u)",
        )
    )
    return checks


def gradient_suite() -> list[Check]:
    checks = []
    configs = 1000
    rng = stream(SEED, "verify", "gradient")

    worst_id = 0.0
    worst_fd = 0.0
    done_fd = 0
    for trial in range(configs):
        spec = random_quantizer(rng)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(3, 25))
        mk = MatrixKind.GAUSSIAN if rng.random() < 0.5 else MatrixKind.RADEMACHER
        dither = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        inst = sample_instance(mk, dither, m, n, int(rng.integers(0, 2**32)))
        x = rng.standard_normal(n)
        y = measure(inst, spec, x)
        u = rng.standard_normal(n)
        g1 = gradient(spec, inst, y, u)
        g2 = gradient_from_thresholds(spec, inst, y, u)
        scale = max(1.0, float(np.max(np.abs(g1))))
        worst_id = max(worst_id, float(np.max(np.abs(g1 - g2))) / scale)
        z = inst.matrix @ u - inst.dither  # finite differences only where no correlation is near a threshold
        if np.min(np.abs(z[:, None] - spec.thresholds)) > 1e-3:
            fd = fd_gradient(spec, inst, y, u)
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
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.5, m, n, int(rng.integers(0, 2**32)))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = clipped_gradient(spec, inst, u, v)
        rhs = gradient(spec, inst, measure(inst, spec, v), u)
        if not np.array_equal(lhs, rhs):
            ok = False
            break
    checks.append(Check("sign_clipped_equals_plain", ok, "one-bit clipped gradient is the plain gradient, bitwise"))

    # one instance large enough for every product path of gradient: sparse and
    # dense u, each with few and with many mismatched rows, and u = 0
    spec = make_sign()
    m, n = 1200, 300
    inst = sample_instance(MatrixKind.GAUSSIAN, 0.5, m, n, int(rng.integers(0, 2**32)))
    xs = gen_signal(SignalModel(Sparse(k=3, n=n), alpha=1.0, beta=1.0), int(rng.integers(0, 2**32)))
    xd = rng.standard_normal(n) / math.sqrt(n)
    ys, yd = measure(inst, spec, xs), measure(inst, spec, xd)
    near_s, near_d = xs * (1.0 + 0.05 * rng.standard_normal(n)), xd + 1e-3 * rng.standard_normal(n)
    cases = [(near_s, ys), (-xs, ys), (near_d, yd), (-xd, yd), (np.zeros(n), ys)]
    worst, paths = 0.0, set()
    for u, y in cases:
        d = quantize_vec(spec, inst.matrix @ u - inst.dither) - y
        ref = inst.matrix.T @ d / m
        worst = max(worst, float(np.linalg.norm(gradient(spec, inst, y, u) - ref) / np.linalg.norm(ref)))
        paths.add((np.count_nonzero(u) * _SPARSE_U <= n, np.count_nonzero(d) * _SPARSE_D <= m))
    checks.append(
        Check(
            "sparse_paths_match_dense",
            worst <= 1e-12 and len(paths) == 4,
            f"worst relative gap {worst:.2e} to the dense A^T d over {len(paths)} of 4 product paths",
        )
    )

    spec = make_saturated(0.5, 8)
    inst = sample_instance(MatrixKind.GAUSSIAN, 0.25, 60, 8, 7)
    x = gen_signal(SignalModel(Sparse(k=3, n=8), alpha=1.0, beta=1.0), 3)
    y = measure(inst, spec, x)
    at_truth = one_sided_l1_loss(spec, inst, y, x) == 0.0 and not np.any(gradient(spec, inst, y, x))
    checks.append(Check("zero_loss_at_truth", bool(at_truth), "consistent signals have zero loss and zero gradient"))

    # pgd_recover stops once an iterate repeats; it must return what every
    # iteration of the plain loop returns, on runs that reach a fixed point,
    # enter a cycle of period >= 2 (sphere drift, 32 levels) and never repeat
    # (l1 ball); odd and even run lengths make a cycle's replay take steps
    rng = stream(SEED, "verify", "gradient", "stopping")
    eta = math.sqrt(math.pi / 2)
    sphere, ball = SignalModel(Sparse(k=2, n=20), 1.0, 1.0), SignalModel(Sparse(k=2, n=20), 0.0, 1.0)
    l1 = SignalModel(L1Ball(radius=math.sqrt(5), n=100), 1.0, 1.0)
    fine = make_saturated(5.0 / 32, 32)
    runs = [
        (sphere, make_sign(), MatrixKind.GAUSSIAN, 0.0, 200, eta),
        (ball, fine, MatrixKind.RADEMACHER, fine.delta / 2, 60, 1.0),
        (l1, make_sign(), MatrixKind.GAUSSIAN, 0.0, 200, eta),
    ]
    differ, kinds = 0, set()  # kinds: period 0 (no repeat), 1, or 2 for any longer
    for model, spec, kind, dither, m, step in runs:
        for iterations in (99, 100):
            s = int(rng.integers(0, 2**32))
            inst = sample_instance(kind, dither, m, model.ambient_dim, s)
            x = gen_signal(model, s)
            y = measure(inst, spec, x)
            start = random_in_model(model, s) if model.alpha > 0 else np.zeros(model.ambient_dim)
            config = PgdConfig(eta=step, iterations=iterations)
            res = pgd_recover(config, model, spec, inst, y, start, truth=x)
            estimate, errors, period = pgd_full_loop(config, model, spec, inst, y, start, x)
            differ += res.estimate.tobytes() != estimate.tobytes() or res.errors.tobytes() != errors.tobytes()
            kinds.add(min(period, 2))
    checks.append(
        Check(
            "stopped_run_matches_full_loop",
            differ == 0 and kinds == {0, 1, 2},
            f"{differ} of {2 * len(runs)} stopped runs differ from the full loop, bitwise; "
            f"fixed point, cycle, no repeat seen: {1 in kinds}, {2 in kinds}, {0 in kinds}",
        )
    )

    # a one-byte Rademacher matrix is cast to float64 block by block; measure,
    # gradient and its two products on every path must give the bits of its
    # float64 copy (a product's last bit seldom moves a quantized value, so
    # the products are compared too).  m * n exceeds _BLOCK_ENTRIES, so the
    # dense forward product takes several blocks; a 12-sparse iterate takes
    # the gathered forward product past 3 columns, where numpy's mixed
    # int8 x float64 product would sum in another order
    rng = stream(SEED, "verify", "gradient", "one_byte")
    spec = make_sign()
    m, n = 1200, 300
    inst = sample_instance(MatrixKind.RADEMACHER, 1.5, m, n, int(rng.integers(0, 2**32)))
    copy = SensingInstance(inst.matrix.astype(float), inst.dither)
    xs = gen_signal(SignalModel(Sparse(k=3, n=n), alpha=1.0, beta=1.0), int(rng.integers(0, 2**32)))
    xd = rng.standard_normal(n) / math.sqrt(n)
    ys, yd = measure(inst, spec, xs), measure(inst, spec, xd)
    differ = (ys.tobytes() != measure(copy, spec, xs).tobytes()) + (yd.tobytes() != measure(copy, spec, xd).tobytes())
    near_s, near_d = xs * (1.0 + 0.05 * rng.standard_normal(n)), xd + 1e-3 * rng.standard_normal(n)
    xw = gen_signal(SignalModel(Sparse(k=12, n=n), alpha=1.0, beta=1.0), int(rng.integers(0, 2**32)))
    cases = [(near_s, ys), (-xs, ys), (near_d, yd), (-xd, yd), (xw, ys), (-xw, yd)]
    paths = set()
    for u, y in cases:
        d = measure(copy, spec, u) - y
        differ += _forward(inst.matrix, u).tobytes() != _forward(copy.matrix, u).tobytes()
        differ += _adjoint(inst.matrix, d).tobytes() != _adjoint(copy.matrix, d).tobytes()
        differ += gradient(spec, inst, y, u).tobytes() != gradient(spec, copy, y, u).tobytes()
        paths.add((np.count_nonzero(u) * _SPARSE_U <= n, np.count_nonzero(d) * _SPARSE_D <= m))
    checks.append(
        Check(
            "one_byte_matrix_matches_float64",
            differ == 0 and len(paths) == 4 and inst.matrix.dtype == np.int8,
            f"{differ} of {2 + 3 * len(cases)} measure, product and gradient calls differ, bitwise, between the int8 matrix "
            f"and its float64 copy; {len(paths)} of 4 product paths, {-(-m // _block_rows(n))} blocks per dense forward product",
        )
    )
    return checks


def puv_suite() -> list[Check]:
    checks = []
    mc_pairs, mc_samples = 20, 100_000
    bound_pairs, bound_width = 10_000, 11  # the bound's dimensions n run from 2 to bound_width
    rng = stream(SEED, "verify", "puv")
    sign = make_sign()

    hits = 0
    worst_z = 0.0
    for i in range(mc_pairs):
        n = int(rng.integers(3, 16))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        est = estimate_puv(sign, MatrixKind.GAUSSIAN, 0.0, u, v, mc_samples, int(rng.integers(0, 2**32)))
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

    # the pairs are drawn one by one and bounded as one zero-padded stack
    us, vs = np.zeros((2, bound_pairs, bound_width))
    for i in range(bound_pairs):
        n = int(rng.integers(2, bound_width + 1))
        u = rng.standard_normal(n)
        us[i, :n] = u / np.linalg.norm(u)
        v = rng.standard_normal(n)
        vs[i, :n] = v / np.linalg.norm(v)
    d = np.linalg.norm(us - vs, axis=1)
    p = geodesic_puv(us, vs)
    ok = bool(np.all((d / math.pi - 1e-12 <= p) & (p <= d / 2.0 + 1e-12)))
    del us, vs, d, p
    checks.append(Check("two_sided_norm_bound", ok, f"d/pi <= p <= d/2 on {bound_pairs} unit pairs"))

    lam, delta = 2.0, 5.0 / 8
    sat = make_saturated(delta, 8)
    for name, spec, dither, scale, label in (
        ("dithered_one_bit_bound", sign, lam, 2 * lam, "||u-v||/(2 lam)"),
        ("multi_bit_bound", sat, delta / 2, delta, "||u-v||/delta"),
    ):
        ok, worst = True, -np.inf
        for _ in range(20):
            n = int(rng.integers(2, 12))
            u = rng.standard_normal(n)
            u *= rng.uniform(0, 1) / np.linalg.norm(u)
            v = rng.standard_normal(n)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            est = estimate_puv(spec, MatrixKind.RADEMACHER, dither, u, v, 50_000, int(rng.integers(0, 2**32)))
            slack = est.p_hat - (float(np.linalg.norm(u - v)) / scale + 3 * est.stderr)
            worst = max(worst, slack)
            ok = ok and slack <= 0
        checks.append(Check(name, ok, f"max excess over {label} + 3 se: {worst:.2e}"))

    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    est = estimate_puv(sign, MatrixKind.GAUSSIAN, 0.0, u, u, 10_000, 5)
    checks.append(Check("identical_signals_never_separate", est.p_hat == 0.0, f"p_hat = {est.p_hat}"))

    shapes = [(1, 1), (3, 5), (1, _CHUNK - 1), (_CHUNK + 1, 1), (317, 161)]
    seeds = [int(s) for s in stream(SEED, "verify", "rademacher").integers(0, 2**32, size=3)]
    bad = [
        (m, n, seed)
        for m, n in shapes
        for seed in seeds
        if sample_instance(MatrixKind.RADEMACHER, 0.0, m, n, seed).matrix.tobytes()
        != (2 * stream(seed, "matrix").integers(0, 2, size=(m, n)) - 1).astype(np.int8).tobytes()
    ]
    checks.append(
        Check(
            "rademacher_draw_matches_integers",
            not bad,
            f"first mismatch at (m, n, seed) = {bad[0]}" if bad else f"bitwise equal on {len(shapes)} shapes x {len(seeds)} seeds",
        )
    )

    # a draw into a reused buffer must be the fresh draw, and must write its
    # m * n entries and no others: the buffer starts as a value no entry takes
    # (NaN, or 0 for the int8 Rademacher entries) and runs past them; and the
    # fresh draw must be the first m rows and dithers of a draw of 2m + 1 rows
    # from the same seed, as every cell of a plan's trial decodes one
    rng = stream(SEED, "verify", "buffered")
    bad = []
    for kind in MatrixKind:
        for dither in (0.0, 1.5):
            for m, n in shapes:
                seed = int(rng.integers(0, 2**32))
                fresh = sample_instance(kind, dither, m, n, seed)
                blank = np.full(m * n + 3, np.nan if kind is MatrixKind.GAUSSIAN else 0, dtype=kind.dtype)
                buf = blank.copy()
                inst = sample_instance(kind, dither, m, n, seed, out=buf)
                same = fresh.matrix.tobytes() == buf[: m * n].tobytes() and fresh.dither.tobytes() == inst.dither.tobytes()
                if not (same and np.shares_memory(inst.matrix, buf) and buf[m * n :].tobytes() == blank[m * n :].tobytes()):
                    bad.append((kind.value, dither, m, n))
                larger = sample_instance(kind, dither, 2 * m + 1, n, seed)
                if not (fresh.matrix.tobytes() == larger.matrix[:m].tobytes() and fresh.dither.tobytes() == larger.dither[:m].tobytes()):
                    bad.append((kind.value, dither, m, n))
    draws = 2 * len(MatrixKind) * len(shapes)
    # estimate_puv counts measure's disagreements block by block, so its count
    # must be that of measure on the one-shot instance (dropped before the
    # blocks are drawn), at an odd n and the sample counts below, at and past
    # the block size; on two BLAS threads, OpenBLAS 0.3.31 kept the Gaussian
    # one-shot product's bits at n = 7 up to 6.3e5 entries, past the 3.9e5 here
    n = 7
    rows = _block_rows(n)
    families = [(sign, MatrixKind.GAUSSIAN, 0.0), (sat, MatrixKind.RADEMACHER, delta / 2)]
    for spec, kind, dither in families:
        u, v = (w * rng.uniform(0, 1) / np.linalg.norm(w) for w in rng.standard_normal((2, n)))
        for samples in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            seed = int(rng.integers(0, 2**32))
            inst = sample_instance(kind, dither, samples, n, seed)
            q = [measure(inst, spec, w) for w in (u, v)]
            one_shot = np.count_nonzero(q[0] != q[1])
            del inst, q
            if estimate_puv(spec, kind, dither, u, v, samples, seed).p_hat != one_shot / samples:
                bad.append((kind.value, dither, samples, n))
    checks.append(
        Check(
            "buffered_and_chunked_draws_match_fresh",
            not bad,
            f"first mismatch at (kind, dither, m, n) = {bad[0]}"
            if bad
            else f"{draws} buffered draws bitwise equal to fresh ones, blank tail (NaN or int8 0) untouched, "
            f"and the first m rows of draws of 2m + 1 rows; "
            f"block counts of {len(families)} families x 5 sample counts equal to one-shot counts ({rows} rows per block)",
        )
    )
    return checks


def hdm_suite() -> list[Check]:
    checks = []
    trials = 50
    rng = stream(SEED, "verify", "hdm")
    sign = make_sign()
    model = SignalModel(Sparse(k=1, n=6), alpha=1.0, beta=1.0)
    net = enumerate_net(model, r=0.05)

    ok = True
    inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 25, 6, 11)
    for _ in range(30):
        x = gen_signal(model, int(rng.integers(0, 2**32)))
        y = measure(inst, sign, x)
        res = hdm_decode(net, sign, inst, y)
        dists = [int(np.count_nonzero(measure(inst, sign, p) != y)) for p in net]
        manual = int(np.argmin(dists))
        if res.index != manual or res.distance != dists[manual]:
            ok = False
            break
    checks.append(Check("exhaustive_argmin_with_first_tie", ok, "decoder matches a manual scan of the net"))

    member_err = max(
        abs(float(np.linalg.norm(p)) - 1.0) + (0.0 if np.count_nonzero(p) <= 1 else 1.0) for p in net
    )
    checks.append(Check("net_points_lie_in_model", member_err <= 1e-12, f"worst membership defect {member_err:.2e}"))

    good = 0
    for t in range(trials):
        tseed = derive_seed(SEED, "hdm_theorem", t)
        x = gen_signal(model, tseed)
        inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 200, 6, tseed)
        y = measure(inst, sign, x)
        hdm_err = float(np.linalg.norm(net[hdm_decode(net, sign, inst, y).index] - x))
        cfg = PgdConfig(eta=math.sqrt(math.pi / 2), iterations=100)
        start = random_in_model(model, tseed)
        pgd_err = float(np.linalg.norm(pgd_recover(cfg, model, sign, inst, y, start, truth=x).estimate - x))
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


def raic_suite() -> list[Check]:
    checks = []
    pairs = 1000
    sign = make_sign()
    model = SignalModel(Sparse(k=3, n=100), alpha=1.0, beta=1.0)
    inst = sample_instance(MatrixKind.GAUSSIAN, 0.0, 5000, 100, 17)
    eta = math.sqrt(math.pi / 2)
    r = 0.05

    u = gen_signal(model, 1)
    checks.append(Check("zero_residual_at_equal_points", raic_residual(model, sign, inst, eta, r, u, u) == 0.0, "residual(u, u) = 0"))

    v = gen_signal(model, 2)
    r1 = raic_residual(model, sign, inst, eta, 1.0, u, v)
    r2 = raic_residual(model, sign, inst, eta, 2.5, u, v)
    checks.append(Check("residual_linear_in_phi", abs(r2 - 2.5 * r1) <= 1e-9 * max(1.0, r2), f"phi=1: {r1:.6f}, phi=2.5: {r2:.6f}"))

    dists, residuals = np.empty(pairs), np.empty(pairs)
    for cols in _column_chunks(inst.m, pairs):
        a = np.stack([gen_signal(model, derive_seed(SEED, "pair_a", i)) for i in range(pairs)[cols]], axis=1)
        b = np.stack([gen_signal(model, derive_seed(SEED, "pair_b", i)) for i in range(pairs)[cols]], axis=1)
        dists[cols] = np.linalg.norm(a - b, axis=0)
        residuals[cols] = raic_residual(model, sign, inst, eta, r, a, b)
    slack = residuals / r - (0.6 * dists + 3.0 * np.sqrt(r * dists) + RAIC_C_CEILING * r)
    mu1, mu2, mu3 = fit_raic_params(dists, residuals, phi=r)
    checks.append(
        Check(
            "contraction_envelope",
            float(slack.max()) <= 0.0,
            f"max slack {slack.max():.3f}; fitted (mu1, mu2, mu3) = "
            f"({mu1:.3f}, {mu2:.3f}, {mu3:.3f}) over {pairs} pairs",
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
