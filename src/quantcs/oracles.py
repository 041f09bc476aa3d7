"""Brute-force reference decoders and separation-probability estimators.

These are deliberately simple, independently checkable counterparts to the
gradient-based solver: decode by exhaustive Hamming-distance minimization
over an explicit candidate net, and estimate the probability that one
measurement separates two signals by direct Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .quantizers import QuantizerSpec, quantize_vec
from .rng import derive_seed
from .sensing import Dither, MatrixKind, SensingInstance, sample_instance
from .signals import SignalModel, Sparse, gen_signal

__all__ = [
    "CandidateNet",
    "HdmResult",
    "PuvEstimate",
    "enumerate_net",
    "hdm_decode",
    "estimate_puv",
    "geodesic_puv",
]


@dataclass(frozen=True, eq=False)
class CandidateNet:
    """Finite candidate set, either a guaranteed covering or a random stand-in.

    ``exact`` is True when the construction guarantees every model point has
    a candidate within l2 distance ``radius``; random nets make no such
    promise and are labeled accordingly.
    """

    points: np.ndarray  # (N, ambient_dim)
    radius: float
    exact: bool

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class HdmResult:
    point: np.ndarray
    distance: int
    index: int


@dataclass(frozen=True)
class PuvEstimate:
    p_hat: float
    stderr: float


def enumerate_net(model: SignalModel, r: float, max_points: int = 10000, seed: int = 0) -> CandidateNet:
    """Build a candidate net of the model with target covering radius ``r``.

    Exact construction exists for sparse spheres with ``k <= 2`` in ambient
    dimension ``n <= 12``: for ``k = 1`` the model is the finite set of
    signed scaled basis vectors, and for ``k = 2`` each of the ``C(n, 2)``
    support circles gets a uniform angular grid fine enough that no circle
    point is farther than ``r`` from the grid.  Every other model falls back
    to ``max_points`` random members, labeled as approximate.  An exact
    construction that would exceed ``max_points`` raises instead of silently
    degrading.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"net radius must be a positive finite real, got {r}")
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    s = model.structure
    sphere = model.alpha == model.beta
    if isinstance(s, Sparse) and s.k <= 2 and s.n <= 12 and sphere:
        rho = model.alpha
        if s.k == 1:
            pts = np.concatenate([rho * np.eye(s.n), -rho * np.eye(s.n)])
            if pts.shape[0] > max_points:
                raise ValueError(f"exact net needs {pts.shape[0]} points, above the cap {max_points}")
            return CandidateNet(points=pts, radius=float(r), exact=True)
        n_theta = max(4, math.ceil(2.0 * math.pi * rho / r))
        supports = list(combinations(range(s.n), 2))
        total = n_theta * len(supports)
        if total > max_points:
            raise ValueError(f"exact net needs {total} points, above the cap {max_points}")
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        pts = np.zeros((total, s.n))
        for which, (i, j) in enumerate(supports):
            block = slice(which * n_theta, (which + 1) * n_theta)
            pts[block, i] = rho * np.cos(theta)
            pts[block, j] = rho * np.sin(theta)
        return CandidateNet(points=pts, radius=float(r), exact=True)
    pts = np.stack([gen_signal(model, derive_seed(seed, "net", i)) for i in range(max_points)])
    return CandidateNet(points=pts, radius=float(r), exact=False)


def hdm_decode(net: CandidateNet, spec: QuantizerSpec, instance: SensingInstance, y) -> HdmResult:
    """Pick the net point whose measurements are Hamming-closest to ``y``.

    Ties go to the earliest point in net order, so the result is a pure
    function of its arguments.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (instance.m,):
        raise ValueError(f"measurement shape {y.shape} does not match m={instance.m}")
    if net.points.shape[1] != instance.n:
        raise ValueError(f"net dimension {net.points.shape[1]} does not match n={instance.n}")
    q = quantize_vec(spec, net.points @ instance.matrix.T - instance.dither[None, :])
    dists = np.count_nonzero(q != y[None, :], axis=1)
    best = int(np.argmin(dists))
    return HdmResult(point=net.points[best].copy(), distance=int(dists[best]), index=best)


def estimate_puv(
    spec: QuantizerSpec,
    matrix_kind: MatrixKind,
    dither_kind: Dither,
    u,
    v,
    samples: int,
    seed: int,
) -> PuvEstimate:
    """Monte Carlo estimate of ``P(Q(<a,u> - tau) != Q(<a,v> - tau))``.

    Draws ``samples`` fresh measurement rows and dithers, and reports the
    disagreement frequency with its binomial standard error.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of the same dimension")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    inst = sample_instance(matrix_kind, dither_kind, samples, u.size, seed)
    qu = quantize_vec(spec, inst.matrix @ u - inst.dither)
    qv = quantize_vec(spec, inst.matrix @ v - inst.dither)
    p_hat = float(np.count_nonzero(qu != qv)) / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return PuvEstimate(p_hat=p_hat, stderr=stderr)


def geodesic_puv(u, v) -> float:
    """Exact separation probability of a Gaussian sign measurement.

    For unit vectors this is the normalized angle ``arccos(<u, v>) / pi``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of the same dimension")
    for name, w in (("u", u), ("v", v)):
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a unit vector")
    return float(np.arccos(np.clip(float(u @ v), -1.0, 1.0)) / math.pi)
