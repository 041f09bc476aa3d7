"""Brute-force reference decoders and separation-probability estimators.

These are deliberately simple, independently checkable counterparts to the
gradient-based solver: decode by exhaustive Hamming-distance minimization
over an explicit candidate net, and estimate the probability that one
measurement separates two signals by direct Monte Carlo.  The Monte Carlo
estimate draws its rows in blocks of about ``sensing._BLOCK_ENTRIES``
entries, so its memory does not grow with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .quantizers import QuantizerSpec, quantize_vec
from .sensing import MatrixKind, SensingInstance, _block_rows, check_measurements, instance_rows, measure
from .signals import SignalModel, Sparse, UnsupportedModelError, check_int, check_positive

__all__ = [
    "NET_ENTRIES_CAP",
    "HdmResult",
    "PuvEstimate",
    "enumerate_net",
    "hdm_decode",
    "estimate_puv",
    "geodesic_puv",
]

# Largest net, counted as points x ambient dimension; 1 MiB of float64.
NET_ENTRIES_CAP = 2**17


@dataclass(frozen=True)
class HdmResult:
    index: int
    distance: int


@dataclass(frozen=True)
class PuvEstimate:
    p_hat: float
    stderr: float


def enumerate_net(model: SignalModel, r: float) -> np.ndarray:
    """An ``(N, n)`` array of model points within l2 distance ``r`` of every model point.

    The construction is exact and exists for sparse spheres with ``k <= 2``:
    with one nonzero coordinate the model is the finite set of signed scaled
    basis vectors, and with two each of the ``C(n, 2)`` support circles gets
    a uniform angular grid fine enough that no circle point is farther than
    ``r`` from the grid.  Any other model raises ``UnsupportedModelError``,
    and a net above ``NET_ENTRIES_CAP`` entries raises ``ValueError``.
    """
    r = check_positive(r, "net radius")
    s = model.structure
    if not (isinstance(s, Sparse) and s.k <= 2 and model.alpha == model.beta):
        raise UnsupportedModelError("exact nets exist only for sparse spheres with k <= 2")
    rho, n = model.alpha, s.n
    if min(s.k, n) == 1:
        total = 2 * n
    else:
        # clamped so that a tiny r or a huge rho cannot overflow math.ceil; the cap check below still fires
        n_theta = max(4, math.ceil(min(2.0 * math.pi * rho / r, NET_ENTRIES_CAP)))
        total = n_theta * math.comb(n, 2)
    if total * n > NET_ENTRIES_CAP:
        raise ValueError(f"exact net needs {total} x {n} entries, above the cap {NET_ENTRIES_CAP}")
    if min(s.k, n) == 1:
        return np.concatenate([rho * np.eye(n), -rho * np.eye(n)])
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    pts = np.zeros((total, n))
    for which, (i, j) in enumerate(combinations(range(n), 2)):
        block = slice(which * n_theta, (which + 1) * n_theta)
        pts[block, i] = rho * np.cos(theta)
        pts[block, j] = rho * np.sin(theta)
    return pts


def hdm_decode(net, spec: QuantizerSpec, instance: SensingInstance, y) -> HdmResult:
    """Index of the net point whose measurements are Hamming-closest to ``y``.

    Ties go to the earliest point in net order, so the result is a pure
    function of its arguments.  It quantizes one stacked product, ``net @ A.T - tau``,
    not ``sensing.measure`` of each point, which may sum in another order (a sparse
    point's support alone): its distances are ``measure``'s except where a product
    lies within an ulp of a threshold.
    """
    net = np.asarray(net, dtype=float)
    y = check_measurements(instance, y)
    if net.ndim != 2 or net.shape[0] == 0 or net.shape[1] != instance.n:
        raise ValueError(f"net of shape {net.shape} is not (N, n) with N >= 1 and n={instance.n}")
    q = quantize_vec(spec, net @ instance.matrix.T - instance.dither[None, :])
    dists = np.count_nonzero(q != y[None, :], axis=1)
    best = int(np.argmin(dists))
    return HdmResult(index=best, distance=int(dists[best]))


def estimate_puv(
    spec: QuantizerSpec,
    matrix_kind: MatrixKind,
    dither: float,
    u,
    v,
    samples: int,
    seed: int,
) -> PuvEstimate:
    """Monte Carlo estimate of ``P(Q(<a,u> - tau) != Q(<a,v> - tau))``.

    Draws ``samples`` fresh measurement rows and dithers uniform on
    ``[-dither, dither]``, the rows of ``sample_instance(matrix_kind, dither,
    samples, n, seed)``, and reports the disagreement frequency with its
    binomial standard error.  The rows come in the blocks of ``_row_blocks(samples,
    _block_rows(n))``, drawn into one buffer, and the disagreements of
    ``measure(block, spec, u)`` and ``measure(block, spec, v)`` are summed per
    block.  On one BLAS thread the count is ``measure``'s on the one-shot
    instance, bit for bit.  On two OpenBLAS threads, 15 of about 4.2e6 block
    rows have had a product whose last bit differs from the one-shot ``A @ u``,
    so there the counts agree only while no such row falls on a threshold.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size == 0:
        raise ValueError("u and v must be nonempty vectors of the same dimension")
    if check_int(samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    count = 0
    for block in instance_rows(matrix_kind, dither, samples, u.size, seed, _block_rows(u.size)):
        count += int(np.count_nonzero(measure(block, spec, u) != measure(block, spec, v)))
    p_hat = count / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return PuvEstimate(p_hat=p_hat, stderr=stderr)


def geodesic_puv(u, v) -> float | np.ndarray:
    """Exact separation probability of a Gaussian sign measurement.

    For unit vectors this is the normalized angle ``arccos(<u, v>) / pi``.
    Two vectors of shape ``(n,)`` give a float; two row stacks of shape
    ``(N, n)``, pair ``i`` in row ``i``, give the ``N`` probabilities.  Every
    row must be a unit vector, so a stack may pad its rows with zeros but may
    not hold zero rows.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ValueError(f"u and v must share a shape (n,) or (N, n), got {u.shape} and {v.shape}")
    for name, w in (("u", u), ("v", v)):
        if not np.all(np.abs(np.linalg.norm(w, axis=-1) - 1.0) <= 1e-9):
            raise ValueError(f"{name} must be a unit vector")
    p = np.arccos(np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)) / math.pi
    return float(p) if p.ndim == 0 else p
