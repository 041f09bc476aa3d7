"""Structured signal sets, projections onto them, and random generators.

A signal model is a structure set ``K`` (sparse vectors, low-rank matrices
in vectorized form, or a scaled l1 ball) intersected with the norm annulus
``{alpha <= ||u||_2 <= beta}``.  Recovery algorithms only touch the model
through the two projections.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed, stream

__all__ = [
    "Sparse",
    "LowRank",
    "L1Ball",
    "SignalModel",
    "UnsupportedModelError",
    "project_structure",
    "project_norm",
    "project_model",
    "gen_signal",
    "check_l1_ball_draw",
    "l1ball_magnitudes",
    "random_in_model",
]


class UnsupportedModelError(ValueError):
    """Raised when an operation has no closed form for the given structure."""


def check_int(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a float if it is a real number in the float range; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number within the float range") from None


@dataclass(frozen=True)
class Sparse:
    """Vectors with at most ``k`` nonzero entries in dimension ``n``."""

    k: int
    n: int

    def __post_init__(self):
        if check_int(self.k, "model k") < 1 or check_int(self.n, "model n") < 1:
            raise ValueError(f"need k >= 1 and n >= 1, got k={self.k}, n={self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class LowRank:
    """``n1 x n2`` matrices of rank at most ``r``, vectorized column-major."""

    r: int
    n1: int
    n2: int

    def __post_init__(self):
        if min(check_int(getattr(self, f), f"model {f}") for f in ("r", "n1", "n2")) < 1:
            raise ValueError(f"need r, n1, n2 >= 1, got r={self.r}, n1={self.n1}, n2={self.n2}")

    @property
    def ambient_dim(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class L1Ball:
    """The l1 ball of the given radius in dimension ``n``.

    Radius ``sqrt(k)`` models "effectively sparse" signals: unit vectors in
    this ball concentrate most of their mass on about ``k`` coordinates.
    """

    radius: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(check_real(self.radius, "model radius")) and self.radius > 0):
            raise ValueError(f"radius must be a positive finite real, got {self.radius}")
        if check_int(self.n, "model n") < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n


Structure = Sparse | LowRank | L1Ball


@dataclass(frozen=True)
class SignalModel:
    """Structure set intersected with the annulus ``alpha <= ||u|| <= beta``."""

    structure: Structure
    alpha: float
    beta: float

    def __post_init__(self):
        alpha, beta = check_real(self.alpha, "model alpha"), check_real(self.beta, "model beta")
        if not (0.0 <= alpha <= beta) or not math.isfinite(beta) or beta <= 0:
            raise ValueError(f"need 0 <= alpha <= beta with beta > 0, got ({self.alpha}, {self.beta})")

    @property
    def ambient_dim(self) -> int:
        return self.structure.ambient_dim


def _check_dim(model: SignalModel, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (model.ambient_dim,):
        raise ValueError(f"expected shape ({model.ambient_dim},), got {u.shape}")
    return u


def project_structure(model: SignalModel, u) -> np.ndarray:
    """Euclidean projection of ``u`` onto the structure set ``K``.

    Sparse: keep the ``k`` largest-magnitude entries, ties broken toward the
    lowest index. LowRank: truncate the SVD of the (column-major) reshaped
    matrix to rank ``r``; a ``u`` with an entry past ``2**500``, where the
    SVD's sums may overflow, is truncated as ``u / 2**e`` (exact in binary,
    ``2**e`` the power of two just above ``max|u|``) and scaled back.
    L1Ball: exact sort-based projection.
    """
    u = _check_dim(model, u)
    s = model.structure
    if isinstance(s, Sparse):
        if s.k >= s.n:
            return u.copy()
        # stable sort on -|u|: equal magnitudes keep their original order,
        # which is exactly the lowest-index tie break
        order = np.argsort(-np.abs(u), kind="stable")
        out = np.zeros_like(u)
        keep = order[: s.k]
        out[keep] = u[keep]
        return out
    if isinstance(s, LowRank):
        if s.r >= min(s.n1, s.n2):
            return u.copy()
        if (peak := float(np.abs(u).max())) > 2.0**500:
            e = math.frexp(peak)[1]
            return np.ldexp(project_structure(model, np.ldexp(u, -e)), e)
        M = u.reshape((s.n1, s.n2), order="F")
        U, sv, Vt = np.linalg.svd(M, full_matrices=False)
        sv = sv.copy()
        sv[s.r :] = 0.0
        return ((U * sv) @ Vt).reshape(-1, order="F")
    return _project_l1_ball(u, s.radius)


def _project_l1_ball(u: np.ndarray, radius: float) -> np.ndarray:
    """Sort-based projection onto ``{||p||_1 <= radius}``.

    With ``w`` the magnitudes in decreasing order and ``c_j = (w_1 + ... + w_j
    - radius) / j``, the threshold is ``theta = c_rho`` for the last ``rho``
    with ``w_rho > c_rho``.  Once ``w_1 - radius`` rounds to ``w_1`` (``w_1``
    past about ``2**53 radius``), the same sums run over the differences
    ``w_j - w_1`` above ``-radius``, and give ``theta - w_1`` without
    cancelling or overflowing: ``theta >= w_1 - radius``, so no other entry
    survives.  A ``u`` with an entry past ``radius`` lies outside the ball,
    and its l1 norm, which may overflow, is not summed.
    """
    a = np.abs(u)
    if a.max() <= radius and a.sum() <= radius:  # ||u||_1 >= max|u_i|, so a large entry skips the sum
        return u.copy()
    w = np.sort(a)[::-1]
    shift = 0.0
    if w[0] - radius == w[0]:
        shift = w[0]
        w = w - shift
        w = w[w > -radius]
    js = np.arange(1, w.size + 1)
    css = np.cumsum(w) - radius
    rho = js[w > css / js][-1]
    return np.sign(u) * np.maximum(a - shift - css[rho - 1] / rho, 0.0)


def project_norm(alpha: float, beta: float, u) -> np.ndarray:
    """Rescale ``u`` to the nearest point of the annulus ``[alpha, beta]``.

    The zero vector with ``alpha > 0`` has no unique nearest point; the tie
    is broken deterministically as ``alpha * e_1``.  A ``u`` whose squared
    norm overflows (entries past about 1e154) is measured as ``u / max|u|``.
    """
    if not (0.0 <= alpha <= beta) or not math.isfinite(beta) or beta <= 0:
        raise ValueError(f"need 0 <= alpha <= beta with beta > 0, got [{alpha}, {beta}]")
    u = np.asarray(u, dtype=float, order="C")
    # the bits of np.linalg.norm(u), but vdot raises no warning when the square overflows
    nrm = math.sqrt(np.vdot(u, u))
    if math.isinf(nrm) and math.isfinite(peak := float(np.abs(u).max())):
        # entries past about 1e154: u's norm is peak times that of v = u / peak
        v = u / peak
        nrm = math.sqrt(np.vdot(v, v))
        if nrm > beta / peak:
            return v * (beta / nrm)
        return v * (alpha / nrm) if nrm < alpha / peak else u.copy()
    if nrm == 0.0:
        if alpha == 0.0:
            return u.copy()
        out = np.zeros_like(u)
        out[0] = alpha
        return out
    if nrm < alpha:
        return u * (alpha / nrm)
    if nrm > beta:
        return u * (beta / nrm)
    return u.copy()


def project_model(model: SignalModel, u) -> np.ndarray:
    """The two-stage projection used by the recovery iteration."""
    return project_norm(model.alpha, model.beta, project_structure(model, u))


def l1ball_magnitudes(radius: float, n: int, c: int) -> tuple[float, float]:
    """Entry magnitudes ``(a, b)`` of the two-valued effectively sparse draw.

    With ``k = radius**2``, the vector with ``c`` entries of magnitude ``a``
    and ``n - c`` of magnitude ``b`` has unit l2 norm and l1 norm ``sqrt(k)``.
    ``b >= 0`` exactly when ``c <= k``, as ``b >= 0`` iff ``(c - k) (n - c) <= 0``.
    At ``radius = sqrt(n)`` the square ``k`` may round above ``n``; ``n - k``
    is then taken as 0, its value at the exact ``sqrt(n)``.
    """
    k = radius * radius
    if c < 1 or c >= n:
        raise ValueError(f"need 1 <= c < n, got c={c}, n={n}")
    disc = k + n * (max(n - k, 0.0) - c) / c
    if disc < 0:
        raise ValueError(f"no real solution: n={n} too small for radius**2={k} with c={c}")
    a = (math.sqrt(k) + math.sqrt(disc)) / n
    b = (math.sqrt(k) - c * a) / (n - c)
    return a, b


def check_l1_ball_draw(model: SignalModel) -> None:
    """Raise ``ValueError`` if ``gen_signal`` cannot draw from this l1-ball model; other models pass."""
    s = model.structure
    if not isinstance(s, L1Ball):
        return
    if s.n < 2:
        raise ValueError(f"the l1-ball draw needs n >= 2 (one large entry and at least one small one), got n={s.n}")
    if s.radius > math.sqrt(s.n):
        raise ValueError(f"l1 radius {s.radius} exceeds sqrt(n) = {math.sqrt(s.n):.6g}: no unit vector has that l1 norm")
    if s.radius < 1:
        raise ValueError(f"l1 radius {s.radius} is below 1: no unit vector has that l1 norm")
    if not model.alpha <= 1.0 <= model.beta:
        raise ValueError(f"the l1-ball draw has unit l2 norm, outside the model's [{model.alpha}, {model.beta}]")


def gen_signal(model: SignalModel, seed: int) -> np.ndarray:
    """Draw a random member of the model from the seed's "signal" stream.

    Sparse: uniform support, Gaussian values on it, normalized to the unit
    sphere. LowRank: rank-``r`` SVD truncation of a Gaussian matrix,
    normalized in Frobenius norm. Both are then scaled by a uniform draw
    from ``[alpha, beta]`` (a no-op on the sphere ``alpha = beta``).
    L1Ball: the two-valued construction with ``c ~ U{1..min(ceil(0.6 k),
    floor(k), n - 1)}`` large entries, drawn once (each such ``c <= k`` is
    feasible), where ``k = radius * radius`` in floating point: radius
    ``sqrt(10)`` gives ``k = 10.000000000000002`` and ``c`` up to 7, not 6.
    It has l1 norm ``radius`` and unit l2 norm, so ``[alpha, beta]`` must hold 1.
    """
    rng = stream(seed, "signal")
    s = model.structure
    if isinstance(s, Sparse):
        x = np.zeros(s.n)
        support = rng.choice(s.n, size=min(s.k, s.n), replace=False)
        vals = rng.standard_normal(support.size)
        x[support] = vals / np.linalg.norm(vals)
    elif isinstance(s, LowRank):
        G = rng.standard_normal((s.n1, s.n2))
        U, sv, Vt = np.linalg.svd(G, full_matrices=False)
        sv[s.r :] = 0.0
        M = (U * sv) @ Vt
        x = (M / np.linalg.norm(M)).reshape(-1, order="F")
    else:
        check_l1_ball_draw(model)
        k = s.radius * s.radius
        c = int(rng.integers(1, min(math.ceil(0.6 * k), math.floor(k), s.n - 1) + 1))
        a, b = l1ball_magnitudes(s.radius, s.n, c)
        mags = np.full(s.n, b)
        mags[:c] = a
        return rng.choice(np.array([-1.0, 1.0]), size=s.n) * mags
    scale = model.alpha if model.alpha == model.beta else rng.uniform(model.alpha, model.beta)
    return x * scale


def random_in_model(model: SignalModel, seed: int) -> np.ndarray:
    """Model member used for random initialization (derived "init" stream)."""
    return gen_signal(model, derive_seed(seed, "init"))
