"""Compactly supported smooth profiles with exact derivatives of any order.

The bump is psi(u) = exp(1 - 1/(1-u^2)) on |u| < 1, zero outside, so
psi(0) = 1.  Its k-th derivative factors as psi(u) * N_k(u) / (1-u^2)^(2k)
with polynomials N_k obeying the recurrence

    N_{k+1} = N_k' * g^2 + (4k*u) * N_k * g - 2u * N_k,    g = 1 - u^2,

which keeps differentiation exact (no finite differences anywhere).

The decreasing step S maps (-inf, 0] -> 1 and [1, inf) -> 0 smoothly; it is
built from the bump's integral so its derivatives reduce to bump derivatives:

    S(v) = 1 - W(2v-1)/W(1),   W(w) = integral of psi over [-1, w],
    S^(k)(v) = -(2^k / W(1)) * psi^(k-1)(2v-1)   for k >= 1.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

# Below g = 1 - u^2 of this size the bump and all derivatives up to the
# supported order underflow to exactly 0.0 in double precision.
_G_FLOOR = 2e-12
_MAX_PROFILE_ORDER = 16


@lru_cache(maxsize=None)
def _bump_poly(k: int):
    """Coefficients of N_k in the derivative recurrence (lowest power first)."""
    if k == 0:
        return (1.0,)
    n_prev = np.array(_bump_poly(k - 1), dtype=float)
    g = np.array([1.0, 0.0, -1.0])  # 1 - u^2
    dn = P.polyder(n_prev) if n_prev.size > 1 else np.array([0.0])
    term1 = P.polymul(dn, P.polymul(g, g))
    term2 = P.polymul([0.0, 4.0 * (k - 1)], P.polymul(n_prev, g))
    term3 = P.polymul([0.0, -2.0], n_prev)
    out = P.polyadd(P.polyadd(term1, term2), term3)
    return tuple(out)


def bump(u, order: int = 0):
    """k-th derivative of the unit bump psi at points u (vectorized, exact)."""
    if order < 0 or order > _MAX_PROFILE_ORDER:
        raise ValueError(f"bump derivative order {order} outside [0, {_MAX_PROFILE_ORDER}]")
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=float)
    g = 1.0 - u * u
    # Interior mask with a floor keeping 1/g^(2k) finite; the discarded band
    # holds values below ~1e-130 for every supported order.
    floor = max(_G_FLOOR, 10.0 ** (-280.0 / max(2 * order, 1)))
    mask = g > floor
    if not mask.any():
        return out
    gm = g[mask]
    um = u[mask]
    core = np.exp(1.0 - 1.0 / gm)
    if order == 0:
        out[mask] = core
    else:
        nk = P.polyval(um, np.array(_bump_poly(order)))
        out[mask] = core * nk / gm ** (2 * order)
    return out


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    """Integral of psi over [-1, 1], same quadrature rule as the partials."""
    nodes, weights = _gl_nodes(160)
    return float(np.dot(bump(nodes), weights))


@lru_cache(maxsize=4)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _bump_partial_integral(w):
    """W(w) = integral of psi over [-1, min(w, 1)], vectorized in w."""
    w = np.asarray(w, dtype=float)
    hi = np.clip(w, -1.0, 1.0)
    nodes, weights = _gl_nodes(160)
    half = 0.5 * (hi + 1.0)
    mid = 0.5 * (hi - 1.0)
    # Map [-1,1] GL nodes onto [-1, hi] per evaluation point.
    pts = mid[..., None] + half[..., None] * nodes
    vals = bump(pts)
    return np.einsum("...k,k->...", vals, weights) * half


def step(v, order: int = 0):
    """k-th derivative of the decreasing smooth step S at points v.

    S == 1 for v <= 0 and S == 0 for v >= 1, monotone in between.
    """
    v = np.asarray(v, dtype=float)
    if order == 0:
        shape = v.shape
        flat = v.reshape(-1)
        out = np.where(flat <= 0.0, 1.0, 0.0)
        inside = (flat > 0.0) & (flat < 1.0)
        if np.any(inside):
            partial = _bump_partial_integral(2.0 * flat[inside] - 1.0)
            out[inside] = 1.0 - partial / _bump_mass()
        return out.reshape(shape)
    return -(2.0 ** order) / _bump_mass() * bump(2.0 * v - 1.0, order - 1)


def plateau(u, lo: float, hi: float):
    """Even plateau in u: 1 on |u| <= lo, 0 on |u| >= hi, built as
    S((u^2 - lo^2)/(hi^2 - lo^2)), so smooth across u = 0."""
    if hi <= lo or lo < 0:
        raise ValueError("plateau needs 0 <= lo < hi")
    u = np.asarray(u, dtype=float)
    return step((u * u - lo * lo) / (hi * hi - lo * lo), 0)
