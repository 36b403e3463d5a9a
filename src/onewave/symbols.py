"""Operator symbols, their semi-norms and asymptotic classification.

A :class:`SymbolExpr` wraps a differentiable expression tree with its declared
growth order m and spatial dimension.  Semi-norm suprema over (x, xi) are
approximated by sampled maxima (uniform x grid, uniform + dyadic xi ladder)
and are therefore reported as lower bounds of the true suprema.  The recipe
is shared, but each verdict samples its own box (docs/symbol_schema.md lists
them), so two verdicts compare lower bounds at different resolutions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .config import DEFAULT_THRESHOLDS
from .errors import EmptyBox, InsufficientSweep, NonFinite
from .grid import Grid

__all__ = [
    "SymbolExpr", "HyperbolicSymbol", "GenSymbolFamily", "SampleBox",
    "seminorm_c", "seminorm_q", "seminorm_Q",
    "classify_log_type", "classify_slow_scale", "multi_indices",
]


def _as_multi(idx, dim: int):
    if idx is None:
        return (0,) * dim
    if isinstance(idx, (int, np.integer)):
        if dim == 1:
            return (int(idx),)
        raise ValueError("multi-index must be a tuple in dimension > 1")
    idx = tuple(int(i) for i in idx)
    if len(idx) != dim:
        raise ValueError(f"multi-index length {len(idx)} != dim {dim}")
    if any(i < 0 for i in idx):
        raise ValueError("multi-index entries must be >= 0")
    return idx


def multi_indices(dim: int, max_total: int):
    """All multi-indices of length dim with |alpha| <= max_total."""
    out = []
    for total in range(max_total + 1):
        for combo in itertools.product(range(total + 1), repeat=dim):
            if sum(combo) == total:
                out.append(combo)
    return out


class SymbolExpr:
    """Expression tree plus declared order m and spatial dimension."""

    def __init__(self, root: ex.Expr, declared_order: float, dim: int):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.root = root
        self.declared_order = float(declared_order)
        self.dim = int(dim)
        self._deriv_cache = {}
        self._remainder_trees = None   # quantization's integrand trees
        self._remainder_rhs = {}       # and its semi-norm side, per length
        self._seminorm_constants = {}  # cauchy.seminorm_constant's, as a1

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def from_json(data: dict, mollifier_factory=None) -> "SymbolExpr":
        return SymbolExpr(ex.from_json(data["expr"], mollifier_factory),
                          data["declared_order"], data["dim"])

    # -- dependence flags ----------------------------------------------------
    def depends_t(self):
        return self.root.depends_t()

    # -- differentiation -----------------------------------------------------
    def derivative_root(self, d: int, alpha, beta) -> ex.Expr:
        """Tree of d_t^d d_xi^alpha d_x^beta applied to this symbol."""
        alpha = _as_multi(alpha, self.dim)
        beta = _as_multi(beta, self.dim)
        key = (d, alpha, beta)
        cached = self._deriv_cache.get(key)
        if cached is not None:
            return cached
        node = self.root
        for _ in range(d):
            node = node.d_t()
        for axis, count in enumerate(alpha):
            for _ in range(count):
                node = node.d_xi(axis)
        for axis, count in enumerate(beta):
            for _ in range(count):
                node = node.d_x(axis)
        self._deriv_cache[key] = node
        return node

    def derivative(self, d: int, alpha, beta) -> "SymbolExpr":
        alpha_t = _as_multi(alpha, self.dim)
        order = self.declared_order - sum(alpha_t)
        return SymbolExpr(self.derivative_root(d, alpha, beta), order, self.dim)

    # -- evaluation ------------------------------------------------------------
    def eval(self, t, x, xi):
        """Vectorized evaluation; x and xi are tuples of arrays shaped to
        broadcast against each other."""
        x = tuple(np.asarray(c) for c in (x if isinstance(x, (tuple, list)) else (x,)))
        xi = tuple(np.asarray(c) for c in (xi if isinstance(xi, (tuple, list)) else (xi,)))
        if len(x) != self.dim or len(xi) != self.dim:
            raise ValueError("coordinate tuple length must equal dim")
        out = self.root.eval(t, x, xi)
        shape = np.broadcast_shapes(*(c.shape for c in x + xi)) if x + xi else ()
        return np.broadcast_to(np.asarray(out), shape) if shape else out


@dataclass(frozen=True)
class SampleBox:
    """Sampling region for semi-norm maxima on [0, length]^dim.

    x is sampled uniformly per axis with endpoints included (refining the
    count by powers of two only adds points, keeping the reported maximum
    monotone); xi combines a uniform band on |xi| <= 4 with the dyadic
    ladder {0, +-2^j <= xi_max} along the grid directions, plus xi_max
    itself; t takes 33 uniform samples on [0, t_max].
    """

    dim: int
    length: float
    x_count: int = 129
    xi_max: float = 1024.0
    xi_uniform_count: int = 33
    t_max: float = 1.0

    def __post_init__(self):
        if self.x_count < 1 or self.xi_uniform_count < 1:
            raise EmptyBox("sample counts must be positive")
        if self.xi_max <= 0:
            raise EmptyBox("xi_max must be positive")

    def x_points(self) -> np.ndarray:
        return self._points[0]

    def xi_points(self) -> np.ndarray:
        return self._points[1]

    @functools.cached_property
    def _points(self) -> tuple:
        axes = [np.linspace(0.0, self.length, self.x_count)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        x = np.stack([m.ravel() for m in mesh], axis=-1)
        mags = set(np.linspace(0.0, 4.0, self.xi_uniform_count))
        j = 0
        while 2.0 ** j <= self.xi_max:
            mags.add(2.0 ** j)
            j += 1
        mags.add(self.xi_max)
        # sorted and distinct, from mags[0] == 0.0.  No np.unique: it imports
        # numpy.ma, and it leaves the sign of the zero point, +0.0 here, to
        # its sort order.
        mags = np.array(sorted(mags))
        if self.dim == 1:
            xi = np.concatenate([-mags[:0:-1], mags])[:, None]
        else:
            root2 = 1.0 / math.sqrt(2.0)
            dirs = np.array([(1, 0), (0, 1), (-1, 0), (0, -1),
                             (root2, root2), (-root2, -root2)])
            pts = np.round(mags[:, None, None] * dirs[None, :, :],
                           12).reshape(-1, 2)
            # rows in lexicographic order, the first of equal rows kept: the
            # stable sort keeps the first zero row, (0.0, 0.0)
            pts = pts[np.lexsort(pts.T[::-1])]
            xi = pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1],
                                                    axis=1)])]
        x.flags.writeable = xi.flags.writeable = False
        return x, xi

    def t_points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, 33)


def _eval_on_box(node: ex.Expr, t, xpts: np.ndarray, xipts: np.ndarray, dim: int):
    x = tuple(xpts[:, a][:, None] for a in range(dim))
    xi = tuple(xipts[:, a][None, :] for a in range(dim))
    out = np.asarray(node.eval(t, x, xi))
    return np.broadcast_to(out, (xpts.shape[0], xipts.shape[0]))


def seminorm_c(s: SymbolExpr, alpha, beta, box: SampleBox,
               t: float = 0.0) -> float:
    """Sampled maximum of (1+|xi|)^(-m+|alpha|) |d_xi^alpha d_x^beta s|,
    m the declared order of s.

    A lower bound of the true supremum, monotone nondecreasing under sample
    refinement of the box.  A NaN sample raises NonFinite, naming alpha,
    beta and t: the maxima over orders and times would drop it.
    """
    alpha_t = _as_multi(alpha, s.dim)
    beta_t = _as_multi(beta, s.dim)
    node = s.derivative_root(0, alpha_t, beta_t)
    xpts, xipts = box.x_points(), box.xi_points()
    if xpts.size == 0 or xipts.size == 0:
        raise EmptyBox("sampling box produced no points")
    vals = np.abs(_eval_on_box(node, t, xpts, xipts, s.dim))
    ximag = np.linalg.norm(xipts, axis=1)
    weight = (1.0 + ximag) ** (-s.declared_order + sum(alpha_t))
    best = float(np.max(vals * weight[None, :]))
    if math.isnan(best):
        raise NonFinite(f"semi-norm sample is NaN at alpha={alpha_t}, "
                        f"beta={beta_t}, t={t:g}")
    return best


def seminorm_q(s: SymbolExpr, k: int, l: int, box: SampleBox,
               t: float = 0.0) -> float:
    """max of seminorm_c over |alpha| <= k, |beta| <= l."""
    best = 0.0
    for alpha in multi_indices(s.dim, k):
        for beta in multi_indices(s.dim, l):
            best = max(best, seminorm_c(s, alpha, beta, box, t))
    return best


def seminorm_Q(s: SymbolExpr, j: int, k: int, l: int,
               box: SampleBox) -> float:
    """max over t-derivative orders i <= j and uniform t samples of
    seminorm_q applied to d_t^i s."""
    if not s.depends_t():
        return seminorm_q(s, k, l, box, t=0.0)
    best = 0.0
    for i in range(j + 1):
        si = SymbolExpr(s.derivative_root(i, None, None), s.declared_order, s.dim)
        for t in box.t_points():
            best = max(best, seminorm_q(si, k, l, box, t=float(t)))
    return best


@dataclass
class HyperbolicSymbol:
    """Order-1 symbol split a = a1 + a0 with a1 real-valued, a0 of order 0.

    ``x_independent_outside`` tags the radius beyond which the symbol is a
    pure frequency multiplier (measured from the domain midpoint on the
    torus).
    """

    a1: SymbolExpr
    a0: SymbolExpr | None = None
    x_independent_outside: float | None = None

    def __post_init__(self):
        if self.a0 is not None and self.a0.dim != self.a1.dim:
            raise ValueError("a1/a0 dimension mismatch")
        # one full symbol, so its users share its derivatives and tables
        self._full = self.a1 if self.a0 is None else SymbolExpr(
            ex.add(self.a1.root, self.a0.root), self.a1.declared_order,
            self.a1.dim)

    @property
    def dim(self):
        return self.a1.dim

    def full(self) -> SymbolExpr:
        return self._full

    def transport_speed(self, grid: Grid) -> float | None:
        """c when the symbol is a1 = c xi on the 1-D ``grid``: no a0,
        independent of t and x, real c, and a1(xi) = c xi to 1e-12 relative
        at every grid frequency; None for any other symbol."""
        a1 = self.a1
        if grid.dim != 1 or self.a0 is not None or a1.depends_t() or \
                a1.root.depends_x():
            return None
        xi = grid.xi_axis()
        values = a1.eval(0.0, (np.zeros(1),), (xi,))
        top = int(np.argmax(np.abs(xi)))
        speed = values[top] / xi[top]
        exact = speed.real * xi
        # written so that NaN and inf fail the comparison
        if speed.imag != 0.0 or not np.all(
                np.abs(values - exact) <= 1e-12 * np.abs(exact)):
            return None
        return float(speed.real)

    def sample_times(self, horizon: float) -> list:
        """The times on [0, horizon] that the measured norms and the
        reality check sample: the semi-norms' SampleBox.t_points when a1
        or a0 depends on t, else 0 alone."""
        if self._full.depends_t():
            return [float(t) for t in SampleBox(
                self.dim, 1.0, t_max=horizon).t_points()]
        return [0.0]

    def is_real(self, grid: Grid, horizon: float) -> bool:
        """Sampled reality check of the full symbol over ``grid``'s domain
        and frequencies |xi| <= grid.max_abs_xi(), at the sample times on
        [0, horizon] (a1 is checked on construction paths; case analysis
        also needs a0 real)."""
        if self.a0 is None:
            return True
        box = _grid_box(grid)
        return all(check_real_valued(self.a0, box, t)
                   for t in self.sample_times(horizon))

    def outside_tag_refusal(self, grid: Grid, horizon: float) -> str | None:
        """None when the ``x_independent_outside`` tag r0 holds on is_real's
        samples, else why not: some sample x lies at least r0 from the
        domain midpoint, and there every first x-derivative of the full
        symbol vanishes, |d_x a| <= 1e-14 (1 + max|a|) (check_real_valued's
        rule), at the sample times on [0, horizon]."""
        r0 = self.x_independent_outside
        if r0 is None:
            return "x_independent_outside tag missing"
        box = _grid_box(grid)
        x, xi = box.x_points(), box.xi_points()
        far = x[np.linalg.norm(x - grid.length / 2.0, axis=1) >= r0]
        if far.size == 0:
            return f"no sample x lies {r0:g} or more from the midpoint"
        dx = [self._full.derivative_root(0, None, beta)
              for beta in multi_indices(self.dim, 1) if sum(beta)]

        def sup(node, t):
            return np.max(np.abs(_eval_on_box(node, t, far, xi, self.dim)))
        for t in self.sample_times(horizon):
            tol = 1e-14 * (1.0 + sup(self._full.root, t))
            # written so that NaN fails the comparison
            if not all(sup(node, t) <= tol for node in dx):
                return (f"the symbol varies in x {r0:g} or more from the "
                        "midpoint")
        return None


def _grid_box(grid: Grid) -> SampleBox:
    """The sample box of is_real and outside_tag_refusal: 33 x points per
    axis on the grid's domain, the grid's frequencies up to its largest."""
    return SampleBox(grid.dim, grid.length, x_count=33, xi_uniform_count=9,
                     xi_max=grid.max_abs_xi())


def check_real_valued(s: SymbolExpr, box: SampleBox, t: float) -> bool:
    """Sampled reality check at time t: |Im| <= 1e-14 * (1 + |value|)."""
    vals = _eval_on_box(s.root, t, box.x_points(), box.xi_points(), s.dim)
    return not (np.max(np.abs(vals.imag)) >
                1e-14 * (1.0 + np.max(np.abs(vals))))


class GenSymbolFamily:
    """eps-indexed family of hyperbolic symbols sharing dim and orders."""

    def __init__(self, base, eps_grid):
        self.base = base
        self.eps_grid = tuple(sorted((float(e) for e in eps_grid), reverse=True))
        if not self.eps_grid:
            raise InsufficientSweep("empty eps grid")
        if any(e <= 0 or e > 1 for e in self.eps_grid):
            raise InsufficientSweep("eps grid entries must lie in (0, 1]")
        self._members = {}
        first = self.member(self.eps_grid[0])
        last = self.member(self.eps_grid[-1])
        if first.dim != last.dim:
            raise ValueError("family members disagree on dimension")

    def member(self, eps: float) -> HyperbolicSymbol:
        key = float(eps)
        if key not in self._members:
            self._members[key] = self.base(key)
        return self._members[key]

    def require_regression_sweep(self):
        if len(self.eps_grid) < 5 or self.eps_grid[0] / self.eps_grid[-1] < 1e3:
            raise InsufficientSweep(
                "regression verdicts need >= 5 eps points spanning >= 3 decades")


def _family_Q_values(fam: GenSymbolFamily, j, k, l, box):
    """Q_{j,k,l} of each eps's member, sampled once per member object (a
    fixed symbol is one member for every eps)."""
    members, once = [fam.member(eps) for eps in fam.eps_grid], {}
    for m in members:
        if id(m) not in once:
            once[id(m)] = seminorm_Q(m.full(), j, k, l, box)
    return np.array([once[id(m)] for m in members])


def log_fit(eps, values) -> tuple[float, float, float]:
    """Least-squares c*log(1/eps) + b through values.

    Returns (c, b, residual) with the residual relative to ||values||.
    """
    logs = np.log(1.0 / np.asarray(eps, dtype=float))
    values = np.asarray(values, dtype=float)
    coeffs = np.polyfit(logs, values, 1)
    scale = max(float(np.linalg.norm(values)), 1e-300)
    residual = float(np.linalg.norm(values - np.polyval(coeffs, logs))) / scale
    return float(coeffs[0]), float(coeffs[1]), residual


def classify_log_type(fam: GenSymbolFamily, k: int, l: int,
                      box: SampleBox, thresholds=DEFAULT_THRESHOLDS) -> dict:
    """Least-squares fit Q^m_{0,k,l}(a_eps) ~ c*log(1/eps) + b over the sweep,
    m the members' declared order.

    Verdict requires relative fit residual below the configured threshold
    and a nonnegative fitted coefficient.
    """
    fam.require_regression_sweep()
    q_vals = _family_Q_values(fam, 0, k, l, box)
    c, intercept, residual = log_fit(fam.eps_grid, q_vals)
    # "nonnegative" up to fit noise: 1% of the semi-norm level counts as zero
    c_floor = -0.01 * (float(np.mean(np.abs(q_vals))) + 1e-300)
    return {
        "is_log_type": bool(residual < thresholds.log_type_residual and c >= c_floor),
        "fitted_coeff": c,
        "intercept": intercept,
        "residual": residual,
        "q_values": q_vals.tolist(),
        "eps": list(fam.eps_grid),
    }


def classify_slow_scale(fam: GenSymbolFamily, j: int, k: int, l: int,
                        box: SampleBox, thresholds=DEFAULT_THRESHOLDS) -> dict:
    """Finite-sweep slow-scale test of Q^1_{j,k,l} along the family.

    Fits the power-law slope of log Q against log(1/eps) and subtracts the
    slope a pure log(1/eps) net measures on the same sweep (a slow-scale
    net by definition); the excess must satisfy p * excess <= 1 + slack for
    every power p up to the configured maximum.  Reports the largest p
    satisfied."""
    fam.require_regression_sweep()
    q_vals = _family_Q_values(fam, j, k, l, box)
    logs = np.log(1.0 / np.array(fam.eps_grid))
    p_max = thresholds.slow_scale_p_max
    if np.all(q_vals < 1e-280):
        return {"is_slow_scale": True, "largest_p": p_max, "slope": 0.0,
                "excess": 0.0}
    y = np.log(np.maximum(q_vals, 1e-280))
    slope = float(np.polyfit(logs, y, 1)[0])
    log_ref = float(np.polyfit(logs, np.log(logs), 1)[0])
    excess = max(slope - log_ref, 0.0)
    largest = 0
    for p in range(1, p_max + 1):
        if p * excess <= 1.0 + thresholds.slow_scale_slope_slack:
            largest = p
        else:
            break
    return {"is_slow_scale": largest >= p_max, "largest_p": largest,
            "slope": slope, "excess": excess}
