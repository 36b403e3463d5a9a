"""Discrete Kohn-Nirenberg quantization on periodic grids.

The operator acts as v(x_j) = sum_k s(t, x_j, xi_k) u_hat_k exp(i x_j xi_k)
(left quantization).  Symbols that split into sums of separable terms
f_m(x) g_m(xi) ride an FFT fast path costing O(R M^n log M); everything else
goes through a dense per-node symbol table costing O(M^(2n)), guarded at desk
scale.  PeriodicOperator is the one operator type: one symbol, or one per
row, applied to a stack of grid functions; rows of one symbol object share
its tables, and norms are estimated once per distinct (symbol object, t)
pair.  The adjoint used in production is the exact conjugate transpose with
respect to the discrete L2 inner product; the oscillatory-integral machinery
below verifies it against the symbol-calculus remainder at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .config import POWER_ITERS, POWER_RTOL
from .errors import BoxTooSmall, DimensionMismatch, TooLarge
from .grid import Grid
from .profiles import _gl_nodes, plateau
from .symbols import SampleBox, SymbolExpr, seminorm_Q

__all__ = [
    "PeriodicOperator", "stacks", "op_matrix",
    "symbol_from_matrix", "power_iteration", "adjoint_defect_norm",
    "adjoint_defect_norms", "operator_norm", "operator_norms",
    "OscIntConfig", "adjoint_symbol_remainder", "check_remainder_estimate",
]

DENSE_GUARD = 4096
_ROWS = 128      # dense-table rows filled or scanned at a time


def _distinct(items, key) -> tuple[list, list]:
    """(items of distinct key, first seen first; each item's index there)"""
    first = {}
    slots = [first.setdefault(key(it), (len(first), it))[0] for it in items]
    return [it for _, it in first.values()], slots


class PeriodicOperator:
    """Quantized symbols bound to a grid, applied to a stack of rows.

    ``symbols`` is one SymbolExpr, for every row, or a list of symbols of
    one table layout, one per row (a one-symbol list serves every row).
    ``apply(t, values)`` applies every row at the scalar time t, or row k at
    t[k] for per-row times.  Each distinct symbol object caches its tables at
    the last time asked, and its rows share them; separable tables of several
    rows are stacked, once while no live symbol depends on t and per call
    otherwise; dense tables apply row by row, one alive at a time, and are
    not kept after an apply at several per-row times.
    """

    def __init__(self, symbols, grid: Grid):
        self.symbols = [symbols] if isinstance(symbols, SymbolExpr) \
            else list(symbols)
        for s in self.symbols:
            if s.dim != grid.dim:
                raise DimensionMismatch(
                    f"symbol dim {s.dim} != grid dim {grid.dim}")
        self.grid = grid
        self.rows = list(range(len(self.symbols)))
        self._distinct, self._of = _distinct(self.symbols, id)
        self._terms = [ex.separable_terms(s.root) for s in self._distinct]
        if len({None if t is None else len(t) for t in self._terms}) > 1:
            raise ValueError("an operator's symbols must share a table layout")
        self._t_dep = [s.depends_t() for s in self.symbols]
        self._cache = [(None, None)] * len(self._distinct)
        self._stacked = (None, None)

    @property
    def separable(self) -> bool:
        return self._terms[0] is not None

    def narrow(self, rows):
        """Make ``rows``, indices into the symbols the operator was built
        with, the rows it applies, and drop the tables that no row of them
        reads; returns the operator."""
        if rows != self.rows:
            for j in {self._of[r] for r in self.rows} - \
                    {self._of[r] for r in rows}:
                self._cache[j] = (None, None)
            self.rows, self._stacked = list(rows), (None, None)
        return self

    # -- symbol tables --------------------------------------------------------
    def _key(self, r: int, t: float) -> float:
        """The time row r's tables are taken at: 0 if its symbol ignores t."""
        return float(t) if self._t_dep[r] else 0.0

    def _tables(self, i: int, key: float):
        """Tables of distinct symbol i at time ``key`` (see _key)."""
        if self._cache[i][0] == key:
            return self._cache[i][1]
        self._cache[i] = (None, None)   # a stale dense table is freed first
        g = self.grid
        if self._terms[i] is not None:
            xm = g.x_mesh()
            xim = g.xi_mesh()
            zeros_x = tuple(np.zeros(g.shape) for _ in range(g.dim))
            fx, gxi = [], []
            for x_part, xi_part in self._terms[i]:
                fx.append(np.asarray(x_part.eval(key, xm, zeros_x), dtype=complex)
                          * np.ones(g.shape))
                gxi.append(np.asarray(xi_part.eval(key, zeros_x, xim), dtype=complex)
                           * np.ones(g.shape))
            tables = _Terms(fx, gxi)
        else:
            if g.size > DENSE_GUARD:
                raise TooLarge(
                    f"dense quantization path guarded at {DENSE_GUARD} nodes; "
                    f"grid has {g.size} (use a separable symbol)")
            tables = self._symbol_table(i, key)
        self._cache[i] = (key, tables)
        return tables

    def sup_abs(self, t: float, row: int = 0) -> float:
        """sup |s(t, x_j, xi_k)| of symbol ``row`` over the grid's nodes and
        frequencies, read from the tables: the bound sum_m max|f_m| max|g_m|
        for separable terms, the max over the full table on the dense path."""
        tables = self._tables(self._of[row], self._key(row, t))
        if isinstance(tables, _Terms):
            acc = 0.0
            for f_m, g_m in zip(tables.f, tables.g):
                acc += np.max(np.abs(f_m)) * np.max(np.abs(g_m))
            return float(acc)
        return float(max(np.max(np.abs(tables[lo:lo + _ROWS]))
                         for lo in range(0, len(tables), _ROWS)))

    def _symbol_table(self, i: int, t: float) -> np.ndarray:
        """S o E, S[j, k] = s_i(t, x_j, xi_k) and E[j, k] = exp(i x_j.xi_k).

        2-D M=64 is 4096^2 entries, so no second table is ever alive: the
        real phase x_j.xi_k is computed by one BLAS call (row blocks would
        round some entries differently) into the first half of the output's
        memory, and the rows become S o E _ROWS at a time from the last
        block down, each block read before complex rows are written over it.
        """
        g = self.grid
        pts = g.flat_points()
        xi_flat = _flat_frequencies(g)
        xi = tuple(xi_flat[:, a][None, :] for a in range(g.dim))
        out = np.empty((g.size, g.size), dtype=complex)
        phase = out.view(float).reshape(-1)[:g.size ** 2].reshape(out.shape)
        np.matmul(pts, xi_flat.T, out=phase)
        for lo in reversed(range(0, g.size, _ROWS)):
            block = 1j * phase[lo:lo + _ROWS]
            np.exp(block, out=block)
            s = np.asarray(self._distinct[i].root.eval(t, tuple(
                pts[lo:lo + _ROWS, a][:, None] for a in range(g.dim)), xi),
                dtype=complex)
            out[lo:lo + _ROWS] = np.multiply(
                np.broadcast_to(s, block.shape), block, out=block)
        return out

    # -- application -----------------------------------------------------------
    def apply(self, t, values: np.ndarray, out=None) -> np.ndarray:
        """op(s) on the rows of ``values`` (..., *grid.shape): at the scalar
        time t, or row k at t[k].  Writes the result into ``out`` (complex,
        the shape of values) and returns it, or into a new array when out is
        None; never writes ``values``, which out must not overlap."""
        return self._apply(t, values, False, out)

    def apply_adjoint(self, t, values: np.ndarray, out=None) -> np.ndarray:
        """Exact conjugate transpose w.r.t. the discrete L2 inner product;
        ``out`` as in apply."""
        return self._apply(t, values, True, out)

    def _apply(self, t, values: np.ndarray, adjoint: bool, out) -> np.ndarray:
        """The one path of apply and apply_adjoint, each public call one
        trace span."""
        if out is None:
            out = np.empty(np.shape(values), dtype=complex)
        if np.ndim(t) == 0:
            t = [t] * len(self.rows)
        rs = [0] * len(t) if len(self.symbols) == 1 else self.rows
        keys = tuple((self._of[r], self._key(r, tk)) for r, tk in zip(rs, t))
        if len(set(keys)) == 1 and (self.separable or len(keys) == 1):
            return _apply_tables(self._tables(*keys[0]), values, self.grid,
                                 adjoint, out)
        if not self.separable:      # row by row, and no table is kept
            for key, row, row_out in zip(keys, values, out):
                _apply_tables(self._tables(*key), row, self.grid, adjoint,
                              row_out)
            self._cache = [(None, None)] * len(self._distinct)
            return out
        if self._stacked[0] != keys:
            tabs = [self._tables(*key) for key in keys]
            self._stacked = (keys, _Terms(
                [np.stack(f) for f in zip(*(tb.f for tb in tabs))],
                [np.stack(g) for g in zip(*(tb.g for tb in tabs))]))
        return _apply_tables(self._stacked[1], values, self.grid, adjoint, out)

    def matrix(self, t: float = 0.0) -> np.ndarray:
        """Dense nodal-basis matrix (S o E) E^H / N (small-scale oracle).

        Built from the full symbol table for every symbol, never through the
        separable FFT path, so it can referee ``apply``.
        """
        g = self.grid
        if g.size > DENSE_GUARD:
            raise TooLarge(f"matrix oracle guarded at {DENSE_GUARD} nodes")
        return self._symbol_table(0, float(t)) @ \
            _fourier_matrix(g).conj().T / g.size


class _Terms:
    """Tables f_m(x_j) and g_m(xi_k) of a separable symbol's terms, one
    list entry per term, and their conjugates, which the adjoint reads,
    built on its first use."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    @functools.cached_property
    def conj(self):
        return ([np.conjugate(f_m) for f_m in self.f],
                [np.conjugate(g_m) for g_m in self.g])


def _apply_tables(tables, values: np.ndarray, grid: Grid, adjoint, out):
    """op(s), or its adjoint, on values of shape (..., *grid.shape), written
    into ``out`` (values' shape): the FFTs (lengths given, which spares numpy
    a lookup) run over the grid axes only, so each row of a stack meets its
    row of stacked separable tables with its one-member arithmetic, bitwise.
    The separable route transforms in place in one scratch array and sums
    the terms into out from zero, as 0 + x, which keeps the signs of zeros.
    A dense table takes one matrix-vector product per row, as a one-row
    apply does; the adjoint's, conj(conj(row) @ S), copies no table."""
    shape, axes = grid.shape, grid.axes
    if not isinstance(tables, _Terms):
        if adjoint:     # S^H @ row bitwise, once conj's -0 are +0 again
            dense = np.stack([np.conjugate(np.conjugate(row) @ tables)
                              for row in values.reshape(-1, grid.size)])
            dense.imag += 0.0
            dense /= grid.size
        else:
            dense = np.stack([tables @ row for row in (np.fft.fftn(
                values, shape, axes) / grid.size).reshape(-1, grid.size)])
        out[...] = dense.reshape(out.shape)
        return out
    out.fill(0.0)
    w = np.empty(out.shape, dtype=complex)
    if adjoint:
        for cf_m, cg_m in zip(*tables.conj):
            np.multiply(cf_m, values, out=w)
            np.fft.fftn(w, shape, axes, out=w)
            np.multiply(cg_m, w, out=w)
            np.fft.ifftn(w, shape, axes, out=w)
            np.add(out, w, out=out)
        return out
    u_hat = np.fft.fftn(values, shape, axes)
    for f_m, g_m in zip(tables.f, tables.g):
        np.multiply(g_m, u_hat, out=w)
        np.fft.ifftn(w, shape, axes, out=w)
        np.multiply(f_m, w, out=w)
        np.add(out, w, out=out)
    return out


def stacks(symbols, grid: Grid):
    """(rows, PeriodicOperator) per table layout of ``symbols`` on
    ``grid``, in first-row order.  Separable symbols stack by term count, never padded
    with zero terms (which could flip signed zeros); a dense one stacks
    alone, so one dense table is alive at a time."""
    layouts = {}
    for i, s in enumerate(symbols):
        terms = ex.separable_terms(s.root)
        layouts.setdefault(-1 - i if terms is None else len(terms),
                           []).append(i)
    for rows in layouts.values():
        yield rows, PeriodicOperator([symbols[i] for i in rows], grid)


def _flat_frequencies(grid: Grid) -> np.ndarray:
    return np.stack([m.ravel() for m in grid.xi_mesh()], axis=-1)


def _fourier_matrix(grid: Grid) -> np.ndarray:
    """E[j, k] = exp(i x_j.xi_k) over the flattened nodes and frequencies."""
    phase = 1j * (grid.flat_points() @ _flat_frequencies(grid).T)
    return np.exp(phase, out=phase)


def op_matrix(s: SymbolExpr, t: float, grid: Grid) -> np.ndarray:
    return PeriodicOperator(s, grid).matrix(t)


def symbol_from_matrix(matrix: np.ndarray, grid: Grid) -> np.ndarray:
    """Recover the symbol table s(x_j, xi_k) from a nodal-basis matrix.

    Inverse of the quantization map: with E[j,k] = exp(i x_j.xi_k) and the
    analysis matrix F[k,l] = exp(-i xi_k.x_l)/N one has  matrix = (S*E) F and
    F^(-1) = E, hence S = (matrix @ E) / E elementwise.
    """
    E = _fourier_matrix(grid)
    return (matrix @ E) / E


def power_iteration(apply_hermitian, shape, rngs):
    """Largest eigenvalues of a stack of Hermitian PSD operators by one power
    iteration; ``apply_hermitian(rows, v)`` applies those of ``rows``
    (indices into ``rngs``) to the rows of v.  Each row starts from its own
    generator and stops on its own test, then leaves the stack.  Returns a
    deterministic (eigenvalue_estimate, converged, iterations_used) per row.
    """
    v = np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for rng in rngs])
    for row in v:
        row /= np.linalg.norm(row.ravel())
    rows, lam, out = list(range(len(v))), [None] * len(v), {}
    for it in range(1, POWER_ITERS + 1):
        if not rows:
            break
        w, keep = apply_hermitian(rows, v), []
        for k, i in enumerate(rows):
            lam_prev = lam[i]
            lam[i] = float(np.real(np.vdot(v[k].ravel(), w[k].ravel())))
            nw = np.linalg.norm(w[k].ravel())
            if nw == 0.0:
                out[i] = (0.0, True, it)
            elif lam_prev is not None and abs(lam[i] - lam_prev) <= \
                    POWER_RTOL * max(abs(lam[i]), 1e-300):
                out[i] = (max(lam[i], 0.0), True, it)
            else:
                w[k] /= nw
                keep.append(k)
        v = w if len(keep) == len(rows) else w[keep]
        rows = [rows[k] for k in keep]
    return [out.get(i, (max(lam[i], 0.0), False, POWER_ITERS))
            for i in range(len(lam))]


@dataclass(frozen=True)
class NormEstimate:
    value: float
    converged: bool
    iterations: int


def _rng_from(seed):
    """A fresh generator from ``seed``, an int or None (for 0).  A generator
    object is refused: the rows of a stacked estimate would share its state,
    so no row would start like its one-member estimate."""
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError("a norm estimate's seed is an int or None, "
                        f"not a {type(seed).__name__}")
    return np.random.default_rng(0 if seed is None else seed)


def band_projector(grid: Grid):
    """Spectral projector onto modes with |xi| <= Nyquist / 2.

    Discrete quantization aliases products near the unpaired Nyquist mode, so
    operator norms are measured on the resolved band the scenarios use.
    """
    xi = grid.xi_mesh()
    mag = np.sqrt(sum(np.asarray(c) ** 2 for c in xi))
    mask = mag <= 0.5 * grid.max_abs_xi() + 1e-12

    def project(v):
        w = np.fft.fftn(v, grid.shape, grid.axes)
        np.multiply(w, mask, out=w)
        return np.fft.ifftn(w, grid.shape, grid.axes, out=w)

    return project


def _band_norms(pairs, grid: Grid, seed, gram) -> list:
    """Square root of the top eigenvalue of gram(stack, ts, proj, v), a
    Hermitian PSD product of op(s) at time t and the band projector, per
    (s, t) in ``pairs``: one power iteration over the stack of each table
    layout, every row seeded like a one-member estimate, each distinct
    (symbol object, t) pair once and shared by the pairs that repeat it."""
    proj = band_projector(grid)
    once, slot = _distinct(pairs, lambda pair: (id(pair[0]), float(pair[1])))
    out = [None] * len(once)
    for rows, stack in stacks([s for s, _ in once], grid):
        ts = [once[i][1] for i in rows]
        found = power_iteration(lambda live, v: gram(
            stack.narrow(live), [ts[k] for k in live], proj, v),
            grid.shape, [_rng_from(seed) for _ in rows])
        for i, (lam, ok, used) in zip(rows, found):
            out[i] = NormEstimate(math.sqrt(max(lam, 0.0)), ok, used)
    return [out[k] for k in slot]


def adjoint_defect_norms(pairs, grid: Grid, seed=None) -> list:
    """L2 operator norm of P(op(s) - op(s)^dagger)P at t, per (s, t) in
    ``pairs``.  B = A - A^dagger satisfies B^dagger = -B, and so does PBP,
    so B*B needs two B applications per iteration."""
    def b_apply(stack, ts, proj, v):
        pv = proj(v)
        bv = stack.apply(ts, pv)
        np.subtract(bv, stack.apply_adjoint(ts, pv), out=bv)
        return proj(bv)

    def gram(stack, ts, proj, v):
        bbv = b_apply(stack, ts, proj, b_apply(stack, ts, proj, v))
        return np.negative(bbv, out=bbv)

    return _band_norms(pairs, grid, seed, gram)


def operator_norms(pairs, grid: Grid, seed=None) -> list:
    """L2 operator norm of P op(s) P at t, per (s, t) in ``pairs``, by power
    iteration on its Gram product."""
    return _band_norms(pairs, grid, seed, lambda stack, ts, proj, v: proj(
        stack.apply_adjoint(ts, proj(stack.apply(ts, proj(v))))))


def adjoint_defect_norm(s: SymbolExpr, t: float, grid: Grid,
                        seed=None) -> NormEstimate:
    return adjoint_defect_norms([(s, t)], grid, seed)[0]


def operator_norm(s: SymbolExpr, t: float, grid: Grid,
                  seed=None) -> NormEstimate:
    return operator_norms([(s, t)], grid, seed)[0]


# -- oscillatory-integral adjoint remainder (desk-scale verification) --------

@dataclass(frozen=True)
class OscIntConfig:
    """Regularized oscillatory integral parameters.

    lam is the integration-by-parts order in y (needs 2*lam > n); there is
    none in eta.  The (y, eta) integral is truncated to a box with smooth
    roll-off on the outer 40% of each axis; eta-convergence is oscillatory
    and is therefore checked by refinement stability rather than a shell
    estimate, while the y-tail (with its (1+|y|^2)^(-lam) decay) is
    monitored directly.  Frozen: the weighted quadrature kernel is cached
    per (config, dim) by _kernel.
    """

    lam: int = 2
    theta_nodes: int = 7
    y_half: float = 14.0
    eta_half: float = 40.0
    y_points: int = 361
    eta_points: int = 361
    tail_tol: float = 0.05

    def validate(self, dim: int):
        if 2 * self.lam <= dim:
            raise ValueError("OscIntConfig needs 2*lam > n")

    def refined(self) -> "OscIntConfig":
        """2n + 1 theta nodes; the (y, eta) box and point counts (odd) x1.4."""
        factor = 1.4
        return replace(
            self, theta_nodes=2 * self.theta_nodes + 1,
            y_half=self.y_half * factor, eta_half=self.eta_half * factor,
            y_points=int(self.y_points * factor) | 1,
            eta_points=int(self.eta_points * factor) | 1)


def _axis_quad(half: float, points: int):
    nodes = np.linspace(-half, half, points)
    w = np.full(points, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    window = plateau(nodes, 0.6 * half, half)
    return nodes, w * window, w


class _Kernel(NamedTuple):
    y_mesh: tuple           # dim arrays (Ny, 1): rows run over the y tensor grid
    e_mesh: tuple           # dim arrays (1, Ne): columns run over the eta grid
    K: np.ndarray           # exp(-i y.eta) * damp * w_y * w_eta / (2 pi)^n
    rows: np.ndarray        # K.sum(1)
    cols: np.ndarray        # K.sum(0)
    total: complex          # K.sum()
    tail_w: np.ndarray      # damp * raw trapezoid w_y, shape (Ny, 1)
    shell: np.ndarray       # |y| > 0.8 y_half, shape (Ny, 1)


@functools.lru_cache(maxsize=8)
def _kernel(cfg: OscIntConfig, dim: int) -> _Kernel:
    if (cfg.y_points * cfg.eta_points) ** dim > DENSE_GUARD ** 2:
        raise TooLarge(f"remainder kernel guarded at {DENSE_GUARD}^2 entries; "
                       f"{dim}-D has {cfg.y_points}^{dim} y nodes x "
                       f"{cfg.eta_points}^{dim} eta nodes")
    y_nodes, y_w, y_raw = _axis_quad(cfg.y_half, cfg.y_points)
    e_nodes, e_w, _ = _axis_quad(cfg.eta_half, cfg.eta_points)

    def tensor(axis):
        return np.stack([m.ravel() for m in
                         np.meshgrid(*(axis,) * dim, indexing="ij")])

    ys, es = tensor(y_nodes), tensor(e_nodes)
    ys.flags.writeable = es.flags.writeable = False     # and their views
    w_y = tensor(y_w).prod(axis=0)[:, None]
    w_e = (tensor(e_w).prod(axis=0) / (2.0 * np.pi) ** dim)[None, :]
    y_sq = (ys ** 2).sum(axis=0)[:, None]
    phase = np.exp(-1j * (ys[:, :, None] * es[:, None, :]).sum(axis=0))
    damp = (1.0 + y_sq) ** (-cfg.lam)
    K = phase * damp * w_y * w_e
    kernel = _Kernel(tuple(ys[:, :, None]), tuple(es[:, None, :]), K,
                     K.sum(axis=1), K.sum(axis=0), complex(K.sum()),
                     damp * tensor(y_raw).prod(axis=0)[:, None],
                     y_sq > (0.8 * cfg.y_half) ** 2)
    for arr in (K, kernel.rows, kernel.cols, kernel.tail_w, kernel.shell):
        arr.flags.writeable = False     # one kernel serves every caller
    return kernel


def _contract(k: _Kernel, v: np.ndarray) -> complex:
    """sum(K o v) for an integrand at its natural broadcast shape."""
    if v.ndim == 0:
        return complex(v) * k.total
    if v.shape[1] == 1:
        return complex(v[:, 0] @ k.rows)
    if v.shape[0] == 1:
        return complex(k.cols @ v[0])
    return complex(np.sum(k.K * v))


def _remainder_integrand_trees(s: SymbolExpr, lam: int, extra_alpha=(),
                               extra_beta=()):
    """Per axis j, the trees of Laplacian_xi^i applied to d_xi_j d_x_j conj(s),
    i = 0..lam, with optional extra derivatives for the estimate check; a
    tuple of tuples, built once per (lam, alpha, beta) and kept on ``s``."""
    key = (lam, tuple(extra_alpha), tuple(extra_beta))
    cached = s._remainder_trees.get(key)
    if cached is not None:
        return cached
    root = ex.Conj(s.root)
    for var, counts in (("xi", extra_alpha), ("x", extra_beta)):
        for a, cnt in enumerate(counts):
            for _ in range(cnt):
                root = root.d((var, a))
    per_axis = [[root.d_xi(axis).d_x(axis)] for axis in range(s.dim)]
    for trees in per_axis:
        for _ in range(lam):
            trees.append(ex.add(*(trees[-1].d_xi(a).d_xi(a)
                                  for a in range(s.dim))))
    s._remainder_trees[key] = tuple(map(tuple, per_axis))
    return s._remainder_trees[key]


def _r_theta(trees, t: float, x, pairs, cfg: OscIntConfig, tail_report=None):
    """r_theta summed over axes at one (t, x) point, one value per
    (xi, theta) in ``pairs``.

    ``trees`` comes from _remainder_integrand_trees.  The weighted kernel K is
    cached per (cfg, dim); each tree is evaluated at its natural broadcast
    shape over the (y, eta) grid, and that shape picks the contraction with K
    (_contract): a constant uses sum(K), a y-column the row sums, an
    eta-row the column sums, and only a full-grid integrand the whole K.
    A tree that reads no xi is evaluated and contracted once, at the first
    pair, and serves every pair; only the others are evaluated per pair.
    """
    k = _kernel(cfg, len(trees))
    x_args = tuple(np.asarray(xa) + ym for xa, ym in zip(x, k.y_mesh))
    xi_free = {}    # id of a tree that reads no xi -> (value, contraction)
    totals = []
    for xi, theta in pairs:
        xi_args = None      # built when a tree first reads it
        # (1 - Lap_eta)^lam = sum_i C(lam,i) (-Lap_eta)^i and Lap_eta =
        # theta^2 Lap_xi, so each term carries (-theta^2)^i.
        coeffs = [math.comb(cfg.lam, i) * (-theta * theta) ** i
                  for i in range(cfg.lam + 1)]
        total = 0.0 + 0.0j
        for axis_trees in trees:
            terms = []
            for tr in axis_trees:
                term = xi_free.get(id(tr))
                if term is None:
                    xi_args = xi_args or tuple(np.asarray(xa) + theta * em
                                               for xa, em in zip(xi, k.e_mesh))
                    v = np.asarray(tr.eval(t, x_args, xi_args))
                    term = (v, _contract(k, v))
                    if not tr.depends_xi():
                        xi_free[id(tr)] = term
                terms.append(term)
            total += sum(c * kv for c, (_, kv) in zip(coeffs, terms))
            if tail_report is not None:
                # raw trapezoid weights, so the smooth roll-off cannot hide
                # boundary mass; sums count mag broadcast over the full grid
                mag = k.tail_w * np.abs(sum(c * v for c, (v, _)
                                            in zip(coeffs, terms)))
                scale = k.K.size // mag.size
                tail_report.append((float(np.sum(mag * k.shell)) * scale,
                                    float(np.sum(mag)) * scale))
        totals.append(total)
    return totals


def adjoint_symbol_remainder(s: SymbolExpr, t: float, x, xi,
                             cfg: OscIntConfig | None = None) -> complex:
    """Symbol-level adjoint correction: op(s)^dagger has symbol
    conj(s) + remainder, with the remainder evaluated here by regularized
    tensor quadrature over (y, eta) and Gauss-Legendre in theta.

    Verified convention (matches the dense-matrix adjoint oracle): for
    s = c(x) xi the remainder equals -i c'(x).
    """
    cfg = cfg or OscIntConfig()
    cfg.validate(s.dim)
    x = tuple(np.atleast_1d(np.asarray(x, dtype=float)))
    xi = tuple(np.atleast_1d(np.asarray(xi, dtype=float)))
    nodes, weights = _gl_nodes(cfg.theta_nodes)
    thetas = 0.5 * (nodes + 1.0)
    tw = 0.5 * weights
    tails = []
    values = _r_theta(_remainder_integrand_trees(s, cfg.lam), t, x,
                      [(xi, float(theta)) for theta in thetas], cfg,
                      tail_report=tails)
    acc = 0.0 + 0.0j
    for w, value in zip(tw, values):
        acc += w * value
    shell = sum(a for a, _ in tails)
    total = sum(b for _, b in tails)
    if total > 0 and shell / total > cfg.tail_tol:
        raise BoxTooSmall(
            f"y-shell fraction {shell / total:.3f} exceeds {cfg.tail_tol}")
    return complex(-1j * acc)


def check_remainder_estimate(s: SymbolExpr, alpha, beta,
                             cfg: OscIntConfig | None = None) -> dict:
    """Compare weighted remainder derivatives against the semi-norm side.

    lhs = max over sampled (x, xi, theta) at t = 0 of
          |d_xi^alpha d_x^beta r_theta| * (1+|xi|)^{|alpha|};
    rhs = Q^m_{0, n+2+|alpha|, n+2+|alpha|+|beta|}(s), m the declared order
    of s, both sampled on [0, 2 pi]^n x {|xi| <= 64}; theta-uniformity shows
    up as stability of the reported ratio under refinement.
    """
    cfg = cfg or OscIntConfig()
    dim = s.dim
    alpha = tuple(int(v) for v in np.atleast_1d(alpha))
    beta = tuple(int(v) for v in np.atleast_1d(beta))
    a_tot, b_tot = sum(alpha), sum(beta)
    cfg.validate(dim)
    box = SampleBox(dim, 2 * math.pi, x_count=9, xi_max=64.0,
                    xi_uniform_count=5)
    x_probes = box.x_points()[:: max(1, box.x_points().shape[0] // 7)]
    ladder = [0.0, 1.0, 4.0, 16.0, 64.0]
    xi_probes = np.array([[v] + [0.0] * (dim - 1) for v in ladder])
    thetas = np.linspace(0.0, 1.0, 5)
    pairs = [(tuple(xip), float(theta)) for xip in xi_probes
             for theta in thetas]
    weights = [(1.0 + float(np.linalg.norm(xi))) ** a_tot for xi, _ in pairs]
    trees = _remainder_integrand_trees(s, cfg.lam, alpha, beta)
    lhs = 0.0
    for xp in x_probes:
        for val, weight in zip(_r_theta(trees, 0.0, tuple(xp), pairs, cfg),
                               weights):
            lhs = max(lhs, abs(val) * weight)
    rhs = seminorm_Q(s, 0, dim + 2 + a_tot, dim + 2 + a_tot + b_tot, box)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return {"lhs": lhs, "rhs_seminorm": rhs, "ratio": ratio}
