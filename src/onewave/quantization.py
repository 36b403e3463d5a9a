"""Discrete Kohn-Nirenberg quantization on periodic grids.

The operator acts as v(x_j) = M^-n sum_k s(t, x_j, xi_k) u_hat_k
exp(i x_j.xi_k), u_hat = fftn(u) (left quantization).  Symbols that split
into sums of separable terms f_m(x) g_m(xi) ride an FFT fast path costing
O(R M^n log M); everything else goes through a dense per-node symbol table
costing O(M^(2n)), guarded at desk scale.  PeriodicOperator is the one
operator type: one symbol, or one per row, applied to a stack of grid
functions, with no row state; its tables(t, rows) is the one read of the
tables that serve some of its rows.  Norms are estimated once per distinct
(symbol object, t) pair.  The adjoint used in production is the exact
conjugate transpose with respect to the discrete L2 inner product; the
oscillatory-integral machinery below verifies it against the
symbol-calculus remainder at desk scale.

op(s) has two halves: _synth takes a spectrum (fftn of grid values) to the
grid values of op(s) ifftn(spectrum), and _analyse takes grid values to the
spectrum of op(s)^dagger on them.  apply_spectrum is _synth, for the
spectra a solve keeps; apply is apply_spectrum after fftn, apply_adjoint
ifftn after _analyse.  The norm estimators iterate on band-limited spectra:
the band projector is an exact boolean mask multiply, and one application
of A - A^dagger, or of A and then A^dagger, takes one batched ifftn and one
batched fftn call.  A - A^dagger takes a separable symbol's Fourier
multiplier share d (_Terms.split, the one split of op(s), which the time
stepper reads too) exactly and transforms only the rest, so a real x-free
symbol's defect is exactly 0.  Each estimate carries a certified upper end
read from the tables where one is known (a transport symbol's defect, an
x-only symbol's norm and defect: _skew_upper, _operator_upper), and its row
stops once the estimate is within BRACKET_WIDTH of it.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .config import BRACKET_WIDTH, POWER_ITERS, POWER_RTOL
from .errors import BoxTooSmall, DimensionMismatch, TooLarge
from .grid import Grid
from .profiles import _gl_nodes, plateau
from .symbols import SampleBox, SymbolExpr, linear_in_xi, seminorm_Q

__all__ = [
    "PeriodicOperator", "stacks", "op_matrix",
    "symbol_from_matrix", "power_iteration", "adjoint_defect_norm",
    "adjoint_defect_norms", "operator_norm", "operator_norms",
    "adjoint_symbol_remainder", "check_remainder_estimate",
]

DENSE_GUARD = 4096
_ROWS = 128      # dense-table and remainder-kernel rows built at a time


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
    t[k] for per-row times.  The operator holds no row state: ``tables(t,
    rows)`` is the one read of the tables that serve some of its rows, which
    the stepper and the norm estimators call with their live rows.  Each
    distinct symbol object caches its tables at the last time asked, and
    its rows share them; dense tables of rows at several times apply one at
    a time and are not kept.
    """

    def __init__(self, symbols, grid: Grid):
        self.symbols = [symbols] if isinstance(symbols, SymbolExpr) \
            else list(symbols)
        for s in self.symbols:
            if s.dim != grid.dim:
                raise DimensionMismatch(
                    f"symbol dim {s.dim} != grid dim {grid.dim}")
        self.grid = grid
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

    @property
    def frozen(self) -> bool:
        """Separable, and no row depends on t: the Lawson step takes the
        multiplier d of the tables' split exactly (see _Terms.split)."""
        return self.separable and not any(self._t_dep)

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
            tables = _Terms(fx, gxi, g.dim)
        else:
            tables = self._symbol_table(i, key)
        self._cache[i] = (key, tables)
        return tables

    def sup_abs(self, t: float, row: int = 0) -> tuple:
        """(sup|s|, sup|R|) of symbol ``row`` at t over the grid's nodes and
        frequencies, R the rest of _Terms.split, read from the tables: the
        bounds sum_m max|f_m| max|g_m| and sum_m max|f_m - c_m| max|g_m|
        for separable terms; on the dense path, where R = s, max|s| twice,
        read from the symbol's values (|E| = 1), so no table is built."""
        i, key = self._of[row], self._key(row, t)
        if self._terms[i] is None:
            sup = float(max(np.max(np.abs(s))
                            for _, s in self._symbol_rows(i, key)))
            return sup, sup
        tables = self._tables(i, key)
        return tuple(float(sum(
            np.max(np.abs(f_m)) * np.max(np.abs(g_m))
            for f_m, g_m in zip(tb.f, tb.g)))
            for tb in (tables, tables.split[0]))

    def _symbol_rows(self, i: int, t: float):
        """(lo, s_i(t, x_j, xi_k) for nodes j in lo:lo + _ROWS and every k)
        per block of rows, last block first; guards the dense path's size."""
        g = self.grid
        if g.size > DENSE_GUARD:
            raise TooLarge(
                f"dense quantization path guarded at {DENSE_GUARD} nodes; "
                f"grid has {g.size} (use a separable symbol)")
        pts, xi_flat = g.flat_points(), _flat_frequencies(g)
        xi = tuple(xi_flat[:, a][None, :] for a in range(g.dim))
        return ((lo, np.asarray(self._distinct[i].root.eval(t, tuple(
            pts[lo:lo + _ROWS, a][:, None] for a in range(g.dim)), xi),
            dtype=complex)) for lo in reversed(range(0, g.size, _ROWS)))

    def _symbol_table(self, i: int, t: float) -> np.ndarray:
        """S o E, S[j, k] = s_i(t, x_j, xi_k) and E[j, k] = exp(i x_j.xi_k).

        2-D M=64 is 4096^2 entries, so no second table is ever alive: the
        real phase x_j.xi_k is computed by one BLAS call (row blocks would
        round some entries differently) into the first half of the output's
        memory, and the rows become S o E _ROWS at a time from the last
        block down, each block read before complex rows are written over it.
        """
        g = self.grid
        rows = self._symbol_rows(i, t)
        out = np.empty((g.size, g.size), dtype=complex)
        phase = out.view(float).reshape(-1)[:g.size ** 2].reshape(out.shape)
        np.matmul(g.flat_points(), _flat_frequencies(g).T, out=phase)
        for lo, s in rows:
            block = 1j * phase[lo:lo + _ROWS]
            np.exp(block, out=block)
            out[lo:lo + _ROWS] = np.multiply(
                np.broadcast_to(s, block.shape), block, out=block)
        return out

    # -- application -----------------------------------------------------------
    def apply(self, t, values: np.ndarray) -> np.ndarray:
        """op(s) on the rows of ``values`` (..., *grid.shape), in a new
        array: at the scalar time t, or row k at t[k]."""
        g = self.grid
        return self.apply_spectrum(t, np.fft.fftn(values, g.shape, g.axes))

    def apply_spectrum(self, t, hat: np.ndarray) -> np.ndarray:
        """op(s) ifftn(hat), grid values, for the spectra (fftn of grid
        values) in the rows of ``hat``; t as in apply."""
        return self._rows(t, hat, _synth)

    def apply_adjoint(self, t, values: np.ndarray) -> np.ndarray:
        """Exact conjugate transpose w.r.t. the discrete L2 inner product;
        t as in apply."""
        out = self._rows(t, values, _analyse)
        return np.fft.ifftn(out, self.grid.shape, self.grid.axes, out=out)

    def _rows(self, t, v: np.ndarray, half) -> np.ndarray:
        """``half`` (_synth or _analyse) of op(s) on the rows of v, in a new
        array: all at once, or dense rows at several times one by one."""
        out = np.empty(np.shape(v), dtype=complex)
        tables = self.tables(t)
        if tables is not None:
            return half(tables, v, self.grid, out)
        for key, row, row_out in zip(self._keys(t), v, out):  # dense, by row
            half(self._tables(*key), row, self.grid, row_out)
        self._cache = [(None, None)] * len(self._distinct)  # no table is kept
        return out

    def _keys(self, t, rows=None) -> tuple:
        """(distinct symbol, table time) of each of ``rows`` (see tables)."""
        if rows is None:
            rows = range(len(self.symbols))
        if np.ndim(t) == 0:
            t = [t] * len(rows)
        if len(self.symbols) == 1:
            rows = [0] * len(t)
        return tuple((self._of[r], self._key(r, tk)) for r, tk in zip(rows, t))

    def tables(self, t, rows=None):
        """The tables that serve ``rows`` (indices into the symbols; all of
        them by default) at the scalar time t, or rows[k] at t[k]: one
        symbol's, or separable tables stacked per row; None for dense rows
        whose tables differ, which apply one at a time."""
        keys = self._keys(t, rows)
        if len(set(keys)) == 1 and (self.separable or len(keys) == 1):
            return self._tables(*keys[0])
        if not self.separable:
            return None
        if self._stacked[0] != keys:
            tabs = [self._tables(*key) for key in keys]
            self._stacked = (keys, _Terms(
                [np.stack(f) for f in zip(*(tb.f for tb in tabs))],
                [np.stack(g) for g in zip(*(tb.g for tb in tabs))],
                self.grid.dim))
        return self._stacked[1]

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
    list entry per term, on the last ``dim`` axes (a stack of rows before
    them), and, each built on its first use, their conjugates, which the
    adjoint reads, the split the adjoint defect and the stepper read, and
    the multiplier's share of the adjoint defect."""

    def __init__(self, f, g, dim):
        self.f, self.g, self.dim = f, g, dim

    @functools.cached_property
    def conj(self):
        return ([np.conjugate(f_m) for f_m in self.f],
                [np.conjugate(g_m) for g_m in self.g])

    @functools.cached_property
    def split(self):
        """(the terms (f_m - c_m) g_m of the rest R, the multiplier d =
        sum_m c_m g_m): c_m is the centre of f_m's bounding box on each row
        (the midrange of its real part plus i times that of its imaginary
        part), so op(s) is the Fourier multiplier d plus the quantized R,
        and max|f_m - c_m| is least for real f_m.  A real x-free symbol's
        R is 0 and its d real."""
        axes = tuple(range(-self.dim, 0))

        def mid(p):
            return (np.max(p, axes, keepdims=True)
                    + np.min(p, axes, keepdims=True)) / 2.0
        centres = [mid(f_m.real) + 1j * mid(f_m.imag) for f_m in self.f]
        d = sum(c * g_m for c, g_m in zip(centres, self.g))
        return (_Terms([f_m - c for f_m, c in zip(self.f, centres)], self.g,
                       self.dim), d)

    @functools.cached_property
    def skew(self):
        """d - conj(d), d the multiplier of the split."""
        d = self.split[1]
        return d - np.conjugate(d)


# The FFTs (lengths given, which spares numpy a lookup) run over the grid
# axes only, so each row of a stack meets its row of stacked separable tables
# with its one-member arithmetic, bitwise.  A dense table T = S o E takes one
# matrix-vector product per row.

def _synth(tables, hat: np.ndarray, grid: Grid, out, carry=None):
    """op(s) ifftn(hat), grid values, into ``out``: sum_m f_m ifftn(g_m hat)
    for separable terms, T (hat / N) per row for a dense table.  ``carry``,
    when given, is inverse-transformed in place (see _sum_terms)."""
    if isinstance(tables, _Terms):
        return _sum_terms(tables.g, tables.f, hat, np.fft.ifftn, grid, out,
                          carry)
    out[...] = np.stack([tables @ row for row in (
        hat / grid.size).reshape(-1, grid.size)]).reshape(out.shape)
    if carry is not None:
        np.fft.ifftn(carry, grid.shape, grid.axes, out=carry)
    return out


def _analyse(tables, values: np.ndarray, grid: Grid, out, carry=None):
    """fftn(op(s)^dagger values), a spectrum, into ``out``:
    sum_m conj(g_m) fftn(conj(f_m) values) for separable terms, T^H values
    per row for a dense table (as conj(conj(row) @ T), which copies no
    table, with conj's -0 made +0 again, so bitwise T^H @ row).  ``carry``,
    when given, is transformed in place (see _sum_terms)."""
    if isinstance(tables, _Terms):
        return _sum_terms(*tables.conj, values, np.fft.fftn, grid, out, carry)
    dense = np.stack([np.conjugate(np.conjugate(row) @ tables)
                      for row in values.reshape(-1, grid.size)])
    dense.imag += 0.0
    out[...] = dense.reshape(out.shape)
    if carry is not None:
        np.fft.fftn(carry, grid.shape, grid.axes, out=carry)
    return out


def _sum_terms(inner, outer, v, transform, grid: Grid, out, carry):
    """sum_m outer_m transform(inner_m v) into ``out``, summed from zero, as
    0 + x, which keeps the signs of zeros.  The R products are transformed
    in one call, in place unless ``out`` is real (irfftn's values), and so
    is ``carry`` (an array of v's shape, or None) as one more row, its
    transform written back into it: a caller that needs it pays no
    transform call of its own."""
    w = np.empty((len(inner) + (carry is not None),) + v.shape, dtype=complex)
    for in_m, w_m in zip(inner, w):
        np.multiply(in_m, v, out=w_m)
    if carry is not None:
        w[-1] = carry
    w = transform(w, grid.shape, grid.axes,     # irfftn's values are real
                  out=w if np.iscomplexobj(out) else None)
    out.fill(0.0)
    for out_m, w_m in zip(outer, w):
        np.multiply(out_m, w_m, out=w_m)
        np.add(out, w_m, out=out)
    if carry is not None:
        carry[...] = w[-1]
    return out


def stacks(symbols, grid: Grid):
    """(rows, PeriodicOperator) per table layout of ``symbols`` on
    ``grid``, in first-row order.  Separable symbols stack by term count
    and dependence on t, never padded with zero terms (which could flip
    signed zeros); a dense one stacks alone, so one dense table is alive at
    a time."""
    layouts = {}
    for i, s in enumerate(symbols):
        terms = ex.separable_terms(s.root)
        layouts.setdefault(-1 - i if terms is None else (
            len(terms), s.depends_t()), []).append(i)
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


def power_iteration(apply_hermitian, v, stops):
    """Largest eigenvalues of a stack of Hermitian PSD operators by one power
    iteration; ``apply_hermitian(rows, w)`` applies those of ``rows``
    (indices into the stack) to the rows of w.  Row k starts from v[k],
    normalized in place, and stops on its own test, then leaves the stack:
    its Rayleigh value reaches stops[k] (a float, or None for no such
    test), or changes by at most POWER_RTOL relative.
    Returns (eigenvalue_estimate, converged, iterations_used) per row.
    """
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
            elif (stops[i] is not None and lam[i] >= stops[i]) or (
                    lam_prev is not None and abs(lam[i] - lam_prev) <=
                    POWER_RTOL * max(abs(lam[i]), 1e-300)):
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
    """A band norm: ``value`` the power iteration's Rayleigh estimate, a
    lower end; ``upper`` a certified upper end read from the tables
    (_skew_upper, _operator_upper), or None where none is known.
    ``converged`` once value >= (1 - BRACKET_WIDTH) upper, the bracket
    closed, or value moved by at most POWER_RTOL relative."""

    value: float
    converged: bool
    iterations: int
    upper: float | None


def _start(seed, grid: Grid) -> np.ndarray:
    """A complex normal draw of grid values on ``grid`` from a fresh
    ``random.Random`` of ``seed``, a non-negative int or None (for 0): the
    same values per (seed, grid).  A seed that is not an integer is refused
    with TypeError; so is a generator object, whose state would advance
    with every estimate, so a pair estimated alone and in a stack would
    start from different draws.  The transform is Box-Muller, vectorized,
    on 53-bit uniforms u, v in (0, 1] read from the generator's bytes:
    sqrt(-2 log u) e^(2 pi i v) has independent standard normal real and
    imaginary parts."""
    try:
        seed = 0 if seed is None else operator.index(seed)
    except TypeError:
        raise TypeError("a norm estimate's seed is an int or None, "
                        f"not a {type(seed).__name__}") from None
    if seed < 0:
        raise ValueError(f"a norm estimate's seed is non-negative, not {seed}")
    n = grid.size
    bits = np.frombuffer(random.Random(seed).randbytes(16 * n), dtype="<u8")
    u = ((bits >> 11) + 1.0) * 2.0 ** -53
    r, angle = np.sqrt(-2.0 * np.log(u[:n])), (2.0 * np.pi) * u[n:]
    return (r * np.cos(angle) + 1j * (r * np.sin(angle))).reshape(grid.shape)


def _band_mask(grid: Grid) -> np.ndarray:
    """The modes with |xi| <= Nyquist / 2.  Discrete quantization aliases
    products near the unpaired Nyquist mode, so norms are measured on the
    resolved band the scenarios use; the band projector is the exact
    multiply of a spectrum by this mask."""
    mag = np.sqrt(sum(np.asarray(c) ** 2 for c in grid.xi_mesh()))
    return mag <= 0.5 * grid.max_abs_xi() + 1e-12


def _band_norms(pairs, grid: Grid, seed, gram, upper) -> list:
    """Square root of the top eigenvalue of gram(tables, hat, grid, mask), a
    Hermitian PSD product of op(s) at time t and the band projector, acting
    on a stack of spectra ``hat`` (fftn of grid values), per (s, t) in
    ``pairs``, with its upper end upper(s, tables) (a norm, or None) for
    separable tables.  One power iteration runs over the stack of each
    table layout, every row starting from the spectrum of one complex
    normal draw from ``seed``, as a one-member estimate does, and stopping
    once its estimate is within BRACKET_WIDTH of its upper end, if it has
    one; each distinct (symbol object, t) pair is estimated once and shared
    by the pairs that repeat it."""
    mask = _band_mask(grid)
    once, slot = _distinct(pairs, lambda pair: (id(pair[0]), float(pair[1])))
    out = [None] * len(once)
    for rows, stack in stacks([s for s, _ in once], grid):
        ts = [once[i][1] for i in rows]
        # the tables the first iteration reads, each (symbol, t) built once
        tables = stack.tables(ts, range(len(rows))) if stack.separable \
            else None
        tops = [None if tables is None else upper(once[i][0], _row(
            tables, k, grid)) for k, i in enumerate(rows)]
        found = power_iteration(
            lambda live, hat: gram(stack.tables([ts[k] for k in live], live),
                                   hat, grid, mask),
            np.stack([np.fft.fftn(_start(seed, grid))] * len(rows)),
            [None if top is None else ((1.0 - BRACKET_WIDTH) * top) ** 2
             for top in tops])
        for i, top, (lam, ok, used) in zip(rows, tops, found):
            out[i] = NormEstimate(math.sqrt(max(lam, 0.0)), ok, used, top)
    return [out[k] for k in slot]


def _row(tables, k: int, grid: Grid):
    """Row k of separable tables stacked per row; one symbol's tables,
    which have no row axis, serve every row."""
    if tables.f[0].ndim == grid.dim:
        return tables
    return _Terms([f_m[k] for f_m in tables.f], [g_m[k] for g_m in tables.g],
                  grid.dim)


def _x_values(tables) -> np.ndarray:
    """The grid values a(x_j) of an x-only symbol, whose xi-tables are
    constant."""
    return sum(f_m * g_m for f_m, g_m in zip(tables.f, tables.g))


def _transport_axis(g_m: np.ndarray, grid: Grid):
    """(a, kappa) when the xi-table g_m equals kappa xi_a at every grid
    frequency (linear_in_xi), else None."""
    for a, xi_a in enumerate(np.broadcast_arrays(*grid.xi_mesh())):
        kappa = linear_in_xi(g_m, xi_a)
        if kappa is not None:
            return a, kappa
    return None


def _skew_upper(s: SymbolExpr, tables, grid: Grid) -> float | None:
    """A certified upper end of ||P B P||, B = op(s) - op(s)^dagger, from
    the separable tables of s.

    An x-only s is the multiplication by a(x_j): max_j |a - conj a|.
    Otherwise each term of the split's rest R that varies in x must be
    kappa f_m(x) xi_a with kappa f_m real on the grid; those sum per axis
    to c_a, whose spectrum splits into lo (every |k_b| < M/4) and hi (the
    rest).  On the band |xi| <= M/4 nothing of lo aliases, so its share of
    P B P is the multiplication by i div c_lo, and each hi share is at most
    max|c_a,hi| times the band's largest |xi|, once from each side:
    U = max_j |sum_a d_a c_a,lo| + (M/2)(2 pi/L) sum_a max_j |c_a,hi|, plus
    the multiplier d's exact share, the band's max |d - conj d|.  None for
    any other symbol."""
    if not s.root.depends_xi():
        a = _x_values(tables)
        return float(np.max(np.abs(a - np.conjugate(a))))
    rest, d = tables.split
    coeffs = {}
    for f_m, g_m in zip(rest.f, rest.g):
        if not np.any(f_m):         # x-free: in d exactly
            continue
        found = _transport_axis(g_m, grid)
        if found is None:
            return None
        axis, kappa = found
        c = kappa * f_m
        if not np.max(np.abs(c.imag)) <= 1e-12 * np.max(np.abs(c)):
            return None
        coeffs[axis] = coeffs.get(axis, 0.0) + c
    share = float(np.max(np.abs(d - np.conjugate(d)) * _band_mask(grid)))
    if not coeffs:
        return share
    axes = sorted(coeffs)
    c = np.stack([coeffs[a] for a in axes])
    xim = np.broadcast_arrays(*grid.xi_mesh())
    k = np.rint(np.asarray(xim) * (grid.length / (2.0 * np.pi)))
    hat = np.fft.fftn(c.real, grid.shape, grid.axes) * \
        np.all(np.abs(k) < grid.points / 4.0, axis=0)
    lo = np.fft.ifftn(np.concatenate([hat, [1j * xim[a] * h for a, h in
                                            zip(axes, hat)]]),
                      grid.shape, grid.axes)      # c_a,lo, then d_a c_a,lo
    hi = np.max(np.abs(c - lo[:len(axes)]), axis=grid.axes)
    return float(np.max(np.abs(np.sum(lo[len(axes):], axis=0)))
                 + grid.max_abs_xi() * np.sum(hi) + share)


def _operator_upper(s: SymbolExpr, tables) -> float | None:
    """A certified upper end of ||P op(s) P|| for an x-only s, the
    multiplication by a(x_j): max_j |a(x_j)|; None for any other symbol."""
    if s.root.depends_xi():
        return None
    return float(np.max(np.abs(_x_values(tables))))


def _skew_spectrum(tables, hat, grid: Grid, mask):
    """P B P on the spectra ``hat``, B = op(s) - op(s)^dagger, as a new
    array.  A separable symbol's multiplier share is exact (see
    _Terms.split; its d - conj(d), _Terms.skew, is formed once per tables
    object) and its rest R is quantized: v rides along with the terms
    of R v, and R v with those of R^dagger v, so B takes one ifftn and one
    fftn call."""
    p = hat * mask
    share = None
    if isinstance(tables, _Terms):
        share = tables.skew * p                     # before p is transformed
        tables = tables.split[0]
    av = np.empty(p.shape, dtype=complex)
    _synth(tables, p, grid, av, carry=p)            # R v and v, grid values
    out = _analyse(tables, p, grid, np.empty_like(p),
                   carry=av)                        # (R^dagger v)^ and (R v)^
    np.subtract(av, out, out=out)
    if share is not None:
        np.add(out, share, out=out)
    return np.multiply(out, mask, out=out)


def _skew_gram(tables, hat, grid: Grid, mask):
    """-(P B P)^2 = (P B P)^dagger P B P, as B^dagger = -B."""
    bbv = _skew_spectrum(tables, _skew_spectrum(tables, hat, grid, mask),
                         grid, mask)
    return np.negative(bbv, out=bbv)


def _operator_gram(tables, hat, grid: Grid, mask):
    """P A^dagger P A P on the spectra ``hat``, A = op(s)."""
    shape, axes = grid.shape, grid.axes
    av = _synth(tables, hat * mask, grid, np.empty(hat.shape, dtype=complex))
    np.fft.fftn(av, shape, axes, out=av)
    np.multiply(av, mask, out=av)
    np.fft.ifftn(av, shape, axes, out=av)
    out = _analyse(tables, av, grid, np.empty_like(av))
    return np.multiply(out, mask, out=out)


def adjoint_defect_norms(pairs, grid: Grid, seed=None) -> list:
    """L2 operator norm of P(op(s) - op(s)^dagger)P at t, per (s, t) in
    ``pairs``, by power iteration on its Gram product."""
    return _band_norms(pairs, grid, seed, _skew_gram,
                       lambda s, tables: _skew_upper(s, tables, grid))


def operator_norms(pairs, grid: Grid, seed=None) -> list:
    """L2 operator norm of P op(s) P at t, per (s, t) in ``pairs``, by power
    iteration on its Gram product."""
    return _band_norms(pairs, grid, seed, _operator_gram, _operator_upper)


def adjoint_defect_norm(s: SymbolExpr, t: float, grid: Grid,
                        seed=None) -> NormEstimate:
    return adjoint_defect_norms([(s, t)], grid, seed)[0]


def operator_norm(s: SymbolExpr, t: float, grid: Grid,
                  seed=None) -> NormEstimate:
    return operator_norms([(s, t)], grid, seed)[0]


# -- oscillatory-integral adjoint remainder (desk-scale verification) --------
# The quadrature is 1-D: a symbol of any other dimension is refused.  The y
# integral is integrated by parts LAM times; there is none in eta.  The
# (y, eta) integral is truncated to a box with smooth roll-off on the outer
# 40% of each axis; eta-convergence is oscillatory and is therefore checked
# by refinement stability of the box (REFINE) rather than a shell estimate,
# while the y-tail (with its (1+y^2)^(-LAM) decay) is monitored directly.

LAM = 2             # integration-by-parts order in y (2 LAM > n = 1)
TAIL_TOL = 0.05     # largest y-shell fraction of the integrand's mass
THETA_NODES = 7     # Gauss-Legendre nodes in theta
Y_HALF, ETA_HALF = 14.0, 40.0   # the box's half-widths
BOX_POINTS = 361    # nodes per box axis, odd
REFINE = 1.4        # the refined box: half-widths and point counts (kept odd)


def _axis_quad(half: float, points: int):
    nodes = np.linspace(-half, half, points)
    w = np.full(points, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    window = plateau(nodes, 0.6 * half, half)
    return nodes, w * window, w


class _Kernel(NamedTuple):
    y: np.ndarray           # y nodes, shape (Ny, 1)
    eta: np.ndarray         # eta nodes, shape (1, Ne)
    K: np.ndarray           # exp(-i y eta) * damp * w_y * w_eta / (2 pi)
    rows: np.ndarray        # K.sum(1)
    cols: np.ndarray        # K.sum(0)
    total: complex          # K.sum()
    tail_w: np.ndarray      # damp * raw trapezoid w_y, shape (Ny, 1)
    shell: np.ndarray       # |y| > 0.8 y_half, shape (Ny, 1)


@functools.lru_cache(maxsize=2)
def _kernel(refined: bool) -> _Kernel:
    """The weighted quadrature kernel of the base box, or of the refined
    one."""
    if refined:
        y_half, eta_half = Y_HALF * REFINE, ETA_HALF * REFINE
        points = int(BOX_POINTS * REFINE) | 1
    else:
        y_half, eta_half, points = Y_HALF, ETA_HALF, BOX_POINTS
    y_nodes, y_w, y_raw = _axis_quad(y_half, points)
    e_nodes, e_w, _ = _axis_quad(eta_half, points)
    y, eta = y_nodes[:, None], e_nodes[None, :]
    y_sq = y ** 2
    damp = (1.0 + y_sq) ** (-LAM)
    e_scale = e_w / (2.0 * np.pi)
    # built _ROWS rows at a time in K's own memory, each block by the
    # operations of the one expression exp(-i (y eta)) damp w_y e_scale in
    # its order, so K and its sums are bitwise that expression's
    K = np.empty((points, points), dtype=complex)
    for lo in range(0, points, _ROWS):
        part = slice(lo, lo + _ROWS)
        block = K[part]
        np.multiply(-1j, y[part] * eta, out=block)
        np.exp(block, out=block)
        block *= damp[part]
        block *= y_w[part, None]
        block *= e_scale
    kernel = _Kernel(y, eta, K, K.sum(axis=1), K.sum(axis=0),
                     complex(K.sum()), damp * y_raw[:, None],
                     y_sq > (0.8 * y_half) ** 2)
    for arr in kernel:
        if isinstance(arr, np.ndarray):
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


def _remainder_integrand_trees(s: SymbolExpr):
    """The trees of Laplacian_xi^i applied to d_xi d_x conj(s), i = 0..LAM;
    a tuple, built once and kept on ``s``."""
    if s.dim != 1:
        raise DimensionMismatch(
            f"the remainder quadrature is 1-D; symbol dim is {s.dim}")
    if s._remainder_trees is None:
        trees = [ex.Conj(s.root).d_xi(0).d_x(0)]
        for _ in range(LAM):
            trees.append(ex.add(trees[-1].d_xi(0).d_xi(0)))
        s._remainder_trees = tuple(trees)
    return s._remainder_trees


def _tail(k: _Kernel, coeffs, vals):
    """(y-shell mass, whole mass) of the integrand sum_i c_i v_i, each
    summed over the trailing (y, eta) axes of its broadcast shape, so a
    stack of y columns over x gives one pair of masses per x.  The weights
    are the raw trapezoid ones, so the smooth roll-off cannot hide boundary
    mass, and the sums count the integrand broadcast over the full grid."""
    mag = k.tail_w * np.abs(sum(c * v for c, v in zip(coeffs, vals)))
    scale = k.K.size // (mag.shape[-2] * mag.shape[-1])
    return (np.sum(mag * k.shell, axis=(-2, -1)) * scale,
            np.sum(mag, axis=(-2, -1)) * scale)


def _r_theta(trees, t: float, xs, pairs, refined: bool, tail_report=None):
    """r_theta at the points (t, x), x in the 1-D array ``xs``: one row per
    x, one value per (xi, theta) in ``pairs``, on the base box or the
    refined one.

    ``trees`` comes from _remainder_integrand_trees.  The weighted kernel K is
    cached per box; each tree is evaluated at its natural broadcast shape
    over the (y, eta) grid, and that shape picks the contraction with K
    (_contract): a constant uses sum(K), a y-column the row sums, an
    eta-row the column sums, and only a full-grid integrand the whole K.
    A tree that reads no xi is evaluated once for the whole batch, over an
    (x, y) grid, contracted once per x and shared by every pair; a tree that
    reads xi is evaluated and contracted per (x, xi, theta), so no array of
    full (y, eta) grids over x is formed.  Each x is contracted as a lone
    point is, and the totals and the tail take a lone point's operations in
    their order, elementwise over x, so every value is bitwise the
    one-point value.

    ``tail_report``, when given, gains per pair (shell, total): the y-shell
    and the whole mass of the integrand, each an array over x.
    """
    k = _kernel(refined)
    xs = np.asarray(xs, dtype=float)
    free = {}       # index of a tree that reads no xi -> (value, contraction)
    for i, tr in enumerate(trees):
        if not tr.depends_xi():
            v = np.asarray(tr.eval(t, (xs[:, None, None] + k.y,), (k.eta,)))
            free[i] = (v, _contract(k, v) if v.ndim == 0 else
                       np.array([_contract(k, row) for row in v]))
    out = np.empty((xs.size, len(pairs)), dtype=complex)
    for j, (xi, theta) in enumerate(pairs):
        # (1 - Lap_eta)^LAM = sum_i C(LAM,i) (-Lap_eta)^i and Lap_eta =
        # theta^2 Lap_xi, so each term carries (-theta^2)^i.
        coeffs = [math.comb(LAM, i) * (-theta * theta) ** i
                  for i in range(LAM + 1)]
        kvs = [free[i][1] if i in free else np.empty(xs.size, dtype=complex)
               for i in range(len(trees))]
        if len(free) < len(trees):
            shell, total = np.empty(xs.size), np.empty(xs.size)
            xi_args = (xi + theta * k.eta,)
            for n, x in enumerate(xs):
                vals = []
                for i, tr in enumerate(trees):
                    if i in free:
                        v = free[i][0]
                        vals.append(v if v.ndim == 0 else v[n])
                    else:
                        vals.append(np.asarray(tr.eval(t, (x + k.y,),
                                                       xi_args)))
                        kvs[i][n] = _contract(k, vals[-1])
                if tail_report is not None:
                    shell[n], total[n] = _tail(k, coeffs, vals)
        elif tail_report is not None:
            # no integrand reads xi: one tail over the whole batch
            shell, total = (np.broadcast_to(mass, xs.shape) for mass in
                            _tail(k, coeffs, [v for v, _ in free.values()]))
        if tail_report is not None:
            tail_report.append((shell, total))
        out[:, j] = 0.0 + 0.0j + sum(c * kv for c, kv in zip(coeffs, kvs))
    return out


def adjoint_symbol_remainder(s: SymbolExpr, t: float, x: float | np.ndarray,
                             xi: float) -> complex | np.ndarray:
    """Symbol-level adjoint correction: op(s)^dagger has symbol
    conj(s) + remainder, with the remainder of the 1-D symbol s evaluated
    here by regularized quadrature over the base (y, eta) box and
    Gauss-Legendre in theta.  ``x`` is a number, for which the remainder is
    a complex, or a 1-D array of points, for which it is an array, each
    entry bitwise that point's remainder.  BoxTooSmall reports the first
    point, in order, whose y shell holds more than TAIL_TOL of the mass.

    Verified convention (matches the dense-matrix adjoint oracle): for
    s = c(x) xi the remainder equals -i c'(x).
    """
    trees = _remainder_integrand_trees(s)
    nodes, weights = _gl_nodes(THETA_NODES)
    thetas = 0.5 * (nodes + 1.0)
    tw = 0.5 * weights
    tails = []
    values = _r_theta(trees, t, np.atleast_1d(x),
                      [(float(xi), float(theta)) for theta in thetas], False,
                      tail_report=tails)
    shell = sum(a for a, _ in tails)
    total = sum(b for _, b in tails)
    for part, whole in zip(shell, total):
        if whole > 0 and part / whole > TAIL_TOL:
            raise BoxTooSmall(
                f"y-shell fraction {part / whole:.3f} exceeds {TAIL_TOL}")
    acc = 0.0 + 0.0j
    for w, column in zip(tw, values.T):
        acc = acc + w * column
    remainder = -1j * acc
    return complex(remainder[0]) if np.ndim(x) == 0 else remainder


def check_remainder_estimate(s: SymbolExpr, length: float,
                             refined: bool = False) -> dict:
    """Compare the remainder of the 1-D symbol s against the semi-norm side.

    lhs = max over sampled (x, xi, theta) at t = 0 of |r_theta|, on the
          base (y, eta) box or the refined one;
    rhs = Q^m_{0,3,3}(s), m the declared order of s;
    both sampled on [0, length] x {|xi| <= 64}, length that of the grid s
    lives on; box-uniformity shows up as stability of the reported ratio
    under refinement.
    """
    trees = _remainder_integrand_trees(s)
    box = SampleBox(1, length, x_count=9, xi_max=64.0, xi_uniform_count=5)
    pairs = [(xi, float(theta)) for xi in (0.0, 1.0, 4.0, 16.0, 64.0)
             for theta in np.linspace(0.0, 1.0, 5)]
    values = _r_theta(trees, 0.0, box.x_points()[:, 0], pairs, refined)
    # np.max keeps a NaN (max(0.0, nan) is 0.0); abs of each value, as
    # numpy's vectorized complex abs can differ from hypot in the last bit
    lhs = float(np.max([abs(v) for v in values.flat]))
    rhs = seminorm_Q(s, 0, 3, 3, box)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return {"lhs": lhs, "rhs_seminorm": rhs, "ratio": ratio}
