"""Differentiable expression trees for operator symbols a(t, x, xi).

Trees evaluate vectorized over numpy arrays and differentiate exactly by
tree rewriting: the derivative of a node is another tree, so arbitrary mixed
(t, x, xi) derivative orders stay closed-form.  Finite differences appear
nowhere in this module.

Evaluation contract: ``eval(t, x, xi)`` takes a scalar time, a tuple of
spatial coordinate arrays and a tuple of frequency coordinate arrays, already
shaped to broadcast against each other, and returns an array of the broadcast
shape.
"""

from __future__ import annotations

import numpy as np

from . import profiles


def _real_argument(v):
    """Coerce a child value to real, rejecting genuinely complex inputs."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        scale = 1.0 + float(np.max(np.abs(v.real))) if v.size else 1.0
        if v.size and float(np.max(np.abs(v.imag))) > 1e-12 * scale:
            raise TypeError("profile nodes require real-valued children")
        return v.real
    return v


class Expr:
    """Base node. Subclasses implement eval and the derivative map ``d``.

    A differentiation variable is ``("t", 0)``, ``("x", axis)`` or
    ``("xi", axis)``.
    """

    __slots__ = ("_deps",)

    def eval(self, t, x, xi):
        raise NotImplementedError

    def d(self, var) -> "Expr":
        raise NotImplementedError

    def d_t(self) -> "Expr":
        return self.d(("t", 0))

    def d_x(self, axis: int) -> "Expr":
        return self.d(("x", axis))

    def d_xi(self, axis: int) -> "Expr":
        return self.d(("xi", axis))

    def children(self):
        return ()

    # -- dependence flags (t, x, xi), cached per node -----------------------
    def deps(self):
        try:
            return self._deps
        except AttributeError:
            dep = self._own_deps()
            for c in self.children():
                cd = c.deps()
                dep = (dep[0] or cd[0], dep[1] or cd[1], dep[2] or cd[2])
            self._deps = dep
            return dep

    def _own_deps(self):
        return (False, False, False)

    def depends_t(self):
        return self.deps()[0]

    def depends_x(self):
        return self.deps()[1]

    def depends_xi(self):
        return self.deps()[2]


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def eval(self, t, x, xi):
        return self.value

    def d(self, var):
        return ZERO


ZERO = Const(0.0)
ONE = Const(1.0)
SEPARABLE_CAP = 64     # most terms of a decomposition separable_terms returns


class CoordT(Expr):
    __slots__ = ()

    def eval(self, t, x, xi):
        return np.asarray(t, dtype=float)

    def _own_deps(self):
        return (True, False, False)

    def d(self, var):
        return ONE if var[0] == "t" else ZERO


class CoordX(Expr):
    __slots__ = ("axis",)

    def __init__(self, axis: int = 0):
        self.axis = int(axis)

    def eval(self, t, x, xi):
        return x[self.axis]

    def _own_deps(self):
        return (False, True, False)

    def d(self, var):
        return ONE if var == ("x", self.axis) else ZERO


class CoordXi(Expr):
    __slots__ = ("axis",)

    def __init__(self, axis: int = 0):
        self.axis = int(axis)

    def eval(self, t, x, xi):
        return xi[self.axis]

    def _own_deps(self):
        return (False, False, True)

    def d(self, var):
        return ONE if var == ("xi", self.axis) else ZERO


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0


def add(*terms) -> Expr:
    """Sum constructor that flattens and folds constants."""
    flat = []
    const = 0j
    for term in terms:
        if isinstance(term, Sum):
            flat.extend(term.terms)
        elif isinstance(term, Const):
            const += term.value
        else:
            flat.append(term)
    if const != 0:
        flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> Expr:
    """Product constructor that flattens, folds constants, kills zeros."""
    flat = []
    const = 1 + 0j
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        elif isinstance(f, Const):
            const *= f.value
        else:
            flat.append(f)
    if const == 0:
        return ZERO
    if const != 1:
        flat.insert(0, Const(const))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(flat)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = list(terms)

    def children(self):
        return self.terms

    def eval(self, t, x, xi):
        out = self.terms[0].eval(t, x, xi)
        for term in self.terms[1:]:
            out = out + term.eval(t, x, xi)
        return out

    def d(self, var):
        return add(*(c.d(var) for c in self.terms))


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = list(factors)

    def children(self):
        return self.factors

    def eval(self, t, x, xi):
        out = self.factors[0].eval(t, x, xi)
        for f in self.factors[1:]:
            out = out * f.eval(t, x, xi)
        return out

    def d(self, var):
        terms = []
        for i, f in enumerate(self.factors):
            df = f.d(var)
            if _is_zero(df):
                continue
            terms.append(mul(*self.factors[:i], df, *self.factors[i + 1:]))
        return add(*terms)


class Power(Expr):
    """Integer power with exponent >= 0."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if exponent < 0 or int(exponent) != exponent:
            raise ValueError("power exponent must be a nonnegative integer")
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)

    def eval(self, t, x, xi):
        return np.asarray(self.base.eval(t, x, xi)) ** self.exponent

    def d(self, var):
        db = self.base.d(var)
        if self.exponent == 0 or _is_zero(db):
            return ZERO
        return mul(Const(self.exponent), Power(self.base, self.exponent - 1), db)


class Sin(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def children(self):
        return (self.child,)

    def eval(self, t, x, xi):
        return np.sin(self.child.eval(t, x, xi))

    def d(self, var):
        return mul(Cos(self.child), self.child.d(var))


class Cos(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def children(self):
        return (self.child,)

    def eval(self, t, x, xi):
        return np.cos(self.child.eval(t, x, xi))

    def d(self, var):
        return mul(Const(-1), Sin(self.child), self.child.d(var))


class _ProfileNode(Expr):
    """profile((child - loc)/width), differentiated by the chain rule; order
    tracks how many profile derivatives tree differentiation has taken.
    Subclasses fix the profile, the JSON node name and the location key."""

    __slots__ = ("child", "loc", "width", "order")

    def __init__(self, child: Expr, loc: float, width: float, order: int):
        if width <= 0:
            raise ValueError(f"{self.node} width must be positive")
        self.child = child
        self.loc = float(loc)
        self.width = float(width)
        self.order = int(order)

    def children(self):
        return (self.child,)

    def eval(self, t, x, xi):
        v = _real_argument(self.child.eval(t, x, xi))
        return self.profile((v - self.loc) / self.width, self.order)

    def d(self, var):
        dc = self.child.d(var)
        if _is_zero(dc):
            return ZERO
        higher = type(self)(self.child, self.loc, self.width, self.order + 1)
        return mul(Const(1.0 / self.width), higher, dc)


class SmoothBump(_ProfileNode):
    """psi((child - center)/width) with psi the unit bump."""

    __slots__ = ()
    node, loc_key, profile = "smooth_bump", "center", staticmethod(profiles.bump)

    def __init__(self, child: Expr, center: float = 0.0, width: float = 1.0,
                 order: int = 0):
        super().__init__(child, center, width, order)


class SmoothStep(_ProfileNode):
    """Decreasing smooth step in the child value: 1 below ``edge``, 0 above
    ``edge + width``."""

    __slots__ = ()
    node, loc_key, profile = "smooth_step", "edge", staticmethod(profiles.step)

    def __init__(self, child: Expr, edge: float = 1.0, width: float = 1.0,
                 order: int = 0):
        super().__init__(child, edge, width, order)


class JapaneseBracket(Expr):
    """<xi>^order = (1 + |xi|^2)^(order/2), order real (possibly negative)."""

    __slots__ = ("order",)

    def __init__(self, order: float):
        self.order = float(order)

    def eval(self, t, x, xi):
        mag2 = 0.0
        for comp in xi:
            mag2 = mag2 + np.asarray(comp) ** 2
        return (1.0 + mag2) ** (self.order / 2.0)

    def _own_deps(self):
        return (False, False, True)

    def d(self, var):
        if var[0] != "xi":
            return ZERO
        return mul(Const(self.order), CoordXi(var[1]),
                   JapaneseBracket(self.order - 2.0))


class MollifiedCoeff(Expr):
    """Rough spatial coefficient convolved with a scaled mollifier along one
    axis.  Differentiation in x lands on the mollifier (exact), so the node
    only tracks a derivative order; t- and xi-derivatives vanish."""

    __slots__ = ("coeff", "axis", "order")

    def __init__(self, coeff, axis: int = 0, order: int = 0):
        self.coeff = coeff  # regularization.MollifiedCoefficient
        self.axis = int(axis)
        self.order = int(order)

    def eval(self, t, x, xi):
        return self.coeff.eval(np.asarray(x[self.axis], dtype=float), self.order)

    def _own_deps(self):
        return (False, True, False)

    def d(self, var):
        if var != ("x", self.axis):
            return ZERO
        return MollifiedCoeff(self.coeff, self.axis, self.order + 1)


class Conj(Expr):
    """Complex conjugate; commutes with real-coordinate differentiation."""

    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child

    def children(self):
        return (self.child,)

    def eval(self, t, x, xi):
        return np.conjugate(self.child.eval(t, x, xi))

    def d(self, var):
        return Conj(self.child.d(var))


def separable_terms(e: Expr):
    """Decompose e into a list of (x_part, xi_part) factor pairs, or None.

    Time dependence may sit in either factor (t is a scalar parameter at
    application time).  Returns None when no decomposition with at most
    SEPARABLE_CAP terms was found; callers then fall back to the dense path.
    """
    if not e.depends_x():
        return [(ONE, e)]
    if not e.depends_xi():
        return [(e, ONE)]
    if isinstance(e, Sum):
        out = []
        for term in e.terms:
            sub = separable_terms(term)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > SEPARABLE_CAP:
                return None
        return out
    if isinstance(e, Product):
        x_only, xi_only, mixed = [], [], []
        for f in e.factors:
            fx, fxi = f.depends_x(), f.depends_xi()
            if fx and fxi:
                mixed.append(f)
            elif fx:
                x_only.append(f)
            else:
                xi_only.append(f)
        terms = [(mul(*x_only) if x_only else ONE,
                  mul(*xi_only) if xi_only else ONE)]
        for f in mixed:
            sub = separable_terms(f)
            if sub is None:
                return None
            terms = [(mul(ax, bx), mul(ay, by))
                     for ax, ay in terms for bx, by in sub]
            if len(terms) > SEPARABLE_CAP:
                return None
        return terms
    if isinstance(e, Power):
        sub = separable_terms(e.base)
        if sub is not None and len(sub) == 1:
            bx, bxi = sub[0]
            return [(Power(bx, e.exponent), Power(bxi, e.exponent))]
        return None
    if isinstance(e, Conj):
        sub = separable_terms(e.child)
        if sub is None:
            return None
        return [(Conj(a), Conj(b)) for a, b in sub]
    return None


_LEAF_PARSERS = {
    "coord_t": lambda d: CoordT(),
    "coord_x": lambda d: CoordX(d.get("axis", 0)),
    "coord_xi": lambda d: CoordXi(d.get("axis", 0)),
    "japanese_bracket": lambda d: JapaneseBracket(d["order"]),
}


_PROFILE_NODES = {cls.node: cls for cls in (SmoothBump, SmoothStep)}

# The keys each node kind reads besides "node"; any other key is refused.
_NODE_KEYS = {
    "constant": {"re", "im"}, "coord_t": set(), "coord_x": {"axis"},
    "coord_xi": {"axis"}, "japanese_bracket": {"order"},
    "sum": {"children"}, "product": {"children"},
    "power": {"base", "exponent"}, "sin": {"child"}, "cos": {"child"},
    "conj": {"child"},
    **{name: {"child", cls.loc_key, "width"}
       for name, cls in _PROFILE_NODES.items()},
}


def from_json(data: dict) -> Expr:
    """Parse the tagged-union JSON form into a tree."""
    node = data["node"]
    if node not in _NODE_KEYS:
        raise ValueError(f"unknown expression node {node!r}")
    unread = sorted(set(data) - _NODE_KEYS[node] - {"node"})
    if unread:
        raise ValueError(f"expression node {node!r} does not read "
                         f"{', '.join(map(repr, unread))}")
    if node == "constant":
        return Const(complex(data.get("re", 0.0), data.get("im", 0.0)))
    if node in _LEAF_PARSERS:
        return _LEAF_PARSERS[node](data)
    if node == "sum":
        return add(*(from_json(c) for c in data["children"]))
    if node == "product":
        return mul(*(from_json(c) for c in data["children"]))
    if node == "power":
        return Power(from_json(data["base"]), data["exponent"])
    if node == "sin":
        return Sin(from_json(data["child"]))
    if node == "cos":
        return Cos(from_json(data["child"]))
    if node == "conj":
        return Conj(from_json(data["child"]))
    # smooth_bump or smooth_step, the node kinds left
    cls = _PROFILE_NODES[node]
    kwargs = {k: data[k] for k in (cls.loc_key, "width") if k in data}
    return cls(from_json(data["child"]), **kwargs)
