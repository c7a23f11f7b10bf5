"""Jet-space bookkeeping: total derivatives and prolongation of point
vector fields.  D_x is `expr._derive`, the one derivation behind
`differentiate` too, with x -> 1 and y_j^(k) -> y_j^(k+1)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    _ONE_TERMS, DEP, JET, Expression, Symbol, _derive, _dot,
    default_dep_names, dep, differentiate, indep, jet, one, sym, zero,
)

__all__ = ["JetContext", "VectorField", "ProlongedField",
           "total_derivative", "prolong", "JetOrderError"]


class JetOrderError(ValueError):
    """A jet derivative exceeded the context's order cap."""


@dataclass(frozen=True)
class JetContext:
    """m dependent variables of one independent variable, with jet
    coordinates up to a maximal order."""

    m: int
    order: int
    indep_name: str = "x"
    dep_names: tuple = ()

    def __post_init__(self):
        if self.m < 1 or self.order < 1:
            raise ValueError("need m >= 1 and order >= 1")
        names = self.dep_names or default_dep_names(self.m)
        if len(names) != self.m:
            raise ValueError("expected %d dependent names" % self.m)
        object.__setattr__(self, "dep_names", tuple(names))

    @property
    def x(self) -> Symbol:
        return indep(self.indep_name)

    def y(self, j: int) -> Symbol:
        return dep(j, self.dep_names[j - 1])

    def jet(self, j: int, k: int) -> Symbol:
        return jet(j, k, self.dep_names[j - 1])

    def point_symbols(self):
        return [self.x] + [self.y(j) for j in range(1, self.m + 1)]


@dataclass(frozen=True)
class VectorField:
    """A point vector field xi d/dx + sum_j phi_j d/dy_j."""

    xi: Expression
    phi: tuple
    context: JetContext

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        if len(self.phi) != self.context.m:
            raise ValueError("expected %d phi components" % self.context.m)
        for comp in (self.xi,) + self.phi:
            if comp.max_jet_order() > 0:
                raise ValueError(
                    "point vector field components may depend only on x "
                    "and zeroth-order jet variables")

    def components(self) -> tuple:
        return (self.xi,) + self.phi

    def apply_to(self, e: Expression) -> Expression:
        """The field acting as a derivation on a function of the point
        coordinates."""
        ctx = self.context
        return _dot([(self.xi, differentiate(e, ctx.x))]
                    + [(self.phi[j - 1], differentiate(e, ctx.y(j)))
                       for j in range(1, ctx.m + 1)])

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.context != other.context:
            raise ValueError("context mismatch")
        return VectorField(self.xi + other.xi,
                           tuple(a + b for a, b in zip(self.phi, other.phi)),
                           self.context)

    def scale(self, c) -> "VectorField":
        c = Fraction(c)
        return VectorField(self.xi * c, tuple(p * c for p in self.phi),
                           self.context)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1)


@dataclass(frozen=True)
class ProlongedField:
    """A point vector field together with its prolongation coefficients
    phi_j^(k) for k = 0..p.

    For p >= 2 the top coefficients are affine in the top jets:
    phi_j^(p) = E_j + sum_k y_k^(p) G_jk.  When xi and every coefficient
    are polynomials (denominator one), `top_split` holds the pairs
    (E_j, (G_j1, .., G_jm)) for j = 1..m, so that substituting a solved
    form y_k^(p) = F_k into phi_j^(p) is one sum of products; otherwise
    it is None."""

    base: VectorField
    p: int
    coefficients: dict
    top_split: tuple = None

    def coeff(self, j: int, k: int) -> Expression:
        return self.coefficients[(j, k)]

    def apply_to(self, e: Expression) -> Expression:
        ctx = self.base.context
        return _dot([(self.base.xi, differentiate(e, ctx.x))]
                    + [(self.coeff(j, k), differentiate(e, ctx.jet(j, k)))
                       for j in range(1, ctx.m + 1)
                       for k in range(0, self.p + 1)])


def total_derivative(e: Expression, ctx: JetContext) -> Expression:
    """D_x e = de/dx + sum_{j,k} y_j^(k+1) de/dy_j^(k)."""
    return _total_derivative(e, ctx, {})


def _total_derivative(e: Expression, ctx: JetContext, memo: dict) -> Expression:
    """`total_derivative`, with the total derivatives of atoms kept in
    memo, which callers may share between expressions of one context.
    Every symbol but x and the context's own jets is a constant."""
    if e.max_jet_order() > ctx.order:
        raise JetOrderError(
            "total derivative would exceed jet order %d" % (ctx.order + 1))

    def dsym(a):
        if a == ctx.x:
            return one()
        if a.kind in (DEP, JET) and 1 <= a.index <= ctx.m \
                and a == ctx.jet(a.index, a.order):
            return sym(ctx.jet(a.index, a.order + 1))
        return zero()

    return _derive(e, dsym, memo)


def prolong(v: VectorField, p: int) -> ProlongedField:
    """The p-th prolongation, via the recursion
    phi^(k+1) = D_x phi^(k) - y^(k+1) D_x xi.  The total derivatives of
    atoms are taken once per call.  No order is refused: the work grows
    with p and, for a rational field, with the size of each D_x."""
    if p < 1:
        raise ValueError("prolongation order must be >= 1")
    ctx = v.context
    work = ctx if ctx.order >= p else JetContext(
        ctx.m, p, ctx.indep_name, ctx.dep_names)
    coeffs = {}
    memo = {}
    dxi = _total_derivative(v.xi, work, memo)
    for j in range(1, ctx.m + 1):
        coeffs[(j, 0)] = v.phi[j - 1]
        for k in range(0, p):
            coeffs[(j, k + 1)] = (_total_derivative(coeffs[(j, k)], work, memo)
                                  - sym(work.jet(j, k + 1)) * dxi)
    return ProlongedField(v, p, coeffs, _top_split(v, p, coeffs, work))


def _top_split(v: VectorField, p: int, coeffs: dict, ctx: JetContext):
    """The pairs (E_j, (G_j1, .., G_jm)) with phi_j^(p) = E_j +
    sum_k y_k^(p) G_jk, from one pass over the terms of each phi_j^(p):
    a term without a top jet goes to E_j, a term with one to G_jk with
    that factor sliced out of its sorted monomial.  None when p < 2 (the
    first prolongation is quadratic in y'), or when a component or
    coefficient is not a polynomial.  For p >= 2 every term is affine in
    the top jets: only D_x of a jet of order p - 1 makes y^(p)."""
    if p < 2 or any(c.den != _ONE_TERMS for c in (v.xi, *coeffs.values())):
        return None
    top = {ctx.jet(k, p): k for k in range(1, ctx.m + 1)}
    split = []
    for j in range(1, ctx.m + 1):
        rest = []
        parts = [{} for _ in range(ctx.m)]
        for mon, c in coeffs[(j, p)].num:
            for i, (a, _e) in enumerate(mon):
                if a in top:
                    parts[top[a] - 1][mon[:i] + mon[i + 1:]] = c
                    break
            else:
                rest.append((mon, c))
        split.append((Expression(tuple(rest), _ONE_TERMS),
                      tuple(Expression._make(g, _ONE_TERMS) for g in parts)))
    return tuple(split)
