"""Factories for the concrete objects of the theory: the free-fall
symmetry algebra, the iterative-equation machinery, the isotropic normal
form (the `LinearSystemSpec` of the A_n^j I) and its canonical basis,
the non-Cartan generators, and the nonlinear family admitting them."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .expr import (
    PARAM, Call, Expression, RewriteRule, Symbol, _dot, _fresh_params, call,
    const, differentiate, func, indep, is_zero, one, sym, zero,
)
from .jet import JetContext, VectorField, total_derivative
from .symmetry import LinearSystemSpec, OdeSystem, PointTransformation

__all__ = [
    "SourceEquation", "IterativeOperator", "NormalFormCoefficients",
    "free_fall_symmetries", "canonical_basis", "non_cartan_generators",
    "iterative_power", "normalize_s",
    "normal_form_coeffs", "source_solution_basis", "isotropic_system",
    "reduction_transformation", "non_cartan_family",
    "nonlinear_counterexample", "c1_symmetry_pde_residual",
    "scalar_context",
]


def scalar_context(order: int = 2) -> JetContext:
    return JetContext(1, order, dep_names=("y",))


# the source equations and the normal-form tables are pure in their
# arguments: each is built once per process, up to this many of each
_TABLE_CACHE_SIZE = 16


# ---------------------------------------------------------------------------
# The source equation y'' + q y = 0 and its solution pair


@dataclass(frozen=True)
class SourceEquation:
    """A pair (u, v) of formal solutions of y'' + q y = 0 with Wronskian
    normalized to one, plus the rewrite rules they induce; every
    constructor builds through the cached `_source`."""

    q: Expression
    u: Expression
    v: Expression
    rules: tuple
    x: Symbol

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if not is_zero(self.wronskian() - 1, self.rules):
            raise ValueError("Wronskian is not normalized to one")
        if not is_zero(self.d(self.u, 2) + self.q * self.u, self.rules):
            raise ValueError("u does not satisfy the source equation")

    def d(self, e: Expression, k: int = 1) -> Expression:
        for _ in range(k):
            e = differentiate(e, self.x)
        return e

    def wronskian(self) -> Expression:
        return self.u * self.d(self.v) - self.d(self.u) * self.v

    @staticmethod
    def symbolic(avoid=()) -> "SourceEquation":
        """The source equation of an opaque q(x); the solution pair is
        named u, v unless a name in `avoid` or q calls one of those."""
        return _source(call(func("q"), sym(indep())), frozenset(avoid))

    @staticmethod
    def for_q(q: Expression) -> "SourceEquation":
        """Source equation for a given coefficient q(x); the trivial
        solution pair (1, x) is used when q is zero."""
        return _source(q, frozenset())

    @staticmethod
    def trivial() -> "SourceEquation":
        return _source(zero(), frozenset())


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _source(q: Expression, avoid: frozenset) -> SourceEquation:
    """The source equation of q, built and checked once per (q, avoid):
    the pair (1, x) when q is zero, else opaque u(x), v(x), renamed apart
    from the names in `avoid` and from the functions that q calls."""
    x = indep()
    ex = sym(x)
    if q.is_rational_zero():
        return SourceEquation(q, one(), ex, (), x)
    taken = {a.head.name for a in q.atoms() if isinstance(a, Call)} | avoid
    un, vn = "u", "v"
    while un in taken or vn in taken:
        un, vn = un + "_", vn + "_"
    u = call(func(un), ex)
    v = call(func(vn), ex)
    up = call(func(un, 1, (1,)), ex)
    rules = (
        RewriteRule(func(un, 1, (2,)), -q * u, x),
        RewriteRule(func(vn, 1, (2,)), -q * v, x),
        # Wronskian elimination, used during zero testing
        RewriteRule(func(vn, 1, (1,)), (1 + up * v) / u, x),
    )
    return SourceEquation(q, u, v, rules, x)


def source_solution_basis(src: SourceEquation, n: int) -> list:
    """The n independent solutions s_k = u^(n-1-k) v^k of the normal
    form of order n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [src.u ** (n - 1 - k) * src.v ** k for k in range(n)]


# ---------------------------------------------------------------------------
# Iterative operator machinery


@dataclass(frozen=True)
class IterativeOperator:
    """The first-order operator r d/dx + s."""

    r: Expression
    s: Expression

    def apply(self, e: Expression, ctx: JetContext) -> Expression:
        return self.r * total_derivative(e, ctx) + self.s * e

    def power_applied(self, n: int, ctx: JetContext = None) -> Expression:
        ctx = ctx or scalar_context(n)
        e = sym(ctx.y(1))
        for _ in range(n):
            e = self.apply(e, ctx)
        return e


def iterative_power(op: IterativeOperator, n: int) -> OdeSystem:
    """The scalar equation Omega^n[y] = 0 in solved form (divided by the
    leading coefficient r^n)."""
    if op.r.is_rational_zero():
        raise ValueError("operator coefficient r must be nonzero")
    ctx = scalar_context(n)
    expanded = op.power_applied(n, ctx)
    top = sym(ctx.jet(1, n))
    lead = differentiate(expanded, ctx.jet(1, n))
    rest = expanded - lead * top
    return OdeSystem(ctx, (-rest / lead,))


def normalize_s(r: Expression, n: int) -> Expression:
    """The unique s making the y^(n-1) coefficient of Omega^n[y] vanish,
    for Omega = r d/dx + s with r a nonzero function of x: s = -(n-1) r'/2.

    Proof: Omega^k[y] = r^k y^(k) + r^(k-1) b_k y^(k-1) + (lower), with
    b_1 = s.  Applying Omega once more, r D(r^k y^(k)) gives k r^k r'
    y^(k), r D(r^(k-1) b_k y^(k-1)) gives r^k b_k y^(k), and s r^k y^(k)
    is the last contribution, so b_(k+1) = b_k + k r' + s.  Hence
    b_n = n s + n (n-1) r'/2, which vanishes exactly at the s above."""
    if n < 2:
        raise ValueError("need n >= 2")
    x = indep()
    if r.is_rational_zero() or any(isinstance(a, Symbol) and a != x
                                   and a.kind != PARAM for a in r.atoms()):
        raise ValueError("r must be a nonzero function of x alone")
    return const(Fraction(1 - n, 2)) * differentiate(r, x)


@dataclass(frozen=True)
class NormalFormCoefficients:
    """Coefficients A_n^2 .. A_n^n of the order-n normal form, as
    differential polynomials in q."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.n - 1:
            raise ValueError("expected %d coefficients" % (self.n - 1))

    def coefficient(self, j: int) -> Expression:
        """A_n^j for j = 2..n."""
        if not 2 <= j <= self.n:
            raise ValueError("need 2 <= j <= %d, got %d" % (self.n, j))
        return self.coeffs[j - 2]


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def normal_form_coeffs(src: SourceEquation, n: int) -> NormalFormCoefficients:
    """The A_n^j as the coefficients of the (n-1)-th symmetric power of
    D^2 + q: with L_0 = 1, L_1 = D and L_(k+1) = D o L_k + k(n-k) q L_(k-1),
    A_n^j is the coefficient of D^(n-j) in L_n = D^n + sum_j A_n^j D^(n-j).

    Proof: for a solution w of w'' + q w = 0 put
    f_k = (n-1)!/(n-1-k)! w^(n-1-k) w'^k, so f_0 = w^(n-1) and f_n = 0.
    Differentiating with w'' = -q w gives
    f_k' = f_(k+1) - k(n-k) q f_(k-1), so L_k[w^(n-1)] = f_k by induction
    and L_n annihilates w^(n-1).  The powers (a u + b v)^(n-1) span the
    s_k = u^(n-1-k) v^k, so L_n[s_k] = 0 for every k.

    The table is built once per process for each (src, n), and checked
    with `_check_annihilates` on that first build."""
    if n < 2:
        raise ValueError("need n >= 2")
    x, q = src.x, src.q
    # L_(k-1) and L_k as their coefficients, lowest power of D first
    prev, cur = [one()], [zero(), one()]
    for k in range(1, n):
        nxt = [zero()] + cur
        for i, c in enumerate(cur):
            nxt[i] = nxt[i] + differentiate(c, x)
        for i, c in enumerate(prev):
            nxt[i] = nxt[i] + k * (n - k) * q * c
        prev, cur = cur, nxt
    result = NormalFormCoefficients(n, (cur[n - j] for j in range(2, n + 1)))
    _check_annihilates(src, result)
    return result


def _check_annihilates(src: SourceEquation,
                       nf: NormalFormCoefficients) -> None:
    """Raise InconsistentSystemError unless L_n = D^n + sum_j A_n^j D^(n-j)
    annihilates every s_k under the rules of src, checked once on
    s = sum_k t_k s_k with parameters t_k that no atom of src or of the
    coefficients carries: L_n is linear, so L_n[s] = sum_k t_k L_n[s_k]
    is zero iff every L_n[s_k] is."""
    n = nf.n
    basis = source_solution_basis(src, n)
    ts = _fresh_params(n, basis + list(nf.coeffs)
                       + [r.replacement for r in src.rules])
    chain = [_dot(zip(map(sym, ts), basis))]
    for _ in range(n):
        chain.append(differentiate(chain[-1], src.x))
    resid = sum((c * chain[n - j] for j, c in enumerate(nf.coeffs, 2)),
                chain[n])
    if not is_zero(resid, src.rules):
        raise linalg.InconsistentSystemError(
            "normal-form coefficients fail to annihilate s_k")


def isotropic_system(src: SourceEquation, ctx: JetContext) -> OdeSystem:
    """The canonical-class normal form in ctx: ctx.m copies of the
    iterative equation y^(n) + sum_j A_n^j y^(n-j) = 0 of order
    n = ctx.order: the `LinearSystemSpec` of the A_n^j I, A_n^1 = 0."""
    _check_same_x(src, ctx)
    m, n = ctx.m, ctx.order
    scalars = (zero(),) + normal_form_coeffs(src, n).coeffs
    return LinearSystemSpec(m, n, tuple(
        tuple(tuple(c if i == j else zero() for j in range(m))
              for i in range(m)) for c in scalars), ctx).ode_system(src.rules)


def _check_same_x(src: SourceEquation, ctx: JetContext) -> None:
    if ctx.x != src.x:
        raise ValueError("context variable %s is not the source equation's "
                         "variable %s" % (ctx.x.name, src.x.name))


# ---------------------------------------------------------------------------
# Symmetry catalogs


def free_fall_symmetries(ctx: JetContext = None) -> list:
    """The eight generators of the symmetry algebra of y'' = 0, in the
    order S1, S2, F_z, F_m, F_p, H, C1, C2."""
    ctx = ctx or scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    z = zero()
    mk = lambda xi, phi: VectorField(xi, (phi,), ctx)
    return [
        mk(z, one()),            # S1
        mk(z, x),                # S2
        mk(2 * x, y),            # F_z
        mk(one(), z),            # F_m
        mk(x ** 2, x * y),       # F_p
        mk(z, y),                # H
        mk(y, z),                # C1
        mk(x * y, y ** 2),       # C2
    ]


def canonical_basis(src: SourceEquation, ctx: JetContext) -> list:
    """The m^2 + n*m + 3 generators H_ij, S_kj, F_p, F_m, F_z of the
    symmetry algebra of the isotropic normal form, in ctx, with
    m = ctx.m and n = ctx.order."""
    m, n = ctx.m, ctx.order
    if n < 2:
        raise ValueError("need order n >= 2")
    _check_same_x(src, ctx)
    fields = []
    z = zero()

    def mk(xi, phis):
        return VectorField(xi, tuple(phis), ctx)

    y = [sym(ctx.y(j)) for j in range(1, m + 1)]
    for i in range(m):
        for j in range(m):
            fields.append(mk(z, [y[i] if t == j else z for t in range(m)]))
    for s_k in source_solution_basis(src, n):
        for j in range(m):
            fields.append(mk(z, [s_k if t == j else z for t in range(m)]))
    u, v = src.u, src.v
    up, vp = src.d(u), src.d(v)
    scale = const(n - 1)
    fields.append(mk(v ** 2, [scale * v * vp * y[t] for t in range(m)]))
    fields.append(mk(-(u ** 2), [-scale * u * up * y[t] for t in range(m)]))
    fields.append(mk(2 * u * v,
                     [scale * (u * vp + up * v) * y[t] for t in range(m)]))
    return fields


def non_cartan_generators(src: SourceEquation, ctx: JetContext) -> list:
    """The 2m non-Cartan generators C_ik = y_i u_k d/dx +
    sum_j y_i y_j u_k' d/dy_j in ctx, with m = ctx.m, ordered (i, k)
    lexicographically with u_1 = u, u_2 = v; at m = 1 the scalar pair
    C_11 = y u d/dx + y^2 u' d/dy and C_12."""
    _check_same_x(src, ctx)
    y = [sym(ctx.y(j)) for j in range(1, ctx.m + 1)]
    fields = []
    for yi in y:
        for uk, ukp in ((src.u, src.d(src.u)), (src.v, src.d(src.v))):
            xi = yi * uk
            phi = tuple(yi * yj * ukp for yj in y)
            fields.append(VectorField(xi, phi, ctx))
    return fields


# ---------------------------------------------------------------------------
# Transformations


def reduction_transformation(src: SourceEquation,
                             n: int) -> PointTransformation:
    """The map z = v/u, w = y u^(1-n) reducing the order-n normal form to
    w^(n) = 0."""
    old_ctx = scalar_context(n)
    new_ctx = JetContext(1, n, indep_name="z", dep_names=("w",))
    x, y = old_ctx.x, old_ctx.y(1)
    w = sym(new_ctx.y(1))
    z = sym(new_ctx.x)
    forward = (src.v / src.u, sym(y) * src.u ** (1 - n))
    if src.u == one() and src.v == sym(x):
        inverse = ({y: w, x: z},)
        return PointTransformation(old_ctx, new_ctx, forward, inverse,
                                   src.rules)
    xinv = call(func("xinv"), z)
    inverse = ({y: src.u ** (n - 1) * w}, {x: xinv})
    # the composition identity (v/u)(xinv(z)) = z, as an atom rewrite
    u, v = (next(a for a in e.atoms() if isinstance(a, Call)).head
            for e in (src.u, src.v))
    post = ((Call(v, (xinv,)), z * call(u, xinv)),)
    return PointTransformation(old_ctx, new_ctx, forward, inverse,
                               src.rules, post)


# ---------------------------------------------------------------------------
# The nonlinear family and its counterexample


def non_cartan_family() -> OdeSystem:
    """The most general scalar second-order equation admitting the two
    non-Cartan symmetries of the free-fall equation:
    y'' = (y'/y)^3 H(x - y/y')."""
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    rhs = (p / y) ** 3 * call(func("H"), x - y / p)
    return OdeSystem(ctx, (rhs,))


def nonlinear_counterexample() -> OdeSystem:
    """y'' = p^3 (p (x+1) - y) / (y^3 (y - x p)): inside the family yet
    not a polynomial of degree at most 3 in p."""
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    rhs = p ** 3 * (p * (x + 1) - y) / (y ** 3 * (y - x * p))
    return OdeSystem(ctx, (rhs,))


def c1_symmetry_pde_residual(f: Expression, ctx: JetContext) -> Expression:
    """The on-shell invariance residual of C1 = y d/dx on y'' = F(x, y,
    p) in the scalar context ctx: -y F_x - 3 p F + p^2 F_p."""
    y = sym(ctx.y(1))
    p_sym = ctx.jet(1, 1)
    p = sym(p_sym)
    return (-y * differentiate(f, ctx.x) - 3 * p * f
            + p ** 2 * differentiate(f, p_sym))
