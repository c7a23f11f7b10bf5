"""Factories for the concrete objects of the theory: the free-fall
symmetry algebra, the iterative-equation machinery, the canonical basis
for isotropic linear systems, the non-Cartan generators, and the
nonlinear family admitting them."""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .expr import (
    Call, Expression, RewriteRule, Symbol, apply_rules, call, const,
    differentiate, func, indep, is_zero, one, param, replace_atoms,
    substitute, sym, zero,
)
from .jet import JetContext, VectorField, total_derivative
from .symmetry import OdeSystem, PointTransformation

__all__ = [
    "SourceEquation", "IterativeOperator", "NormalFormCoefficients",
    "free_fall_symmetries", "canonical_basis", "non_cartan_generators",
    "scalar_non_cartan", "iterative_power", "normalize_s",
    "normal_form_coeffs", "source_solution_basis", "isotropic_system",
    "reduction_transformation", "non_cartan_family",
    "nonlinear_counterexample", "c1_symmetry_pde_residual",
    "scalar_context",
]


def scalar_context(order: int = 2) -> JetContext:
    return JetContext(1, order, dep_names=("y",))


# ---------------------------------------------------------------------------
# The source equation y'' + q y = 0 and its solution pair


@dataclass(frozen=True)
class SourceEquation:
    """A pair (u, v) of formal solutions of y'' + q y = 0 with Wronskian
    normalized to one, plus the rewrite rules they induce."""

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
        x = indep()
        return SourceEquation._opaque_pair(call(func("q"), sym(x)), x, avoid)

    @staticmethod
    def for_q(q: Expression) -> "SourceEquation":
        """Source equation for a given coefficient q(x); the trivial
        solution pair (1, x) is used when q is zero."""
        if q.is_rational_zero():
            return SourceEquation.trivial()
        return SourceEquation._opaque_pair(q, indep())

    @staticmethod
    def trivial() -> "SourceEquation":
        x = indep()
        return SourceEquation(zero(), one(), sym(x), (), x)

    @staticmethod
    def _opaque_pair(q: Expression, x: Symbol, avoid=()) -> "SourceEquation":
        # the pair is named u, v unless q calls functions of those names
        # or they are to be avoided
        taken = {a.head.name for a in q.atoms() if isinstance(a, Call)}
        taken.update(avoid)
        un, vn = "u", "v"
        while un in taken or vn in taken:
            un, vn = un + "_", vn + "_"
        ex = sym(x)
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
    order_cap: int = 4

    def apply(self, e: Expression, ctx: JetContext) -> Expression:
        return self.r * total_derivative(e, ctx) + self.s * e

    def power_applied(self, n: int, ctx: JetContext = None) -> Expression:
        if n > self.order_cap:
            raise ValueError("power %d exceeds the order cap %d"
                             % (n, self.order_cap))
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
    """The unique s making the y^(n-1) coefficient of Omega^n[y]
    vanish."""
    if n < 2:
        raise ValueError("need n >= 2")
    x = indep()
    s_head = func("_s")
    s_unknown = call(s_head, sym(x))
    ctx = scalar_context(n)
    expanded = IterativeOperator(r, s_unknown, order_cap=max(n, 4)) \
        .power_applied(n, ctx)
    coeff = differentiate(expanded, ctx.jet(1, n - 1))
    for a in coeff.atoms():
        if isinstance(a, Call) and a.head.name == "_s" and a.head.dorders[0] > 0:
            raise ValueError("degenerate condition: derivative of s in the "
                             "second-highest coefficient")
    s_atom = Call(s_head, (sym(x),))
    k0 = replace_atoms(coeff, {s_atom: zero()})
    k1 = replace_atoms(coeff, {s_atom: one()}) - k0
    if k1.is_rational_zero():
        raise ValueError("degenerate linear condition for s")
    quad = coeff - (k0 + k1 * s_unknown)
    if not quad.is_rational_zero():
        raise ValueError("condition for s is not affine")
    return -k0 / k1


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
        return self.coeffs[j - 2]


def _weight_monomials(q: Expression, x: Symbol, weight: int) -> list:
    """Monomials in q and its derivatives of isobaric weight `weight`
    (q has weight 2, q' weight 3, ...)."""
    def parts(total, minimum):
        if total == 0:
            yield ()
            return
        for p in range(minimum, total + 1):
            for rest in parts(total - p, p):
                yield (p,) + rest

    out = []
    for partition in parts(weight, 2):
        m = one()
        for p in partition:
            d = q
            for _ in range(p - 2):
                d = differentiate(d, x)
            m = m * d
        if not m.is_rational_zero() and m not in out:
            out.append(m)
    return out


def normal_form_coeffs(src: SourceEquation, n: int) -> NormalFormCoefficients:
    """Determine the A_n^j by requiring every s_k to solve the normal
    form, via an exact linear solve over an isobaric ansatz in q.  The
    derivatives s_k, s_k', .., s_k^(n) of each solution are taken once and
    serve both the solve and the recheck of the solution."""
    if n < 2:
        raise ValueError("need n >= 2")
    x = src.x
    sols = source_solution_basis(src, n)
    ansatz = []
    params = []
    for j in range(2, n + 1):
        monos = _weight_monomials(src.q, x, j)
        coeff = zero()
        for t, mono in enumerate(monos):
            p = param("_c%d_%d" % (j, t))
            params.append(p)
            coeff = coeff + sym(p) * mono
        ansatz.append(coeff)

    # the chain s_k, s_k', .., s_k^(n) of each solution, taken once: each
    # entry is the previous one differentiated, as `src.d` takes it
    chains = []
    for s_k in sols:
        chain = [s_k]
        for _ in range(n):
            chain.append(differentiate(chain[-1], x))
        chains.append(chain)

    def residual(chain, coeffs):    # s_k^(n) + sum_j A_n^j s_k^(n-j)
        return sum((c * chain[n - j] for j, c in enumerate(coeffs, 2)),
                   chain[n])

    column = {p: i for i, p in enumerate(params)}
    rows = []
    rhs = []
    for chain in chains:
        resid = apply_rules(residual(chain, ansatz), src.rules)
        for lin, cst in linalg.linear_equations_in_params(resid, params):
            rows.append({column[p]: v for p, v in lin.items()})
            rhs.append(-cst)
    if params:
        sol = linalg.solve(rows, rhs, ncols=len(params))
        bindings = dict(zip(params, map(const, sol)))
    else:
        bindings = {}
        for c in rhs:
            if c != 0:
                raise linalg.InconsistentSystemError(
                    "no solution for the normal-form coefficients")
    coeffs = tuple(substitute(a, bindings) for a in ansatz)
    result = NormalFormCoefficients(n, coeffs)
    for chain in chains:
        if not is_zero(residual(chain, coeffs), src.rules):
            raise linalg.InconsistentSystemError(
                "normal-form coefficients fail to annihilate s_k")
    return result


def isotropic_system(m: int, n: int, src: SourceEquation,
                     ctx: JetContext = None) -> OdeSystem:
    """The canonical-class normal form: m copies of the iterative
    equation y^(n) + sum_j A_n^j y^(n-j) = 0."""
    ctx = ctx or JetContext(m, n)
    nf = normal_form_coeffs(src, n)
    rhs = []
    for i in range(1, m + 1):
        f = zero()
        for j in range(2, n + 1):
            f = f - nf.coefficient(j) * sym(ctx.jet(i, n - j))
        rhs.append(f)
    return OdeSystem(ctx, tuple(rhs), src.rules)


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


def canonical_basis(m: int, n: int, src: SourceEquation,
                    ctx: JetContext = None) -> list:
    """The m^2 + n*m + 3 generators H_ij, S_kj, F_p, F_m, F_z of the
    symmetry algebra of the isotropic normal form."""
    if m < 1 or n < 2:
        raise ValueError("need m >= 1 and n >= 2")
    ctx = ctx or JetContext(m, n)
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


def non_cartan_generators(m: int, src: SourceEquation,
                          ctx: JetContext = None) -> list:
    """The 2m non-Cartan generators C_ik = y_i u_k d/dx +
    sum_j y_i y_j u_k' d/dy_j, ordered (i, k) lexicographically with
    u_1 = u, u_2 = v."""
    if m < 1:
        raise ValueError("need m >= 1")
    ctx = ctx or JetContext(m, 2)
    y = [sym(ctx.y(j)) for j in range(1, m + 1)]
    fields = []
    for i in range(m):
        for uk, ukp in ((src.u, src.d(src.u)), (src.v, src.d(src.v))):
            xi = y[i] * uk
            phi = tuple(y[i] * y[j] * ukp for j in range(m))
            fields.append(VectorField(xi, phi, ctx))
    return fields


def scalar_non_cartan(src: SourceEquation, ctx: JetContext = None) -> tuple:
    """The scalar pair C_11 = y u d/dx + y^2 u' d/dy and C_12."""
    ctx = ctx or scalar_context()
    c11, c12 = non_cartan_generators(1, src, ctx)
    return c11, c12


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
    v_comp = Call(func("v"), (xinv,))
    u_comp = call(func("u"), xinv)
    post = ((v_comp, z * u_comp),)
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


def c1_symmetry_pde_residual(f: Expression, ctx: JetContext = None) -> Expression:
    """The on-shell invariance residual of C1 = y d/dx on y'' = F(x, y,
    p): -y F_x - 3 p F + p^2 F_p."""
    ctx = ctx or scalar_context()
    y = sym(ctx.y(1))
    p_sym = ctx.jet(1, 1)
    p = sym(p_sym)
    return (-y * differentiate(f, ctx.x) - 3 * p * f
            + p ** 2 * differentiate(f, p_sym))
