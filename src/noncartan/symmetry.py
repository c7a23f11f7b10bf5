"""Symmetry analysis: ODE systems in solved form, a linear one built from
its coefficient matrices by `LinearSystemSpec`; on-shell invariance
residuals, determining equations and the full and restricted ansatze,
commutators and algebra structure, the non-Cartan predicate, and
coordinate changes of vector fields."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .expr import (
    _ONE_TERMS, DEP, Call, CollectError, Expression, Symbol, _dot,
    _linear_terms, _mon_key, apply_rules, call, collect, differentiate, func,
    is_zero, one, param, replace_atoms, substitute, sym, zero,
)
from .jet import JetContext, ProlongedField, VectorField, prolong

__all__ = [
    "OdeSystem", "LinearSystemSpec", "PointTransformation",
    "DeterminingSystem", "LieAlgebraReport", "invariance_residual",
    "determining_equations", "full_ansatz", "restricted_ansatz",
    "commutator", "is_non_cartan",
    "change_coordinates", "algebra_report", "ContextMismatchError",
    "MissingInverseError",
]


class ContextMismatchError(ValueError):
    pass


class MissingInverseError(ValueError):
    pass


@dataclass(frozen=True)
class OdeSystem:
    """m equations of order n in solved form y_j^(n) = F_j, with
    optional side relations used during zero testing."""

    ctx: JetContext
    rhs: tuple
    rules: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rhs", tuple(self.rhs))
        object.__setattr__(self, "rules", tuple(self.rules))
        if len(self.rhs) != self.ctx.m:
            raise ValueError("expected %d right-hand sides" % self.ctx.m)
        for f in self.rhs:
            if f.max_jet_order() > self.ctx.order - 1:
                raise ValueError("right-hand side contains jet symbols of "
                                 "order >= %d" % self.ctx.order)

    def on_shell(self, e: Expression) -> Expression:
        """Substitute the solved form for the top-order jet symbols."""
        n = self.ctx.order
        bindings = {self.ctx.jet(j, n): self.rhs[j - 1]
                    for j in range(1, self.ctx.m + 1)}
        return substitute(e, bindings)


@dataclass(frozen=True)
class LinearSystemSpec:
    """y^(n) + A_{n-1} y^(n-1) + ... + A_0 y = 0 with m x m matrix
    coefficients of x only; the one builder of a linear `OdeSystem`."""

    m: int
    n: int
    matrices: tuple      # (A_{n-1}, ..., A_0), each an m x m tuple of tuples
    ctx: JetContext = None

    def __post_init__(self):
        mats = tuple(tuple(tuple(row) for row in mat) for mat in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != self.n:
            raise ValueError("expected %d coefficient matrices" % self.n)
        for mat in mats:
            if len(mat) != self.m or any(len(row) != self.m for row in mat):
                raise ValueError("coefficient matrices must be square, %d x %d"
                                 % (self.m, self.m))
            if any(e.max_jet_order() >= 0 for row in mat for e in row):
                raise ValueError("coefficients must be functions of x only")
        if self.ctx is None:
            object.__setattr__(self, "ctx", JetContext(self.m, self.n))
        elif self.ctx.m != self.m or self.ctx.order != self.n:
            raise ValueError("context does not match the system shape")

    @property
    def a0(self):
        return self.matrices[-1]

    @property
    def a1(self):
        if self.n < 2:
            raise ValueError("no first-order coefficient for n = 1")
        return self.matrices[-2]

    def ode_system(self, rules=()) -> OdeSystem:
        """y_i^(n) = -sum_k sum_j (A_k)_ij y_j^(k), one `_dot` per row."""
        ctx, n = self.ctx, self.n
        return OdeSystem(ctx, tuple(-_dot(
            (e, sym(ctx.jet(j, n - 1 - k)))
            for k, mat in enumerate(self.matrices)
            for j, e in enumerate(mat[i], 1) if not e.is_rational_zero())
            for i in range(self.m)), rules)

    @classmethod
    def from_system(cls, system: OdeSystem):
        """The spec (A_1, A_0) = (0, -M) of a system y'' = M y whose M is
        free of y and y'; None for any other system."""
        ctx = system.ctx
        if ctx.order != 2:
            return None
        deps = [ctx.y(j) for j in range(1, ctx.m + 1)]
        a0 = []
        for f in system.rhs:
            if any(f.contains(ctx.jet(j, 1)) for j in range(1, ctx.m + 1)):
                return None
            try:
                terms = _linear_terms(f, deps)
            except CollectError:
                return None
            if terms is None or not terms[1].is_rational_zero():
                return None
            a0.append(tuple(-terms[0].get(s, zero()) for s in deps))
        return cls(ctx.m, 2, (((zero(),) * ctx.m,) * ctx.m, a0), ctx=ctx)


@dataclass(frozen=True)
class PointTransformation:
    """An invertible point transformation given by the new coordinates
    as expressions in the old ones, together with a declared inverse
    (a sequence of substitution maps applied in order)."""

    old_ctx: JetContext
    new_ctx: JetContext
    forward: tuple          # (psi_0, psi_1, .., psi_m) in old coordinates
    inverse: tuple = None   # sequence of {old symbol: expression in new}
    rules: tuple = ()       # simplification rules (e.g. source relations)
    post_rewrites: tuple = ()  # (atom, expression) identities in new coords

    def __post_init__(self):
        object.__setattr__(self, "forward", tuple(self.forward))
        if self.inverse is not None:
            object.__setattr__(self, "inverse", tuple(self.inverse))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "post_rewrites", tuple(self.post_rewrites))
        if len(self.forward) != self.new_ctx.m + 1:
            raise ValueError("expected %d forward components"
                             % (self.new_ctx.m + 1))

    def push_old_to_new(self, e: Expression) -> Expression:
        """Rewrite an expression in old point coordinates through the
        declared inverse."""
        if self.inverse is None:
            raise MissingInverseError("transformation has no declared inverse")
        e = apply_rules(e, self.rules)
        for mapping in self.inverse:
            e = substitute(e, mapping)
        if self.post_rewrites:
            e = replace_atoms(e, dict(self.post_rewrites))
        return apply_rules(e, self.rules)

    def verify_inverse(self) -> bool:
        """Composing forward then inverse must be the identity on
        coordinates."""
        targets = [self.new_ctx.x] + [self.new_ctx.y(j)
                                      for j in range(1, self.new_ctx.m + 1)]
        for psi, target in zip(self.forward, targets):
            if not is_zero(self.push_old_to_new(psi) - sym(target), self.rules):
                return False
        return True


@dataclass(frozen=True)
class DeterminingSystem:
    """An overdetermined system of expressions in unknown coefficient
    functions, indexed by the jet monomial each equation came from."""

    unknowns: tuple
    equations: tuple
    monomial_index: dict

    def __len__(self):
        return len(self.equations)

    def contains(self, target: Expression, rules=()) -> bool:
        """True when some equation equals the target up to a nonzero
        rational multiple."""
        for eq in self.equations:
            if _proportional(eq, target, rules):
                return True
        return False


def _proportional(a: Expression, b: Expression, rules=()) -> bool:
    if a.is_rational_zero() or b.is_rational_zero():
        return a.is_rational_zero() and b.is_rational_zero()
    ratio = a / b
    if ratio.is_constant():
        return True
    # fall back: a * lead(b) - b * lead(a) == 0
    ca = a.num[0][1]
    cb = b.num[0][1]
    return is_zero(a * cb - b * ca, rules)


def invariance_residual(v: VectorField, system: OdeSystem) -> list:
    """v^(n) applied to each y_j^(n) - F_j, restricted to the solution
    set and simplified with the system's side relations."""
    if v.context.m != system.ctx.m or v.context.dep_names != system.ctx.dep_names:
        raise ContextMismatchError("vector field and system contexts differ")
    n = system.ctx.order
    ctx = system.ctx
    vv = v if v.context == ctx else VectorField(v.xi, v.phi, ctx)
    return _prolonged_residuals(prolong(vv, n), system)


def _prolonged_residuals(pf: ProlongedField, system: OdeSystem) -> list:
    """The residuals of `invariance_residual` from a field already
    prolonged to the system's order in the system's context: one `_dot`
    of each equation's `_split_pairs` where they exist, structurally
    equal to the substituted residual since polynomials have one term
    tuple; otherwise the field is applied to y_j^(n) - F_j and the
    solved form substituted with `OdeSystem.on_shell`."""
    ctx = system.ctx
    pairs = _split_pairs(pf, system)
    if pairs is None:
        residuals = [system.on_shell(pf.apply_to(
            sym(ctx.jet(j, ctx.order)) - system.rhs[j - 1]))
            for j in range(1, ctx.m + 1)]
    else:
        residuals = map(_dot, pairs)
    return [apply_rules(res, system.rules) for res in residuals]


def _split_pairs(pf: ProlongedField, system: OdeSystem):
    """For each equation j, polynomial pairs (field piece, system piece)
    whose sum of products is its on-shell residual
    E_j + sum_k G_jk F_k - X^(n-1) F_j before the rules, with
    phi_j^(n) = E_j + sum_k y_k^(n) G_jk the field's `top_split`: the
    pieces E_j, xi, G_jk and phi_k^(i) against 1, d delta / dx, F_k and
    d delta / dy_k^(i), where delta = y_j^(n) - F_j.  The field pieces
    and the layout depend on the field alone.  None without that split
    or with a rational F_k."""
    ctx = system.ctx
    n = ctx.order
    if (pf.p != n or pf.top_split is None
            or any(f.den != _ONE_TERMS for f in system.rhs)):
        return None
    out = []
    for j, (e_j, g_j) in enumerate(pf.top_split, 1):
        delta = sym(ctx.jet(j, n)) - system.rhs[j - 1]
        out.append([(e_j, one()), (pf.base.xi, differentiate(delta, ctx.x))]
                   + list(zip(g_j, system.rhs))
                   + [(pf.coeff(k, i), differentiate(delta, ctx.jet(k, i)))
                      for k in range(1, ctx.m + 1) for i in range(n)])
    return out


def determining_equations(system: OdeSystem, ansatz: VectorField) -> DeterminingSystem:
    """Collect the on-shell invariance residual of a generic ansatz over
    monomials in the positive-order jet symbols; each coefficient is one
    determining equation."""
    residuals = invariance_residual(ansatz, system)
    ctx = system.ctx
    jet_vars = [ctx.jet(j, k)
                for j in range(1, ctx.m + 1)
                for k in range(1, ctx.order)]
    equations = {}  # each distinct equation -> its position, first seen first
    index = {}
    for nu, res in enumerate(residuals, start=1):
        groups = collect(res, jet_vars)
        for mon in sorted(groups, key=_mon_key):
            # collect drops zero coefficients, so each has a leading term
            eq = groups[mon] / groups[mon].num[0][1]
            index[(nu, mon)] = equations.setdefault(eq, len(equations))
    unknowns = []
    for comp in ansatz.components():
        for a in comp.atoms():
            if isinstance(a, Call):
                base = a.head.base()
                if base not in unknowns:
                    unknowns.append(base)
    return DeterminingSystem(tuple(unknowns), tuple(equations), index)


def _component_names(m: int) -> tuple:
    """Names of the components after xi: phi; eta, phi; phi1..phim."""
    if m == 1:
        return ("phi",)
    if m == 2:
        return ("eta", "phi")
    return tuple("phi%d" % j for j in range(1, m + 1))


def full_ansatz(ctx: JetContext) -> VectorField:
    """Every component an unknown function of all point coordinates."""
    args = [sym(s) for s in ctx.point_symbols()]
    comps = [call(func(name, ctx.m + 1), *args)
             for name in ("xi",) + _component_names(ctx.m)]
    return VectorField(comps[0], tuple(comps[1:]), ctx)


def restricted_ansatz(ctx: JetContext) -> VectorField:
    """xi = alpha(x) y + beta(x) w + gamma(x) with the induced forms of the
    other components, for a pair of second-order equations."""
    if ctx.m != 2 or ctx.order != 2:
        raise ValueError("the restricted ansatz applies to pairs of "
                         "second-order equations")
    x, y, w = (sym(s) for s in ctx.point_symbols())
    alp = call(func("alpha", 1, (1,)), x)
    bep = call(func("beta", 1, (1,)), x)
    xi = (call(func("alpha"), x) * y + call(func("beta"), x) * w
          + call(func("gamma"), x))
    eta = (bep * y * w + sym(param("k2")) * w + alp * y ** 2
           + call(func("b1"), x) * y + call(func("b2"), x))
    phi = (alp * y * w + sym(param("k1")) * y + bep * w ** 2
           + call(func("s1"), x) * w + call(func("s2"), x))
    return VectorField(xi, (eta, phi), ctx)


def commutator(v: VectorField, w: VectorField) -> VectorField:
    """[v, w] acting on the point coordinate functions."""
    if v.context != w.context:
        raise ContextMismatchError("vector field contexts differ")
    xi = v.apply_to(w.xi) - w.apply_to(v.xi)
    phi = tuple(v.apply_to(w.phi[j]) - w.apply_to(v.phi[j])
                for j in range(v.context.m))
    return VectorField(xi, phi, v.context)


def _partials(v: VectorField) -> tuple:
    """For each component of v, its partial derivatives by the point
    coordinates x, y_1, .., y_m, in the order `VectorField.apply_to`
    takes them."""
    symbols = v.context.point_symbols()
    return tuple(tuple(differentiate(c, s) for s in symbols)
                 for c in v.components())


def _bracket(v: VectorField, dv: tuple, w: VectorField,
             dw: tuple) -> VectorField:
    """`commutator(v, w)` from the partials dv of v and dw of w (see
    `_partials`), so that the partials of a field can serve all its
    brackets: component c is v.apply_to(w_c) - w.apply_to(v_c) in value,
    taken as one `_dot` over the pairs (v_s, d_s w_c) and
    (-w_s, d_s v_c)."""
    vc = v.components()
    neg_wc = [-e for e in w.components()]
    comps = [_dot(list(zip(vc, dw[c])) + list(zip(neg_wc, dv[c])))
             for c in range(len(vc))]
    return VectorField(comps[0], tuple(comps[1:]), v.context)


def is_non_cartan(v: VectorField) -> bool:
    """True iff the d/dx component depends explicitly on a dependent
    variable."""
    for a in v.xi.atoms():
        if isinstance(a, Symbol) and a.kind == DEP:
            return True
    return False


def change_coordinates(v: VectorField, t: PointTransformation) -> VectorField:
    """Push the vector field forward: apply v to each new coordinate
    function and rewrite the result in the new coordinates."""
    if t.inverse is None:
        raise MissingInverseError("transformation has no declared inverse")
    comps = [t.push_old_to_new(v.apply_to(psi)) for psi in t.forward]
    return VectorField(comps[0], tuple(comps[1:]), t.new_ctx)


@dataclass(frozen=True)
class LieAlgebraReport:
    basis: tuple
    structure_constants: dict    # (i, j) -> tuple of Fractions, i < j
    independent: bool
    abelian: bool
    non_cartan_count: int
    bracket_failures: tuple = ()

    def constant(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            row = self.structure_constants.get((i, j))
            return row[k] if row is not None else None
        row = self.structure_constants.get((j, i))
        return -row[k] if row is not None else None


def _slot_denominators(component_lists) -> list:
    """The distinct denominators of each slot of the component tuples, in
    order of appearance."""
    dens = []
    for s in range(len(component_lists[0])):
        slot = []
        for comps in component_lists:
            if comps[s].den not in slot:
                slot.append(comps[s].den)
        dens.append(slot)
    return dens


def _flat_vector(comps, dens, columns):
    """The coefficient vector of one component tuple: each component's
    numerator times the other denominators of its slot.  A pair that has
    no column gets the next one."""
    vec = {}
    for s, e in enumerate(comps):
        scaled = Expression(e.num, _ONE_TERMS)
        for d in dens[s]:
            if d != e.den:
                scaled = scaled * Expression(d, _ONE_TERMS)
        for mon, c in scaled.num:
            col = columns.get((s, mon))
            if col is None:
                col = columns[(s, mon)] = len(columns)
            vec[col] = c
    return vec


def _span_solve(vectors, targets):
    """For each target, the coefficients c with sum_k c_k vectors[k] =
    target and every free coefficient zero, the solution `linalg.solve`
    gives, or None when the target lies outside the span; and whether
    the vectors are independent.  One `linalg._rref` of [vectors |
    targets], one row per column, serves them all: its rows with a pivot
    among the vectors give the solutions, the reduced form being unique,
    and a target with an entry in a row whose pivot lies past the vectors
    is outside the span."""
    n = len(vectors)
    rows = {}
    for k, vec in enumerate(vectors + targets):
        for col, c in vec.items():
            rows.setdefault(col, {})[k] = c
    red = linalg._rref(rows.values())
    outside = {c for pc, row in red.items() if pc >= n for c in row}
    zero = Fraction(0)
    sols = [None if n + t in outside else
            tuple(red[k].get(n + t, zero) if k in red else zero
                  for k in range(n))
            for t in range(len(targets))]
    return sols, all(k in red for k in range(n))


def algebra_report(fields, rules=()) -> LieAlgebraReport:
    """Linear independence over the rationals, structure constants when
    every bracket lies in the rational span, abelian flag, and the
    non-Cartan count.

    Each field's partials are taken once and every bracket is built from
    them (see `_bracket`).  The basis and the nonzero brackets are
    flattened together, each slot cleared of every denominator it has in
    any of them, and one `_span_solve` gives every bracket's solution and
    the basis's independence.  Clearing a slot multiplies it by a
    nonzero polynomial, an injective linear map, so the column
    dependencies of [basis | brackets], and with them the reduced form
    and its solutions, are those of a solve of each bracket against the
    basis flattened with that bracket alone."""
    fields = list(fields)
    if not fields:
        raise ValueError("algebra_report needs at least one vector field")
    ctx = fields[0].context
    for f in fields:
        if f.context != ctx:
            raise ContextMismatchError("vector field contexts differ")
    n = len(fields)
    partials = [_partials(f) for f in fields]
    simplified = [tuple(apply_rules(c, rules) for c in f.components())
                  for f in fields]
    structure = {}
    brackets = {}    # (i, j) -> the nonzero bracket's simplified components
    for i in range(n):
        for j in range(i + 1, n):
            br = _bracket(fields[i], partials[i], fields[j], partials[j])
            br_comps = tuple(apply_rules(c, rules) for c in br.components())
            if all(is_zero(c, rules) for c in br_comps):
                structure[(i, j)] = tuple(Fraction(0) for _ in fields)
            else:
                structure[(i, j)] = None    # keeps the pairs in (i, j) order
                brackets[(i, j)] = br_comps
    stacked = simplified + list(brackets.values())
    dens = _slot_denominators(stacked)
    columns = {}
    vectors = [_flat_vector(comps, dens, columns) for comps in stacked]
    sols, independent = _span_solve(vectors[:n], vectors[n:])
    structure.update(zip(brackets, sols))
    failures = tuple(p for p, row in structure.items() if row is None)
    ncc = sum(1 for f in fields if is_non_cartan(f))
    return LieAlgebraReport(tuple(fields), structure, independent,
                            not brackets, ncc, failures)
