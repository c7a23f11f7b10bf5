"""Shared generators and reference implementations for the randomized
property suites."""

import math
import random
from fractions import Fraction

from noncartan import (
    Call, Expression, JetContext, JetOrderError, Symbol, VectorField,
    apply_rules, commutator, const, differentiate, indep, invariance_residual,
    is_zero, jet, normal_form_coeffs, one, param, scalar_context, sym, zero,
)
from noncartan.expr import (
    _KIND_RANK, _MAX_REWRITE_PASSES, _ONE_TERMS, _check_acyclic, _mk_mon,
    _mon_key, _mon_sub, _over, _tadd, _terms_from_dict, atom_expr,
    replace_atoms,
)
from noncartan.linalg import (
    InconsistentSystemError, linear_equations_in_params, nullspace, rank,
    solve,
)
from noncartan.symmetry import (
    _bracket, _flat_vector, _partials, _slot_denominators,
)

X = indep("x")


def random_expression(rng: random.Random, depth: int = 3, atoms=None):
    if atoms is None:
        atoms = [sym(X), sym(jet(1, 0, "y")), sym(jet(1, 1, "y")),
                 sym(param("a")), sym(param("b"))]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return const(rng.randint(-4, 4))
        return rng.choice(atoms)
    op = rng.random()
    left = random_expression(rng, depth - 1, atoms)
    right = random_expression(rng, depth - 1, atoms)
    if op < 0.4:
        return left + right
    if op < 0.7:
        return left - right
    if op < 0.95:
        return left * right
    if right.is_rational_zero():
        right = right + const(1)
    return left / right


def random_point_field(rng: random.Random, ctx: JetContext = None):
    ctx = ctx or scalar_context()
    coords = [sym(ctx.x)] + [sym(ctx.y(j)) for j in range(1, ctx.m + 1)]

    def component():
        e = const(0)
        for _ in range(rng.randint(1, 3)):
            term = const(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(coords)
            e = e + term
        return e

    return VectorField(component(), tuple(component()
                                          for _ in range(ctx.m)), ctx)


# ---------------------------------------------------------------------------
# Float evaluation, for numeric cross-checks in tests only: the package's
# zero test is exact and evaluates no float.


def _head_ranks(e: Expression) -> dict:
    """Each base function symbol of e, numbered in sort order."""
    bases = sorted({a.head.base() for a in e.atoms() if isinstance(a, Call)},
                   key=Symbol.sort_key)
    return {b: i for i, b in enumerate(bases)}


def evaluate(e: Expression, env, source_mode: bool = False) -> float:
    """Numeric evaluation; each opaque function is a test function picked
    by its rank among e's, or with source_mode u, v, q are cos, sin, 1."""
    ranks = _head_ranks(e)
    dv = _eval_poly(e.den, env, ranks, source_mode)
    return _eval_poly(e.num, env, ranks, source_mode) / dv


def _eval_poly(terms, env, ranks, source_mode=False) -> float:
    total = 0.0
    for mon, c in terms:
        v = float(c)
        for a, k in mon:
            v *= _eval_atom(a, env, ranks, source_mode) ** k
        total += v
    return total


def _eval_atom(a, env, ranks, source_mode) -> float:
    if isinstance(a, Symbol):
        return env[a]
    args = [_eval_poly(g.num, env, ranks, source_mode)
            / _eval_poly(g.den, env, ranks, source_mode) for g in a.args]
    name = a.head.name
    ds = a.head.dorders
    if source_mode and name in ("u", "v", "q") and a.head.arity == 1:
        k = ds[0]
        if name == "u":
            return math.cos(args[0] + k * math.pi / 2)
        if name == "v":
            return math.sin(args[0] + k * math.pi / 2)
        return 1.0 if k == 0 else 0.0
    # generic smooth test function: f(t1..tn) = sin(3 s) + s^2 with
    # s = sum(c_i t_i), the coefficients c_i fixed by the function's rank
    rank = ranks[a.head.base()]
    cs = [1.0 + (rank + i + 1) / 7.0 for i in range(a.head.arity)]
    s = sum(ci * ti for ci, ti in zip(cs, args))
    k = sum(ds)
    scale = math.prod(ci ** di for ci, di in zip(cs, ds))
    val = 3.0 ** k * math.sin(3.0 * s + k * math.pi / 2)
    if k == 0:
        val += s * s
    elif k == 1:
        val += 2.0 * s
    elif k == 2:
        val += 2.0
    return scale * val


# ---------------------------------------------------------------------------
# Reference rebuild loops: the term-by-term `total = total + piece` forms
# of substitute, replace_atoms, differentiate and collect.  The library
# sums the pieces in one accumulator grouped by denominator; tests assert
# with `assert_matches_fold` the form that `expr._over` states.


def grouped_sum(pieces):
    """The pieces' numerators added into term dicts keyed by their
    denominators, summed by `_over`: the grouping of every rebuild."""
    groups = {}
    for piece in pieces:
        _tadd(groups.setdefault(piece.den, {}), piece.num)
    return _over(groups)


def reference_sum(pieces):
    """The pieces folded with `+` from zero."""
    total = zero()
    for piece in pieces:
        total = total + piece
    return total


def monomial_denominators(*exprs):
    """Whether every denominator in the expressions, those of the
    arguments of their opaque calls included, is one monomial."""
    return all(len(g.den) == 1
               for e in exprs
               for g in [e] + [arg for a in e.atoms() if isinstance(a, Call)
                               for arg in a.args])


def assert_matches_fold(got, expected, structural):
    """got, a grouped sum, has the form `expr._over` states against the
    reference fold `expected`: the same value (calls at arguments equal
    as rational functions are one point), a denominator with no more
    terms, and when `structural` holds (every denominator involved is
    one monomial) the same expression.  The drawn cases meet neither of
    the two exceptions to the bound that `_sum` names."""
    assert is_zero(got - expected), (got, expected)
    assert len(got.den) <= len(expected.den), (got, expected)
    if structural:
        assert got == expected


def reference_apply_rules(e, rules):
    """The rewrite loop that lifts a rule's replacement afresh, by
    repeated differentiation, for every matching atom in every pass."""
    if not rules:
        return e
    ordered = sorted(rules, key=lambda r: -r.head.dorders[0])
    for _ in range(_MAX_REWRITE_PASSES):
        mapping = {}
        for a in e.atoms():
            if not isinstance(a, Call) or a.head.arity != 1:
                continue
            for rule in ordered:
                k = a.head.dorders[0]
                d = rule.head.dorders[0]
                if a.head.name == rule.head.name and k >= d \
                        and a.args == (sym(rule.var),):
                    repl = rule.replacement
                    for _i in range(k - d):
                        repl = differentiate(repl, rule.var)
                    mapping[a] = repl
                    break
        if not mapping:
            return e
        e = replace_atoms(e, mapping)
    raise RuntimeError("rewrite did not reach a fixed point")


def reference_substitute(e, bindings):
    if not bindings:
        return e
    bindings = {s: Expression._coerce(v) for s, v in bindings.items()}
    _check_acyclic(bindings)

    def subst(x):
        def poly(terms):
            total = zero()
            for mon, c in terms:
                piece = const(c)
                for a, k in mon:
                    piece = piece * subst_atom(a) ** k
                total = total + piece
            return total

        n = poly(x.num)
        if x.den == _ONE_TERMS:
            return n
        return n / poly(x.den)

    def subst_atom(a):
        if isinstance(a, Symbol):
            return bindings.get(a, atom_expr(a))
        return atom_expr(Call(a.head, tuple(subst(arg) for arg in a.args)))

    return subst(e)


def reference_replace_atoms(e, mapping):
    def poly(terms):
        total = zero()
        for mon, c in terms:
            piece = const(c)
            for a, k in mon:
                piece = piece * rep(a) ** k
            total = total + piece
        return total

    def rep(a):
        if a in mapping:
            return mapping[a]
        if isinstance(a, Call):
            return atom_expr(Call(a.head, tuple(
                reference_replace_atoms(arg, mapping) for arg in a.args)))
        return atom_expr(a)

    n = poly(e.num)
    if e.den == _ONE_TERMS:
        return n
    return n / poly(e.den)


def reference_differentiate(e, s):
    if not e.contains(s):
        return zero()
    n = Expression(e.num, _ONE_TERMS)
    d = Expression(e.den, _ONE_TERMS)
    dn = _reference_diff_poly(e.num, s)
    if e.den == _ONE_TERMS:
        return dn
    dd = _reference_diff_poly(e.den, s)
    return (dn * d - n * dd) / (d * d)


def _reference_diff_poly(terms, s):
    total = zero()
    for mon, c in terms:
        for a, k in mon:
            da = _reference_diff_atom(a, s)
            if da.is_rational_zero():
                continue
            rest = dict(mon)
            rest[a] -= 1
            piece = Expression(((_mk_mon(rest), c * k),), _ONE_TERMS)
            total = total + piece * da
    return total


def _reference_diff_atom(a, s):
    if isinstance(a, Symbol):
        return one() if a == s else zero()
    total = zero()
    for slot, arg in enumerate(a.args):
        darg = reference_differentiate(arg, s)
        if darg.is_rational_zero():
            continue
        total = total + atom_expr(Call(a.head.d(slot), a.args)) * darg
    return total


def reference_collect(e, variables):
    """The grouping of `collect` for inputs it accepts (no error checks)."""
    vset = set(variables)
    den = Expression(e.den, _ONE_TERMS)
    groups = {}
    for mon, c in e.num:
        var_part = {}
        rest = {}
        for a, k in mon:
            if isinstance(a, Symbol) and a in vset:
                var_part[a] = k
            else:
                rest[a] = k
        key = _mk_mon(var_part)
        piece = Expression(((_mk_mon(rest), c),), _ONE_TERMS)
        groups[key] = groups.get(key, zero()) + piece
    out = {}
    for key in sorted(groups, key=_mon_key):
        coeff = groups[key] / den
        if not coeff.is_rational_zero():
            out[key] = coeff
    return out


def reference_mon_mul(m1, m2):
    """The monomial product as a dict of powers, m1's atoms first, sorted
    again by key."""
    powers = dict(m1)
    for a, e in m2:
        powers[a] = powers.get(a, 0) + e
    return _mk_mon(powers)


def reference_monomial_expression(mon):
    out = one()
    for a, k in mon:
        out = out * atom_expr(a) ** k
    return out


def reference_cancel_monomial_gcd(num, den):
    """The monomial-GCD cancellation that scans every term of both sides,
    also when the denominator has a constant term."""
    common = dict(num[0][0])
    for terms in (num, den):
        for mon, _ in terms:
            if not common:
                break
            powers = dict(mon)
            for a in list(common):
                if a in powers:
                    common[a] = min(common[a], powers[a])
                else:
                    del common[a]
    if common:
        g = _mk_mon(common)
        num = _terms_from_dict(dict((_mon_sub(m, g), c) for m, c in num))
        den = _terms_from_dict(dict((_mon_sub(m, g), c) for m, c in den))
    return num, den


# ---------------------------------------------------------------------------
# Reference jet-layer loops: the running `out = out + piece` forms of
# total_derivative and of both apply_to methods.  The library sums the
# pieces with one exact sum; tests assert structural equality with these.


def reference_total_derivative(e, ctx):
    top = e.max_jet_order()
    if top > ctx.order:
        raise JetOrderError("total derivative would exceed jet order")
    out = differentiate(e, ctx.x)
    for j in range(1, ctx.m + 1):
        for k in range(0, max(top, 0) + 1):
            d = differentiate(e, ctx.jet(j, k))
            if not d.is_rational_zero():
                out = out + sym(ctx.jet(j, k + 1)) * d
    return out


def reference_field_apply(v, e):
    out = v.xi * differentiate(e, v.context.x)
    for j in range(1, v.context.m + 1):
        out = out + v.phi[j - 1] * differentiate(e, v.context.y(j))
    return out


def reference_commutator(v, w):
    """[v, w] with each field applied through `reference_field_apply`."""
    xi = reference_field_apply(v, w.xi) - reference_field_apply(w, v.xi)
    phi = tuple(reference_field_apply(v, w.phi[j])
                - reference_field_apply(w, v.phi[j])
                for j in range(v.context.m))
    return VectorField(xi, phi, v.context)


def _reference_flatten(component_lists):
    """Dense coefficient vectors of the component tuples over their
    sorted (slot, monomial) pairs, each component's numerator times the
    other denominators of its slot."""
    nslots = len(component_lists[0])
    slot_polys = []
    for s in range(nslots):
        dens = []
        for comps in component_lists:
            if comps[s].den not in dens:
                dens.append(comps[s].den)
        polys = []
        for comps in component_lists:
            scaled = Expression(comps[s].num, _ONE_TERMS)
            for d in dens:
                if d != comps[s].den:
                    scaled = scaled * Expression(d, _ONE_TERMS)
            polys.append(scaled)
        slot_polys.append(polys)
    monomials = sorted({(s, mon) for s in range(nslots)
                        for p in slot_polys[s] for mon, _ in p.num},
                       key=lambda sm: (sm[0], _mon_key(sm[1])))
    vectors = []
    for i in range(len(component_lists)):
        coeffs = {(s, mon): c for s in range(nslots)
                  for mon, c in slot_polys[s][i].num}
        vectors.append([coeffs.get(sm, Fraction(0)) for sm in monomials])
    return vectors


def reference_algebra_report(fields, rules=()):
    """(independent, abelian, structure constants, failures) the way
    `algebra_report` first computed them: each bracket through
    `commutator`, and the basis flattened together with every bracket and
    solved afresh."""
    simplified = [tuple(apply_rules(c, rules) for c in f.components())
                  for f in fields]
    independent = rank(_reference_flatten(simplified)) == len(fields)
    structure = {}
    failures = []
    abelian = True
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            br = commutator(fields[i], fields[j])
            comps = tuple(apply_rules(c, rules) for c in br.components())
            if all(is_zero(c, rules) for c in comps):
                structure[(i, j)] = tuple(Fraction(0) for _ in fields)
                continue
            abelian = False
            stacked = _reference_flatten(simplified + [comps])
            cols = [list(c) for c in zip(*stacked[:-1])]
            try:
                structure[(i, j)] = tuple(solve(cols, list(stacked[-1])))
            except InconsistentSystemError:
                structure[(i, j)] = None
                failures.append((i, j))
    return independent, abelian, structure, tuple(failures)


def flatten_fields(component_lists) -> list:
    """Given per-field component tuples, clear denominators per slot and
    return each field's exact coefficient vector as a dict {column:
    value}, one column per (slot, monomial) pair that occurs."""
    dens = _slot_denominators(component_lists)
    columns = {}
    return [_flat_vector(comps, dens, columns) for comps in component_lists]


def reference_span_solve(vectors, target, nfields):
    """`linalg.solve` for coefficients c with sum_k c_k vectors[k] =
    target, one equation per column."""
    rows = {}
    for k, vec in enumerate(vectors + [target]):
        for col, c in vec.items():
            rows.setdefault(col, {})[k] = c
    return solve([{k: c for k, c in row.items() if k < nfields}
                  for row in rows.values()],
                 [row.get(nfields, 0) for row in rows.values()],
                 ncols=nfields)


def reference_bracket_solves(fields, rules=()):
    """(independent, structure constants, failures) the way
    `algebra_report` computed them with one solve per bracket: the basis
    flattened once and its rank taken apart, and each bracket solved on
    its own against it, or against the basis flattened together with the
    bracket when the bracket has a denominator the basis lacks."""
    n = len(fields)
    partials = [_partials(f) for f in fields]
    simplified = [tuple(apply_rules(c, rules) for c in f.components())
                  for f in fields]
    dens = _slot_denominators(simplified)
    columns = {}
    vectors = [_flat_vector(comps, dens, columns) for comps in simplified]
    independent = rank(vectors) == n
    structure = {}
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            br = _bracket(fields[i], partials[i], fields[j], partials[j])
            br_comps = tuple(apply_rules(c, rules) for c in br.components())
            if all(is_zero(c, rules) for c in br_comps):
                structure[(i, j)] = tuple(Fraction(0) for _ in fields)
                continue
            try:
                if any(c.den not in slot for c, slot in zip(br_comps, dens)):
                    stacked = flatten_fields(simplified + [br_comps])
                    sol = reference_span_solve(stacked[:-1], stacked[-1], n)
                else:
                    target = _flat_vector(br_comps, dens, columns)
                    sol = reference_span_solve(vectors, target, n)
                structure[(i, j)] = tuple(sol)
            except InconsistentSystemError:
                structure[(i, j)] = None
                failures.append((i, j))
    return independent, structure, tuple(failures)


def reference_prolonged_apply(pf, e):
    ctx = pf.base.context
    out = pf.base.xi * differentiate(e, ctx.x)
    for j in range(1, ctx.m + 1):
        for k in range(0, pf.p + 1):
            out = out + pf.coeff(j, k) * differentiate(e, ctx.jet(j, k))
    return out


def reference_prolonged_residuals(pf, system):
    """The on-shell residuals the way `invariance_residual` first built
    them: the prolonged field applied to y_j^(n) - F_j, the solved form
    substituted for the top jets, then the system's rules."""
    ctx = system.ctx
    n = ctx.order
    return [apply_rules(system.on_shell(pf.apply_to(
        sym(ctx.jet(j, n)) - system.rhs[j - 1])), system.rules)
        for j in range(1, ctx.m + 1)]


def reference_prolong_coefficients(v, p):
    """phi^(k+1) = D_x phi^(k) - y^(k+1) D_x xi through the reference
    total derivative, on a context of order at least p."""
    ctx = v.context
    work = JetContext(ctx.m, max(ctx.order, p), ctx.indep_name, ctx.dep_names)
    dxi = reference_total_derivative(v.xi, work)
    coeffs = {}
    for j in range(1, ctx.m + 1):
        coeffs[(j, 0)] = v.phi[j - 1]
        for k in range(0, p):
            coeffs[(j, k + 1)] = (reference_total_derivative(coeffs[(j, k)], work)
                                  - sym(work.jet(j, k + 1)) * dxi)
    return coeffs


# ---------------------------------------------------------------------------
# Reference atom keys and predicates: the sort keys recomputed from the
# fields on every call, and `contains` through a freshly built `base()`.


def reference_sort_key(a):
    if isinstance(a, Symbol):
        return (_KIND_RANK[a.kind], a.index, a.order, a.name, a.dorders, ())
    return (4, 0, 0, a.head.name, a.head.dorders,
            tuple(arg.sort_key() for arg in a.args))


def reference_contains(e, s):
    for a in e.atoms():
        if isinstance(a, Call):
            if a.head == s or a.head.base() == s:
                return True
        elif a == s:
            return True
    return False


# ---------------------------------------------------------------------------
# Reference linear algebra: dense Gauss-Jordan elimination over Fraction
# rows, column by column, and the sparse Fraction elimination that came
# after it.  The library eliminates fraction-free over sparse integer
# rows; tests assert equal reduced forms, ranks, bases and solutions.


def reference_echelon(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_rref(rows):
    """The sparse Gauss-Jordan elimination over Fractions that the
    library's fraction-free `_rref` replaced: {pivot column: {column:
    Fraction}}, each incoming row reduced by the pivot rows, scaled to a
    leading 1 and subtracted from the earlier pivot rows."""
    pivots = {}
    for row in rows:
        r = {c: v for c, v in enumerate(row) if v}
        for c in pivots.keys() & r.keys():
            _reference_axpy(r, -r[c], pivots[c])
        if not r:
            continue
        pc = min(r)
        inv = Fraction(1) / r[pc]
        r = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            f = prow.get(pc)
            if f is not None:
                _reference_axpy(prow, -f, r)
        pivots[pc] = r
    return pivots


def _reference_axpy(target, f, row):
    for c, v in row.items():
        t = target.get(c, 0) + f * v
        if t:
            target[c] = t
        else:
            del target[c]


def reference_rank(rows):
    if not rows:
        return 0
    return len(reference_echelon(rows)[1])


def reference_nullspace(rows, ncols=None):
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols or 0)]
    ncols = ncols or len(rows[0])
    red, pivots = reference_echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def reference_solve(rows, rhs):
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = reference_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            raise InconsistentSystemError("inconsistent linear system")
        sol[pc] = red[r][ncols]
    return sol


# ---------------------------------------------------------------------------
# Reference brute-force oracle: the ansatz built and prolonged afresh for
# every system, then `invariance_residual` on the full field.  The library
# builds the ansatz and its prolongation once per (m, degree cap); tests
# assert structural equality of the prolongation and the residuals, and
# equal search results.


def reference_oracle_ansatz(m, degree_cap):
    """(params, non-Cartan slot indices, ansatz field) of the brute-force
    search on m equations at this degree cap, built from scratch."""
    ctx = JetContext(m, 2)
    x = sym(ctx.x)
    ys = [sym(ctx.y(j)) for j in range(1, m + 1)]
    params = []
    slots = []

    def poly(tag, deg, flag=False):
        e = zero()
        for d in range(deg + 1):
            if flag:
                slots.append(len(params))
            pv = param("_%s%d" % (tag, d))
            params.append(pv)
            e = e + sym(pv) * x ** d
        return e

    xi = zero()
    for i in range(1, m + 1):
        xi = xi + poly("al%d_" % i, degree_cap, True) * ys[i - 1]
    xi = xi + poly("ga", degree_cap)
    # the monomials 1, y_j and y_i y_j (i <= j), each once, as the
    # products u_i u_j (i <= j) of u = (1, y_1, ..., y_m)
    u = [one()] + ys
    etas = [zero()] * m
    for i in range(m + 1):
        for j in range(i, m + 1):
            for k in range(m):
                etas[k] = (etas[k] + poly("e%d_%d_%d_" % (k + 1, i, j),
                                          degree_cap + 2) * u[i] * u[j])
    return tuple(params), tuple(slots), VectorField(xi, tuple(etas), ctx)


def reference_brute_force_search(system, degree_cap):
    params, slots, ansatz = reference_oracle_ansatz(system.ctx.m, degree_cap)
    rows = []
    for res in invariance_residual(ansatz, system):
        for lin, cst in linear_equations_in_params(res, params):
            assert cst == 0
            rows.append([lin.get(p, 0) for p in params])
    return any(any(vec[i] != 0 for i in slots)
               for vec in nullspace(rows, ncols=len(params)))


# ---------------------------------------------------------------------------
# Linear systems from coefficient matrices, as a running fold over every
# entry, zeros included: the library takes one grouped sum per equation
# over the nonzero entries (`LinearSystemSpec.ode_system`).


def reference_linear_rhs(spec):
    """The right-hand sides y_i^(n) = -sum_k sum_j (A_k)_ij y_j^(k) of
    the spec, each folded with `-` from zero."""
    ctx = spec.ctx
    rhs = []
    for i in range(spec.m):
        f = zero()
        for k, mat in enumerate(spec.matrices):
            for j in range(spec.m):
                f = f - mat[i][j] * sym(ctx.jet(j + 1, spec.n - 1 - k))
        rhs.append(f)
    return rhs


def reference_isotropic_rhs(src, ctx):
    """ctx.m copies of y^(n) = -sum_j A_n^j y^(n-j), folded from zero."""
    n = ctx.order
    nf = normal_form_coeffs(src, n)
    rhs = []
    for i in range(1, ctx.m + 1):
        f = zero()
        for j in range(2, n + 1):
            f = f - nf.coefficient(j) * sym(ctx.jet(i, n - j))
        rhs.append(f)
    return rhs
