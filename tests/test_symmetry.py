import random
from fractions import Fraction

import pytest

from noncartan import (
    ContextMismatchError, JetContext, LinearSystemSpec, MissingInverseError,
    NotInNormalFormError, OdeSystem, PointTransformation, SourceEquation,
    VectorField, algebra_report, call, canonical_basis, change_coordinates,
    classify_linear_system, commutator, const, isotropy_test,
    determining_equations, format_expression, free_fall_symmetries, func,
    invariance_residual, is_non_cartan, is_zero, non_cartan_generators, one,
    prolong, scalar_context, sym, zero,
)
from noncartan import expr as expr_module
from noncartan.expr import collect
from noncartan.symmetry import (
    _bracket, _partials, _prolonged_residuals, full_ansatz,
)

from helpers import (
    assert_matches_fold, monomial_denominators, random_expression,
    random_point_field, reference_algebra_report, reference_bracket_solves,
    reference_commutator, reference_linear_rhs, reference_prolonged_residuals,
)


def free_fall_system():
    return OdeSystem(scalar_context(), (zero(),))


def test_invariance_free_fall():
    system = free_fall_system()
    for v in free_fall_symmetries():
        residuals = invariance_residual(v, system)
        assert all(r.is_rational_zero() for r in residuals)


def test_invariance_failure_detected():
    ctx = scalar_context()
    y = sym(ctx.y(1))
    system = OdeSystem(ctx, (y,))       # y'' = y
    c1 = VectorField(y, (zero(),), ctx)
    residuals = invariance_residual(c1, system)
    assert not is_zero(residuals[0])


def test_context_mismatch():
    system = free_fall_system()
    other = JetContext(2, 2)
    v = VectorField(zero(), (one(), zero()), other)
    with pytest.raises(ContextMismatchError):
        invariance_residual(v, system)


def test_commutator_fixed_values():
    s1, s2, fz, fm, fp, h, c1, c2 = free_fall_symmetries()
    br = commutator(fm, fp)             # [d/dx, x^2 d/dx + xy d/dy] = F_z
    assert br.xi == fz.xi and br.phi == fz.phi
    br2 = commutator(c1, c2)
    assert br2.xi.is_rational_zero()
    assert br2.phi[0].is_rational_zero()


def test_commutator_antisymmetry_randomized():
    rng = random.Random(1)
    for _ in range(50):
        a = random_point_field(rng)
        b = random_point_field(rng)
        lhs = commutator(a, b)
        rhs = commutator(b, a)
        assert lhs.xi == -rhs.xi
        assert all(p == -q for p, q in zip(lhs.phi, rhs.phi))


def test_is_non_cartan():
    fields = free_fall_symmetries()
    flags = [is_non_cartan(v) for v in fields]
    assert flags == [False] * 6 + [True, True]


def test_algebra_report_free_fall():
    fields = free_fall_symmetries()
    report = algebra_report(fields)
    assert report.independent
    assert not report.abelian
    assert report.non_cartan_count == 2
    assert report.bracket_failures == ()
    # [F_m, F_p] = F_z (indices 3, 4 -> 2)
    assert report.constant(3, 4, 2) == 1
    # [C1, C2] = 0
    assert report.structure_constants[(6, 7)] == tuple([Fraction(0)] * 8)
    # antisymmetry through the accessor
    assert report.constant(4, 3, 2) == -1


def test_algebra_report_dependence():
    ctx = scalar_context()
    x = sym(ctx.x)
    a = VectorField(x, (zero(),), ctx)
    b = VectorField(2 * x, (zero(),), ctx)
    report = algebra_report([a, b])
    assert not report.independent


def test_algebra_report_needs_a_field():
    with pytest.raises(ValueError, match="at least one vector field"):
        algebra_report([])


def _third_order_spec():
    """y''' = 0: linear, but not second order."""
    return LinearSystemSpec(1, 3, [((zero(),),)] * 3)


def _fields_in_two_contexts():
    """The field y d/dx in the contexts of order 2 and 3, which differ
    although their point coordinates agree."""
    return [VectorField(sym(ctx.y(1)), (zero(),), ctx)
            for ctx in (scalar_context(2), scalar_context(3))]


@pytest.mark.parametrize("build, error, message", [
    (lambda: isotropy_test(_third_order_spec()), NotInNormalFormError,
     "requires a second-order system"),
    (lambda: classify_linear_system(_third_order_spec()),
     NotInNormalFormError, "requires a second-order system"),
    (lambda: LinearSystemSpec(1, 2, [((zero(),),)]), ValueError,
     "expected 2 coefficient matrices"),
    (lambda: LinearSystemSpec(1, 2, [((zero(),),)] * 2, JetContext(2, 2)),
     ValueError, "context does not match the system shape"),
    (lambda: commutator(*_fields_in_two_contexts()), ContextMismatchError,
     "contexts differ"),
    (lambda: algebra_report(_fields_in_two_contexts()), ContextMismatchError,
     "contexts differ"),
    (lambda: SourceEquation(one(), one(), sym(scalar_context().x), (),
                            scalar_context().x),
     ValueError, "u does not satisfy the source equation"),
], ids=["isotropy-order-3", "classify-order-3", "matrix-count",
        "context-shape", "commutator-contexts", "report-contexts",
        "source-u"])
def test_guards_refuse_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _random_rational_field(rng, ctx):
    """A field whose components are polynomials in the point coordinates
    and two calls, some divided by a monomial or by x + 1."""
    coords = [sym(s) for s in ctx.point_symbols()]
    atoms = coords + [call(func("f"), coords[0]),
                      call(func("g", 2), coords[0] + coords[-1], coords[1])]

    def component():
        e = random_expression(rng, 2, atoms)
        kind = rng.random()
        if kind < 0.3:
            return e / rng.choice(coords) ** rng.randint(1, 2)
        if kind < 0.45:
            return e / (coords[0] + 1)
        return e

    return VectorField(component(), tuple(component() for _ in range(ctx.m)),
                       ctx)


def _random_coefficient(rng, x, atoms):
    """Zero, or a polynomial in x and two calls of x, some divided by a
    monomial and some by one of three multi-term polynomials."""
    kind = rng.random()
    if kind < 0.25:
        return zero()
    e = random_expression(rng, 2, atoms)
    if kind < 0.45:
        return e / (rng.randint(1, 3) * x ** rng.randint(1, 2))
    if kind < 0.6:
        return e / rng.choice((x + 1, x - 2, x ** 2 + 1))
    return e


def test_linear_system_matches_reference_fold():
    """`LinearSystemSpec.ode_system` against the running fold over every
    entry, first-order terms included (see `assert_matches_fold`): the
    same expression when every entry is a polynomial or lies over one
    monomial, else the same value over a denominator no longer."""
    rng = random.Random(61)
    x = sym(JetContext(1, 1).x)
    atoms = [x, call(func("f"), x), call(func("g"), x + 1)]
    structural = 0
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                mats = [[[_random_coefficient(rng, x, atoms)
                          for _ in range(m)] for _ in range(m)]
                        for _ in range(n)]
                spec = LinearSystemSpec(m, n, mats)
                system = spec.ode_system()
                monomial = monomial_denominators(
                    *(e for mat in spec.matrices for row in mat for e in row))
                structural += monomial
                assert system.ctx == spec.ctx
                for got, want in zip(system.rhs, reference_linear_rhs(spec),
                                     strict=True):
                    assert_matches_fold(got, want, monomial)
    assert 10 < structural < 86


def test_commutator_matches_reference_bracket_randomized():
    """commutator, and the bracket from partials taken once per field
    that algebra_report builds, match the bracket built by applying each
    field with the running-sum `reference_field_apply`, component by
    component (see `assert_matches_fold`)."""
    rng = random.Random(53)
    for case in range(60):
        ctx = JetContext(1 + case % 2, 2)
        v = _random_rational_field(rng, ctx)
        w = _random_rational_field(rng, ctx)
        expected = reference_commutator(v, w).components()
        monomial = monomial_denominators(*v.components(), *w.components())
        for got in (commutator(v, w),
                    _bracket(v, _partials(v), w, _partials(w))):
            assert len(got.components()) == len(expected)
            for g, e in zip(got.components(), expected):
                assert_matches_fold(g, e, monomial)


def test_algebra_report_matches_reference():
    """The report from partials taken once per field and a basis
    flattened once equals the per-pair computation on rule-bound bases,
    dependent bases, brackets outside the span (one of them through a
    monomial the basis lacks) and brackets with a denominator the basis
    lacks."""
    src = SourceEquation.symbolic()
    ctx = scalar_context()
    x, y = sym(ctx.x), sym(ctx.y(1))
    cases = [(free_fall_symmetries(), ())]
    for m, n in ((1, 2), (2, 2), (1, 3), (2, 3)):
        cases.append((canonical_basis(src, JetContext(m, n)), src.rules))
    cases.append((non_cartan_generators(src, JetContext(2, 2)), src.rules))
    cases.append((canonical_basis(src, ctx)
                  + [VectorField(src.u / (x + 1), (y,), ctx)], src.rules))
    # dependent bases: every bracket in the span, and one outside it
    cases.append(([VectorField(one(), (zero(),), ctx),
                   VectorField(const(2), (zero(),), ctx),
                   VectorField(x, (zero(),), ctx)], ()))
    cases.append(([VectorField(x, (zero(),), ctx),
                   VectorField(2 * x, (zero(),), ctx),
                   VectorField(y, (x,), ctx)], ()))
    # [d/dx, x^2 d/dx] = 2x d/dx has the basis's denominators and a
    # monomial no field has
    cases.append(([VectorField(one(), (zero(),), ctx),
                   VectorField(x ** 2, (zero(),), ctx)], ()))
    # every d/dy component is over x^2, yet [e1, v] = d/dy / x = e2 - e1
    # is in the span with the new denominator x
    cases.append(([VectorField(zero(), (1 / x ** 2,), ctx),
                   VectorField(zero(), ((x + 1) / x ** 2,), ctx),
                   VectorField(x ** 2 / 2, (1 / x ** 2,), ctx)], ()))
    cases.append(([VectorField(1 / x, (y,), ctx),
                   VectorField(y, (x ** 2,), ctx),
                   VectorField(1 / (x + 1), (zero(),), ctx)], ()))
    rng = random.Random(59)
    for _ in range(6):
        cases.append(([_random_rational_field(rng, ctx) for _ in range(3)],
                      ()))
    seen = set()
    for fields, rules in cases:
        report = algebra_report(fields, rules)
        independent, abelian, structure, failures = \
            reference_algebra_report(fields, rules)
        assert report.independent == independent
        assert report.abelian == abelian
        assert report.structure_constants == structure
        assert report.bracket_failures == failures
        for row in structure.values():
            assert row is None or all(type(c) is Fraction for c in row)
        seen.add((independent, bool(failures)))
    assert seen == {(True, False), (True, True), (False, False),
                    (False, True)}


def test_bracket_solve_matches_per_bracket_solves_randomized():
    """The one elimination of every in-span bracket against the basis
    gives the structure constants, failures and independence of one
    solve per bracket (`reference_bracket_solves`), on random
    combinations of closed algebras, with dependent members, fields whose
    brackets leave the span and fields with new denominators."""
    src = SourceEquation.symbolic()
    bases = [(free_fall_symmetries(), ()),
             (canonical_basis(SourceEquation.trivial(), JetContext(2, 2)),
              ()),
             (canonical_basis(src, scalar_context()), src.rules)]
    rng = random.Random(67)
    seen = set()
    for _ in range(40):
        base, rules = rng.choice(bases)
        ctx = base[0].context

        def combination():
            terms = rng.sample(base, rng.randint(1, 3))
            out = terms[0].scale(rng.choice((-2, -1, 1, 2)))
            for f in terms[1:]:
                out = out + f.scale(Fraction(rng.randint(-3, 3), 2))
            return out

        fields = [combination() for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.4:
            a, b = rng.sample(fields, 2)
            fields.insert(rng.randrange(len(fields) + 1),
                          a.scale(Fraction(1, 3)) - b.scale(2))
        if rng.random() < 0.4:
            fields.append(random_point_field(rng, ctx))
        if rng.random() < 0.2:
            fields.append(_random_rational_field(rng, ctx))
        report = algebra_report(fields, rules)
        independent, structure, failures = \
            reference_bracket_solves(fields, rules)
        assert report.independent == independent
        assert report.structure_constants == structure
        assert report.bracket_failures == failures
        seen.add(("dependent", not independent))
        seen.add(("outside", bool(failures)))
        seen.add(("inside", any(row is not None and any(row)
                                for row in structure.values())))
    assert seen == {(kind, flag) for kind in ("dependent", "outside",
                                              "inside")
                    for flag in (True, False)}


def test_determining_equations_free_fall():
    # generic ansatz xi(x), phi(x): determining system is xi'' = 0,
    # phi'' = 0
    ctx = scalar_context()
    x = sym(ctx.x)
    xi = call(func("xi"), x)
    phi = call(func("phi"), x)
    system = free_fall_system()
    ds = determining_equations(system, VectorField(xi, (phi,), ctx))
    assert len(ds) == 2
    xipp = call(func("xi", 1, (2,)), x)
    phipp = call(func("phi", 1, (2,)), x)
    assert ds.contains(xipp)
    assert ds.contains(phipp)
    assert not ds.contains(xi)
    names = [u.name for u in ds.unknowns]
    assert names == ["xi", "phi"]


def test_determining_equations_print_nothing(monkeypatch):
    """The dedup of the determining equations never prints one: each
    distinct equation keeps its first position, and each (residual,
    monomial) points at its equation."""
    ctx = JetContext(2, 2)
    x, y, w = (sym(s) for s in ctx.point_symbols())
    a, b, c = (call(func(name), x) for name in "ABC")
    system = OdeSystem(ctx, (a * y + b * w, c * y - a * w))
    ansatz = full_ansatz(ctx)

    def refuse(e):
        raise AssertionError("determining_equations printed an expression")

    with monkeypatch.context() as patch:
        patch.setattr(expr_module, "format_expression", refuse)
        ds = determining_equations(system, ansatz)
    jet_vars = [ctx.jet(j, 1) for j in (1, 2)]
    expected = []
    for nu, res in enumerate(invariance_residual(ansatz, system), start=1):
        groups = collect(res, jet_vars)
        for mon, coeff in groups.items():
            eq = coeff / coeff.num[0][1]
            if eq not in expected:
                expected.append(eq)
            assert ds.equations[ds.monomial_index[(nu, mon)]] == eq
    assert list(ds.equations) == expected
    assert len(ds.monomial_index) > len(ds.equations)


def test_point_transformation_inverse_check():
    old = scalar_context()
    new = JetContext(1, 2, indep_name="t", dep_names=("u",))
    x, y = old.x, old.y(1)
    t = sym(new.x)
    u = sym(new.y(1))
    fwd = (sym(x) + 1, 2 * sym(y))
    good = PointTransformation(old, new, fwd, ({x: t - 1, y: u / 2},))
    assert good.verify_inverse()
    bad = PointTransformation(old, new, fwd, ({x: t, y: u},))
    assert not bad.verify_inverse()
    none = PointTransformation(old, new, fwd)
    with pytest.raises(MissingInverseError):
        none.push_old_to_new(sym(x))


def test_change_coordinates_translation():
    # d/dy maps to d/du under u = y - x^2, t = x
    old = scalar_context()
    new = JetContext(1, 2, indep_name="t", dep_names=("u",))
    x, y = old.x, old.y(1)
    t = sym(new.x)
    u = sym(new.y(1))
    fwd = (sym(x), sym(y) - sym(x) ** 2)
    tr = PointTransformation(old, new, fwd, ({x: t, y: u + t ** 2},))
    v = VectorField(zero(), (one(),), old)
    out = change_coordinates(v, tr)
    assert out.xi.is_rational_zero()
    assert out.phi[0] == one()
    # d/dx picks up the moving-frame term
    w = change_coordinates(VectorField(one(), (zero(),), old), tr)
    assert w.xi == one()
    assert w.phi[0] == -2 * t


def test_non_cartan_preserved_under_fiber_preserving_map():
    old = scalar_context()
    new = JetContext(1, 2, indep_name="t", dep_names=("u",))
    x, y = old.x, old.y(1)
    t = sym(new.x)
    u = sym(new.y(1))
    tr = PointTransformation(old, new, (2 * sym(x) + 1, 3 * sym(y)),
                             ({x: (t - 1) / 2, y: u / 3},))
    for v in free_fall_symmetries():
        pushed = change_coordinates(v, tr)
        assert is_non_cartan(pushed) == is_non_cartan(v)


def test_on_shell_substitution():
    ctx = scalar_context()
    y = sym(ctx.y(1))
    system = OdeSystem(ctx, (y,))
    top = sym(ctx.jet(1, 2))
    assert system.on_shell(top ** 2 + top) == y ** 2 + y


def test_system_order_validation():
    ctx = scalar_context()
    top = sym(ctx.jet(1, 2))
    with pytest.raises(ValueError):
        OdeSystem(ctx, (top,))


def _random_rhs(rng, ctx, kind):
    """A right-hand side of order below the system's: a polynomial in x
    and the lower jets, with an opaque q(x) factor or H(y') term, or
    divided by a polynomial."""
    lower = [sym(ctx.x)] + [sym(ctx.jet(j, k)) for j in range(1, ctx.m + 1)
                            for k in range(ctx.order)]
    f = zero()
    for _ in range(rng.randint(1, 3)):
        term = const(rng.choice((-2, -1, 1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(lower)
        f = f + term
    if kind == "opaque":
        f = f * call(func("q"), sym(ctx.x))
        if ctx.order > 1:
            f = f + call(func("H"), sym(ctx.jet(1, 1)))
    elif kind == "rational":
        f = f / (sym(ctx.x) + rng.choice((1, 2)))
    return f


def _random_field(rng, ctx, kind):
    v = random_point_field(rng, ctx)
    if kind == "opaque":
        args = [sym(s) for s in ctx.point_symbols()]
        f = call(func("f", ctx.m + 1), *args)
        return VectorField(v.xi + f, tuple(p - f * args[0] for p in v.phi),
                           ctx)
    if kind == "rational":
        d = sym(ctx.x) + 2
        return VectorField(v.xi + 1 / d, v.phi, ctx)
    return v


def test_prolonged_residuals_match_substitution_path():
    """The residuals from the on-shell split of the top prolongation
    equal, structurally and in print, the field applied to y^(n) - F and
    the solved form substituted, at orders 1, 2 and 3, for polynomial,
    opaque and rational fields and right-hand sides."""
    rng = random.Random(43)
    kinds = ("polynomial", "opaque", "rational")
    split_used = 0
    seen = set()
    for case in range(90):
        # order 3 with two rational equations runs for many seconds in
        # the rational sums both paths share, so it stays scalar
        order = 1 + case % 3
        ctx = JetContext(1 if order == 3 else rng.choice((1, 2)), order)
        # the rational kinds take the substitution path in both, and
        # cost the most, so they come less often
        field_kind, rhs_kind = rng.choices(kinds, (4, 4, 1), k=2)
        system = OdeSystem(ctx, tuple(_random_rhs(rng, ctx, rhs_kind)
                                      for _ in range(ctx.m)))
        pf = prolong(_random_field(rng, ctx, field_kind), ctx.order)
        got = _prolonged_residuals(pf, system)
        ref = reference_prolonged_residuals(pf, system)
        assert got == ref, case
        assert ([format_expression(r) for r in got]
                == [format_expression(r) for r in ref]), case
        assert (pf.top_split is not None) == (
            ctx.order > 1 and field_kind != "rational"), case
        split_used += (pf.top_split is not None and rhs_kind != "rational")
        seen.update({("field", order, field_kind), ("rhs", order, rhs_kind)})
    assert split_used > 30
    assert len(seen) == 18
    # the source rules rewrite the split path's result as the other's
    src = SourceEquation.symbolic()
    ctx = JetContext(2, 2)
    y, w = sym(ctx.y(1)), sym(ctx.y(2))
    system = OdeSystem(ctx, (-src.q * y, -src.q * w), src.rules)
    for v in non_cartan_generators(src, ctx) + canonical_basis(src, ctx):
        pf = prolong(v, 2)
        assert pf.top_split is not None
        got = _prolonged_residuals(pf, system)
        assert got == reference_prolonged_residuals(pf, system)
        assert all(r.is_rational_zero() for r in got)
