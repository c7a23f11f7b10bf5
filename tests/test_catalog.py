import pytest

from noncartan import (
    IterativeOperator, JetContext, LinearSystemSpec, SourceEquation,
    algebra_report, c1_symmetry_pde_residual, call, canonical_basis,
    change_coordinates, classify_linear_system, const, differentiate,
    format_expression, func, indep, invariance_residual, is_non_cartan,
    is_zero, isotropic_system, iterative_power, non_cartan_family,
    non_cartan_generators, nonlinear_counterexample, normal_form_coeffs,
    normalize_s, parse, reduction_transformation, scalar_context,
    source_solution_basis, Symbol, sym, zero, one,
)
from noncartan import catalog
from noncartan.catalog import NormalFormCoefficients, _check_annihilates
from noncartan.linalg import InconsistentSystemError

from helpers import reference_isotropic_rhs


X = indep("x")


def test_source_equation_validates():
    src = SourceEquation.symbolic()
    assert is_zero(src.wronskian() - 1, src.rules)
    assert is_zero(src.d(src.v, 2) + src.q * src.v, src.rules)
    x = sym(X)
    with pytest.raises(ValueError):
        SourceEquation(zero(), sym(X), sym(X), (), X)


def test_trivial_and_for_q():
    triv = SourceEquation.for_q(zero())
    assert triv.u == one()
    assert triv.v == sym(X)
    assert triv.rules == ()
    src = SourceEquation.for_q(const(1))
    assert src.q == one()


def test_source_solution_basis():
    src = SourceEquation.symbolic()
    basis = source_solution_basis(src, 3)
    assert len(basis) == 3
    assert basis[0] == src.u ** 2
    assert basis[2] == src.v ** 2


def test_normalize_s():
    x = sym(X)
    r = call(func("r"), x)
    s2 = normalize_s(r, 2)
    rp = call(func("r", 1, (1,)), x)
    assert s2 == -rp / 2
    s3 = normalize_s(r, 3)
    assert s3 == -rp
    assert normalize_s(x ** 2 + 1, 2) == -x
    # the choice kills the second-highest coefficient
    for r in (call(func("r"), x), x ** 2 + 1):
        for n in range(2, 6):
            ctx = scalar_context(n)
            expanded = IterativeOperator(r, normalize_s(r, n)) \
                .power_applied(n, ctx)
            coeff = differentiate(expanded, ctx.jet(1, n - 1))
            assert coeff.is_rational_zero(), (r, n)
    # r must be a nonzero function of x alone
    for bad in (zero(), sym(scalar_context().y(1))):
        with pytest.raises(ValueError):
            normalize_s(bad, 2)


def test_iterative_power_normal_form():
    x = sym(X)
    system = iterative_power(IterativeOperator(one(), zero()), 2)
    assert system.rhs[0].is_rational_zero()
    ctx = scalar_context(2)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    # Omega = x d/dx: Omega^2[y] = x^2 y'' + x y', so y'' = -y'/x
    system2 = iterative_power(IterativeOperator(x, zero()), 2)
    assert system2.rhs[0] == -p / x


def test_normal_form_coeffs_low_orders():
    src = SourceEquation.symbolic()
    nf2 = normal_form_coeffs(src, 2)
    assert nf2.coefficient(2) == src.q
    nf3 = normal_form_coeffs(src, 3)
    assert nf3.coefficient(2) == 4 * src.q
    assert nf3.coefficient(3) == 2 * src.d(src.q)
    nf5 = normal_form_coeffs(src, 5)
    assert [format_expression(nf5.coefficient(j)) for j in range(2, 6)] == [
        "20*q(x)", "30*q'(x)", "64*q(x)^2 + 18*q''(x)",
        "64*q(x)*q'(x) + 4*q'''(x)"]


# the printed coefficients for given q, pinned so that a change of method
# keeps every printed byte
NORMAL_FORM_PINS = {
    ("x", 2): ["x"],
    ("x", 3): ["4*x", "2"],
    ("x", 4): ["10*x", "10", "9*x^2"],
    ("x", 5): ["20*x", "30", "64*x^2", "64*x"],
    ("x^2+1", 2): ["1 + x^2"],
    ("x^2+1", 3): ["4 + 4*x^2", "4*x"],
    ("x^2+1", 4): ["10 + 10*x^2", "20*x", "15 + 18*x^2 + 9*x^4"],
    ("x^2+1", 5): ["20 + 20*x^2", "60*x", "100 + 128*x^2 + 64*x^4",
                   "128*x + 128*x^3"],
    ("1/(x+1)", 2): ["1/(1 + x)"],
    ("1/(x+1)", 3): ["4/(1 + x)", "(-2)/(1 + 2*x + x^2)"],
    ("1/(x+1)", 4): ["10/(1 + x)", "(-10)/(1 + 2*x + x^2)",
                     "(15 + 54*x + 72*x^2 + 42*x^3 + 9*x^4)"
                     "/(1 + 6*x + 15*x^2 + 20*x^3 + 15*x^4 + 6*x^5 + x^6)"],
}


@pytest.mark.parametrize("q, n", sorted(NORMAL_FORM_PINS))
def test_normal_form_coeffs_for_given_q(q, n):
    nf = normal_form_coeffs(SourceEquation.for_q(parse(q)), n)
    assert [format_expression(nf.coefficient(j))
            for j in range(2, n + 1)] == NORMAL_FORM_PINS[q, n]


def test_normal_form_coefficient_index_range():
    nf = normal_form_coeffs(SourceEquation.symbolic(), 3)
    for j in (-1, 0, 1, 4):
        with pytest.raises(ValueError):
            nf.coefficient(j)


def test_normal_form_annihilates_basis():
    src = SourceEquation.symbolic()
    for n in (3, 4):
        nf = normal_form_coeffs(src, n)
        for s_k in source_solution_basis(src, n):
            resid = src.d(s_k, n)
            for j in range(2, n + 1):
                resid = resid + nf.coefficient(j) * src.d(s_k, n - j)
            assert is_zero(resid, src.rules)


def test_normal_form_recheck_catches_each_bad_coefficient():
    """The recheck runs once, on a combination of the s_k, and still
    refuses coefficients off by one in any A_n^j, and coefficients off by
    s_k D - s_k', which annihilates s_k and no other member of the basis."""
    src = SourceEquation.symbolic()
    for n in (3, 4):
        nf = normal_form_coeffs(src, n)
        _check_annihilates(src, nf)
        wrong = [list(nf.coeffs) for _ in range(n - 1)]
        for j, coeffs in enumerate(wrong):
            coeffs[j] = coeffs[j] + 1
        for s_k in source_solution_basis(src, n):
            coeffs = list(nf.coeffs)
            coeffs[-2] = coeffs[-2] + s_k
            coeffs[-1] = coeffs[-1] - src.d(s_k)
            wrong.append(coeffs)
        for coeffs in wrong:
            with pytest.raises(InconsistentSystemError, match="annihilate"):
                _check_annihilates(src, NormalFormCoefficients(n, coeffs))


@pytest.fixture
def cold_tables():
    """Empty the process-wide normal-form and source-equation tables
    before and after the test."""
    normal_form_coeffs.cache_clear()
    catalog._source.cache_clear()
    yield
    normal_form_coeffs.cache_clear()
    catalog._source.cache_clear()


def test_normal_form_table_checked_once_per_key(cold_tables, monkeypatch):
    """Each new (src, n) builds its table and checks it once; a repeat
    returns the same table and checks nothing."""
    checked = []

    def counting(src, nf):
        checked.append((src, nf.n))
        _check_annihilates(src, nf)

    monkeypatch.setattr(catalog, "_check_annihilates", counting)
    src = SourceEquation.symbolic()
    renamed = SourceEquation.symbolic({"u"})
    rational = SourceEquation.for_q(1 / (sym(X) + 1))
    keys = [(src, 3), (src, 4), (renamed, 3), (rational, 3)]
    tables = [normal_form_coeffs(s, n) for s, n in keys]
    assert checked == keys
    for (s, n), nf in zip(keys * 2, tables * 2):
        assert normal_form_coeffs(s, n) is nf
    assert checked == keys
    assert format_expression(tables[2].coefficient(2)) == "4*q(x)"


def test_symbolic_source_built_once_per_name_set(cold_tables):
    """One source equation per set of names to avoid, whatever the
    container; another set names the pair apart."""
    src = SourceEquation.symbolic()
    assert SourceEquation.symbolic([]) is src
    renamed = SourceEquation.symbolic(("u", "H"))
    assert SourceEquation.symbolic(["H", "u", "u"]) is renamed
    assert renamed is not src
    assert format_expression(renamed.u) == "u_(x)"
    assert catalog._source.cache_info().misses == 2


def test_source_built_once_per_q(cold_tables, monkeypatch):
    """Equal coefficients q give the same source equation, and a repeated
    isotropic classification builds and checks its source once."""
    built = []
    check = SourceEquation.__post_init__

    def counting(src):
        built.append(src.q)
        check(src)

    monkeypatch.setattr(SourceEquation, "__post_init__", counting)
    q = 5 * call(func("q"), sym(X)) + 3
    assert SourceEquation.for_q(q) is SourceEquation.for_q(parse("3+5*q(x)"))
    assert SourceEquation.for_q(zero()) is SourceEquation.trivial()
    spec = LinearSystemSpec.from_matrix(((-q, zero()), (zero(), -q)))
    verdicts = [classify_linear_system(spec) for _ in range(2)]
    assert verdicts[0].in_canonical_class
    assert verdicts[1] == verdicts[0]
    assert built == [q, zero()]


# a context whose shape and names are none of the defaults
NAMED_ORDER_3 = JetContext(2, 3, dep_names=("a", "b"))


def assert_fields_carry(fields, ctx):
    """Every field is built in ctx: it carries ctx, and its components
    depend on no point coordinate outside ctx."""
    points = set(ctx.point_symbols())
    for v in fields:
        assert v.context == ctx
        assert {a for c in v.components() for a in c.atoms()
                if isinstance(a, Symbol)} <= points


def test_canonical_basis_counts():
    src = SourceEquation.symbolic()
    for ctx in (JetContext(1, 2), JetContext(2, 2), JetContext(2, 3),
                NAMED_ORDER_3):
        fields = canonical_basis(src, ctx)
        assert len(fields) == ctx.m ** 2 + ctx.order * ctx.m + 3
        assert_fields_carry(fields, ctx)
    with pytest.raises(ValueError):
        canonical_basis(src, JetContext(1, 1))


@pytest.mark.parametrize("src", [
    SourceEquation.symbolic(), SourceEquation.for_q(sym(X) / (sym(X) + 1)),
    SourceEquation.trivial()], ids=["symbolic", "rational", "trivial"])
def test_isotropic_system_matches_reference_fold(src):
    """The spec of the scalar matrices A_n^j I gives the right-hand sides
    of the running fold over the A_n^j, as the same expressions."""
    for m in (1, 2, 3):
        for n in (2, 3, 4, 5):
            ctx = JetContext(m, n)
            system = isotropic_system(src, ctx)
            assert system.ctx == ctx and system.rules == src.rules
            assert list(system.rhs) == reference_isotropic_rhs(src, ctx)


def test_canonical_basis_invariance():
    src = SourceEquation.symbolic()
    for m, n in ((1, 2), (2, 2)):
        system = isotropic_system(src, JetContext(m, n))
        for v in canonical_basis(src, system.ctx):
            residuals = invariance_residual(v, system)
            assert all(is_zero(r, src.rules) for r in residuals)


def test_non_cartan_generators_suite():
    src = SourceEquation.symbolic()
    for m in (1, 2, 3):
        ctx = JetContext(m, 2)
        system = isotropic_system(src, ctx)
        fields = non_cartan_generators(src, ctx)
        assert len(fields) == 2 * m
        assert_fields_carry(fields, ctx)
        for v in fields:
            assert is_non_cartan(v)
            residuals = invariance_residual(v, system)
            assert all(is_zero(r, src.rules) for r in residuals)
        report = algebra_report(fields, src.rules)
        assert report.abelian
        assert report.independent
    fields = non_cartan_generators(src, NAMED_ORDER_3)
    assert len(fields) == 4
    assert_fields_carry(fields, NAMED_ORDER_3)
    assert format_expression(fields[2].phi[0]) == "a*b*u'(x)"


@pytest.mark.parametrize("src", [SourceEquation.symbolic(),
                                 SourceEquation.trivial()],
                         ids=["symbolic", "trivial"])
def test_builders_refuse_a_context_in_another_variable(src):
    """The source pair is a function of x: in a context named (t, u) it
    would be constant, so each builder refuses the context and names
    both variables."""
    ctx = JetContext(1, 2, indep_name="t", dep_names=("u",))
    for build in (isotropic_system, canonical_basis, non_cartan_generators):
        with pytest.raises(ValueError, match="^context variable t is not "
                           "the source equation's variable x$"):
            build(src, ctx)


def test_scalar_non_cartan_trivial_source():
    ctx = scalar_context()
    c11, c12 = non_cartan_generators(SourceEquation.trivial(), ctx)
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    assert c11.xi == y and c11.phi[0].is_rational_zero()
    assert c12.xi == x * y and c12.phi[0] == y ** 2


def test_reduction_transformation_trivial_q():
    tr = reduction_transformation(SourceEquation.trivial(), 2)
    assert tr.verify_inverse()


def test_reduction_transformation_reads_the_pair_names():
    """The composition rewrite is written in the pair's own heads, so a
    pair renamed apart from u inverts as the plain pair does."""
    for avoid in ((), {"u"}):
        src = SourceEquation.symbolic(avoid)
        assert reduction_transformation(src, 2).verify_inverse()


def test_reduction_transformation_symbolic_q():
    src = SourceEquation.symbolic()
    tr = reduction_transformation(src, 2)
    new = tr.new_ctx
    z = sym(new.x)
    w = sym(new.y(1))
    c11, c12 = non_cartan_generators(src, scalar_context())
    out11 = change_coordinates(c11, tr)
    assert is_zero(out11.xi - w, src.rules)
    assert is_zero(out11.phi[0], src.rules)
    out12 = change_coordinates(c12, tr)
    assert is_zero(out12.xi - z * w, src.rules)
    assert is_zero(out12.phi[0] - w ** 2, src.rules)


def test_family_admits_non_cartan_pair():
    system = non_cartan_family()
    for v in non_cartan_generators(SourceEquation.trivial(), system.ctx):
        residuals = invariance_residual(v, system)
        assert all(is_zero(r) for r in residuals)


def test_counterexample_admits_non_cartan_pair():
    system = nonlinear_counterexample()
    for v in non_cartan_generators(SourceEquation.trivial(), system.ctx):
        residuals = invariance_residual(v, system)
        assert all(is_zero(r) for r in residuals)


def test_counterexample_is_in_family():
    # the counterexample equals the family member with
    # H(t) = -(1 + t)/t evaluated at t = x - y/p
    fam = non_cartan_family()
    ctx = fam.ctx
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    t = x - y / p
    h_inst = -(1 + t) / t
    concrete = (p / y) ** 3 * h_inst
    target = nonlinear_counterexample().rhs[0]
    assert is_zero(concrete - target)


def test_c1_pde_residual():
    ctx = scalar_context()
    p = sym(ctx.jet(1, 1))
    # F = p: -y*0 - 3p*p + p^2*1 = -2 p^2
    assert c1_symmetry_pde_residual(p, ctx) == -2 * p ** 2
    assert c1_symmetry_pde_residual(zero(), ctx).is_rational_zero()
    fam = non_cartan_family()
    assert is_zero(c1_symmetry_pde_residual(fam.rhs[0], fam.ctx))


def test_c1_pde_residual_reads_the_given_context():
    """C1 = u d/dx leaves u'' = u'^3/u invariant (F = p^3/y in the
    variable u): the residual is taken in the given context, which has
    no default, with no y mixed in."""
    ctx = JetContext(1, 2, dep_names=("u",))
    u, up = sym(ctx.y(1)), sym(ctx.jet(1, 1))
    assert c1_symmetry_pde_residual(up ** 3 / u, ctx).is_rational_zero()
    with pytest.raises(TypeError):
        c1_symmetry_pde_residual(up ** 3 / u)


def test_free_fall_matches_canonical_construction():
    # the trivial-source canonical data reproduce the free-fall algebra
    src = SourceEquation.trivial()
    ctx = scalar_context()
    fields = canonical_basis(src, ctx) + non_cartan_generators(src, ctx)
    assert len(fields) == 8
    report = algebra_report(fields)
    assert report.independent
    assert report.non_cartan_count == 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_non_cartan_count_is_free_of_the_basis(m):
    """Adding C_11 to each Cartan field of the y'' = 0 algebra leaves a
    basis of the same span, so the count stays 2m, not the 8, 15 and 24
    fields of that basis with d xi/dy != 0."""
    src, ctx = SourceEquation.trivial(), JetContext(m, 2)
    generators = non_cartan_generators(src, ctx)
    cartan = canonical_basis(src, ctx)
    shifted = [v + generators[0] for v in cartan] + generators
    assert all(is_non_cartan(v) for v in shifted)
    for fields in (cartan + generators, shifted):
        report = algebra_report(fields)
        assert report.independent
        assert report.non_cartan_count == 2 * m
