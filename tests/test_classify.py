import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from noncartan import (
    ClassificationVerdict, JetContext, LinearSystemSpec, NotInNormalFormError,
    OpaqueArgumentError, RewriteRule, SourceEquation, TraceReductionError,
    brute_force_non_cartan_search, call, classify_linear_system,
    classify_system,
    const, cubic_in_p_test, determining_system_2x2, differentiate, func,
    indep, invariance_residual, is_non_cartan,
    non_cartan_existence_2x2, non_cartan_search, nonlinear_counterexample,
    OdeSystem, scalar_context, sym, trace_free_reduce, zero,
    one, isotropy_test, prolong, VectorField,
)
from noncartan import classify as classify_module
from noncartan import linalg
from noncartan.classify import (
    _oracle_ansatz, _p_degree, _search_rows, _trivial_witnesses,
    _verified_witnesses, _witness_prolongation,
)
from noncartan.cli import main
from noncartan.expr import _ONE_TERMS, Expression
from noncartan.io import parse_system
from noncartan.linalg import _affine_groups, linear_equations_in_params
from noncartan.jet import ProlongedField
from noncartan.symmetry import (
    _prolonged_residuals, _split_pairs, _system_pieces,
)

from helpers import reference_brute_force_search, reference_oracle_ansatz

X = indep("x")


def _mat(*entries):
    m = int(len(entries) ** 0.5)
    return tuple(tuple(entries[i * m + j] for j in range(m))
                 for i in range(m))


def _trace_free(mat):
    """y'' = M y for the m x m matrix M, as the spec (A_1, A_0) = (0, -M)."""
    m = len(mat)
    return LinearSystemSpec(m, 2, (((zero(),) * m,) * m, tuple(
        tuple(-e for e in row) for row in mat))).ode_system()


def _spec2(a11, a12, a21, a22):
    z = zero()
    return LinearSystemSpec(2, 2, (_mat(z, z, z, z),
                                   _mat(a11, a12, a21, a22)))


# ---------------------------------------------------------------------------
# cubic-in-p test


def test_cubic_polynomial_cases():
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p1 = ctx.jet(1, 1)
    p = sym(p1)
    assert cubic_in_p_test(zero(), p1)
    assert cubic_in_p_test(x * p ** 3 + y * p - 2, p1)
    assert not cubic_in_p_test(p ** 4, p1)
    assert cubic_in_p_test(p ** 3 / (y + 1), p1)


def test_cubic_test_reads_the_given_variable():
    """The degree is taken in the p the caller names, which has no
    default: u'^5 is of degree 5 in u', and of degree 0 in y', a symbol
    it does not contain."""
    ctx = JetContext(1, 2, dep_names=("u",))
    up = ctx.jet(1, 1)
    f = sym(up) ** 5
    assert not cubic_in_p_test(f, up)
    assert cubic_in_p_test(f, scalar_context().jet(1, 1))
    with pytest.raises(TypeError):
        cubic_in_p_test(f)


def test_cubic_rational_division():
    ctx = scalar_context()
    y = sym(ctx.y(1))
    p1 = ctx.jet(1, 1)
    p = sym(p1)
    assert cubic_in_p_test((p ** 4 + y * p ** 3) / p, p1)
    assert not cubic_in_p_test((p ** 5 + y * p ** 4) / p, p1)
    assert not cubic_in_p_test(p ** 3 / (p + y), p1)
    # a denominator that divides the numerator exactly in p
    x = sym(ctx.x)
    assert cubic_in_p_test(x * (p ** 2 - 1) / ((p - 1) * (x + 1)), p1)
    assert cubic_in_p_test(x * (p ** 4 - 1) / ((p - 1) * (x + 1)), p1)
    assert not cubic_in_p_test(x * (p ** 5 - 1) / ((p - 1) * (x + 1)), p1)
    # the degree of the quotient, which the scalar verdict prints, or
    # None when the division leaves a remainder
    assert _p_degree(x * (p ** 5 - 1) / ((p - 1) * (x + 1)), p1) == 4
    assert _p_degree((p ** 5 + y * p ** 4) / p, p1) == 4
    assert _p_degree(y * p ** 2 + x, p1) == 2
    assert _p_degree(y / (x + 1), p1) == 0
    assert _p_degree(p ** 3 / (p + y), p1) is None
    assert _p_degree(1 / (p + 1), p1) is None
    assert _p_degree(nonlinear_counterexample().rhs[0], p1) is None


def test_cubic_counterexample():
    system = nonlinear_counterexample()
    assert not cubic_in_p_test(system.rhs[0], system.ctx.jet(1, 1))


def test_cubic_inapplicable_with_opaque_p():
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    f = (p / y) ** 3 * call(func("H"), x - y / p)
    with pytest.raises(OpaqueArgumentError):
        cubic_in_p_test(f, ctx.jet(1, 1))


# ---------------------------------------------------------------------------
# isotropy and trace removal


def test_isotropy():
    x = sym(X)
    q = call(func("q"), x)
    z = zero()
    assert isotropy_test(_spec2(q, z, z, q))
    assert not isotropy_test(_spec2(one(), z, const(2), one()))
    first_order_term = LinearSystemSpec(2, 2, (_mat(one(), z, z, z),
                                               _mat(z, z, z, z)))
    with pytest.raises(NotInNormalFormError, match="first-order term"):
        isotropy_test(first_order_term)
    with pytest.raises(NotInNormalFormError, match="first-order term"):
        trace_free_reduce(first_order_term, one())


def _same_rows(got, want):
    return (len(got) == len(want)
            and all(len(r) == len(s) for r, s in zip(got, want))
            and all((g - w).is_rational_zero()
                    for r, s in zip(got, want) for g, w in zip(r, s)))


def test_trace_free_reduce_identity():
    z = zero()
    spec = _spec2(one(), z, const(2), -one())   # trace-free already
    rows = trace_free_reduce(spec, one())
    assert rows == ((-one(), z), (const(-2), one()))


def test_trace_free_reduce_rejects_bad_q():
    z = zero()
    spec = _spec2(one(), z, const(2), one())    # trace 2, constant
    with pytest.raises(TraceReductionError):
        trace_free_reduce(spec, one())
    # q = 0 and q = y are refused before the residual is formed
    y = sym(spec.ctx.y(1))
    for q in (zero(), y, sym(spec.ctx.jet(2, 1)) + sym(X)):
        with pytest.raises(ValueError, match="nonzero function of x"):
            trace_free_reduce(spec, q)


def test_trace_free_reduce_rejects_exponential_growth_q():
    # a1 + a4 = 0 but q = E(x) with E' = E: residual 3E^2 - 2E^2 != 0
    x = sym(X)
    e = call(func("E"), x)
    rule = RewriteRule(func("E", 1, (1,)), e, X)
    z = zero()
    spec = _spec2(one(), z, z, -one())
    with pytest.raises(TraceReductionError):
        trace_free_reduce(spec, e, rules=(rule,))


def test_trace_free_reduce_with_valid_q():
    # M = (3/(4x^2)) I has the trace condition solved by q = x
    x = sym(X)
    z = zero()
    d = const(-3) / (4 * x ** 2)
    spec = _spec2(d, z, z, d)
    rows = trace_free_reduce(spec, x)
    assert _same_rows(rows, ((z, z), (z, z)))
    # off the diagonal, and against the 2x2 triple (A, B, C) of
    # (M - tr(M)/2 I) / q^2: the rows are ((A, B), (C, -A))
    spec = _spec2(d - x, const(-2), x ** 2, d + x)
    m11, m12, m21, m22 = x - d, const(2), -x ** 2, -d - x
    half = (m11 + m22) / 2
    a, b, c = ((m11 - half) / x ** 2, m12 / x ** 2, m21 / x ** 2)
    assert _same_rows(trace_free_reduce(spec, x), ((a, b), (c, -a)))


def test_trace_free_reduce_3x3():
    # y'' = M y with tr(M) = 9/(4x^2): s = 3/(4x^2) solves
    # -4 s q^2 + 3 q'^2 - 2 q q'' = 0 at q = x
    x = sym(X)
    s = const(3) / (4 * x ** 2)
    mat = ((s + x, one(), zero()),
           (x ** 2, s - 1, const(5)),
           (zero(), 2 * x + 1, s + 1 - x))
    zmat = tuple((zero(),) * 3 for _ in range(3))
    spec = LinearSystemSpec(3, 2, (zmat, tuple(tuple(-e for e in row)
                                               for row in mat)))
    want = tuple(tuple((e - s if i == j else e) / x ** 2
                       for j, e in enumerate(row))
                 for i, row in enumerate(mat))
    assert _same_rows(trace_free_reduce(spec, x), want)
    assert not _same_rows(trace_free_reduce(spec, x),
                          tuple(tuple(e / x ** 2 for e in row) for row in mat))
    with pytest.raises(TraceReductionError):
        trace_free_reduce(spec, x + 1)


# ---------------------------------------------------------------------------
# 2x2 non-Cartan existence


def test_existence_trivial():
    z = zero()
    verdict = non_cartan_existence_2x2(z, z, z)
    assert verdict.in_canonical_class
    assert len(verdict.witnesses) == 4
    assert all(is_non_cartan(w) for w in verdict.witnesses)


def _corrupting(generators, k):
    """A stand-in for `non_cartan_generators` whose k-th field has its
    xi doubled, so that it is no longer a symmetry."""
    def corrupted(src, ctx):
        fields = generators(src, ctx)
        bad = fields[k]
        fields[k] = VectorField(2 * bad.xi, bad.phi, bad.context)
        return fields
    return corrupted


def test_existence_witnesses_verified_once(monkeypatch):
    """The trivial system's witnesses are verified on first use, and a
    failed verification, here of a corrupted generator, raises instead
    of being cached."""
    z = zero()
    _trivial_witnesses.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(classify_module, "non_cartan_generators", _corrupting(
            classify_module.non_cartan_generators, 1))
        with pytest.raises(AssertionError, match="re-verification"):
            non_cartan_existence_2x2(z, z, z)
    assert _trivial_witnesses.cache_info().currsize == 0
    witnesses = non_cartan_existence_2x2(z, z, z).witnesses
    trivial = _trace_free(((z, z), (z, z)))
    assert witnesses == _verified_witnesses(SourceEquation.trivial(), trivial)
    assert non_cartan_existence_2x2(z, z, z).witnesses is witnesses


def test_existence_obstructions_cited():
    z = zero()
    verdict = non_cartan_existence_2x2(one(), z, const(2))
    assert not verdict.in_canonical_class
    assert verdict.witnesses is None
    assert any("A" in r for r in verdict.reason)
    assert any("C" in r for r in verdict.reason)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        ClassificationVerdict(True, None)
    # witnesses come with a verdict in the class and with no other verdict
    for decided in (False, None):
        with pytest.raises(ValueError):
            ClassificationVerdict(decided, ())
        assert ClassificationVerdict(decided).witnesses is None
    # a verdict stays hashable with its facts
    hash(ClassificationVerdict(None, kind="scalar", facts={"p-degree": 1}))


def test_determining_system_2x2_shapes():
    x = sym(X)
    a = call(func("A"), x)
    b = call(func("B"), x)
    c = call(func("C"), x)
    full = determining_system_2x2(a, b, c, restricted=False)
    assert len(full) == 15
    assert [u.name for u in full.unknowns] == ["xi", "eta", "phi"]
    restricted = determining_system_2x2(a, b, c, restricted=True)
    assert sorted(u.name for u in restricted.unknowns) == [
        "alpha", "b1", "b2", "beta", "gamma", "s1", "s2"]


def test_restricted_system_alpha_slice():
    x = sym(X)
    a = call(func("A"), x)
    b = call(func("B"), x)
    c = call(func("C"), x)
    ds = determining_system_2x2(a, b, c, restricted=True)
    ctx = JetContext(2, 2, dep_names=("y", "w"))
    y = sym(ctx.y(1))
    w = sym(ctx.y(2))
    al = call(func("alpha"), x)
    axx = call(func("alpha", 1, (2,)), x)
    assert ds.contains(-2 * c * y * al + 2 * w * (a * al + axx))


# ---------------------------------------------------------------------------
# classification of full linear systems


def test_classify_constant_coupling_example():
    z = zero()
    spec = _spec2(one(), z, const(2), one())
    verdict = classify_linear_system(spec)
    assert not verdict.in_canonical_class
    assert verdict.witnesses is None
    assert verdict.reason


def test_classify_isotropic_symbolic_q():
    x = sym(X)
    q = call(func("q"), x)
    z = zero()
    spec = _spec2(q, z, z, q)
    verdict = classify_linear_system(spec)
    assert verdict.in_canonical_class
    assert len(verdict.witnesses) == 4
    assert all(is_non_cartan(w) for w in verdict.witnesses)


def test_classify_q_against_q_plus_q_prime_under_source_rules():
    # the source rules constrain u and v only; q and its derivatives stay
    # free jets, so q' is not zero
    src = SourceEquation.symbolic()
    q = src.q
    z = zero()
    verdict = classify_linear_system(_spec2(q, z, z, q + src.d(q)), src.rules)
    assert not verdict.in_canonical_class
    assert verdict.reason == ("non-isotropic at entry (1,1)",
                              "non-isotropic at entry (2,2)")


@pytest.mark.parametrize("text", ["eq14", "y''=H(y')", "y''=y'^4"])
def test_classify_system_scalar_facts_are_the_cli_report(text):
    verdict = classify_system(parse_system(text))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["classify", "--system", text, "--format", "json"])
    (result,) = json.loads(out.getvalue())["results"]
    assert result.pop("kind") == verdict.kind == "scalar"
    assert verdict.facts == result
    assert verdict.in_canonical_class is None
    assert verdict.witnesses is None


@pytest.mark.parametrize("text", [
    "y''+q(x)*y=0; w''+q(x)*w=0", "y''=0", "y''=-y",
    "y1''+y1+0*y2=0; y2''+2*y1+y2=0"])
def test_classify_system_linear_is_classify_linear_system(text):
    system = parse_system(text)
    verdict = classify_system(system)
    assert verdict.kind == "linear" and verdict.facts == {}
    assert verdict == classify_linear_system(
        LinearSystemSpec.from_system(system), system.rules)


def test_classify_system_refuses_other_systems():
    for text in ("y'''=0", "y'=y", "y''=w'^2; w''=0"):
        with pytest.raises(NotInNormalFormError,
                           match="linear normal-form system or a scalar"):
            classify_system(parse_system(text))


def test_witness_recheck_keeps_the_callers_rules():
    # u''/u reads -q only under the source rules, which the system
    # carries: the witnesses are rechecked under them too, not only
    # under the rules of the source equation built from the common q
    src = SourceEquation.symbolic()
    ctx = JetContext(2, 2)
    y, w = sym(ctx.y(1)), sym(ctx.y(2))
    system = OdeSystem(ctx, (src.d(src.u, 2) / src.u * y, -src.q * w),
                       src.rules)
    verdict = classify_system(system)
    assert verdict.in_canonical_class is True
    assert len(verdict.witnesses) == 4


def test_classify_m3():
    x = sym(X)
    q = call(func("q"), x)
    z = zero()
    mat = tuple(tuple(q if i == j else z for j in range(3)) for i in range(3))
    zmat = tuple(tuple(z for _ in range(3)) for _ in range(3))
    spec = LinearSystemSpec(3, 2, (zmat, mat))
    verdict = classify_linear_system(spec)
    assert verdict.in_canonical_class
    assert len(verdict.witnesses) == 6


def _isotropic(m, q):
    """The linear system y_i'' + q y_i = 0, i = 1..m."""
    z = zero()
    return LinearSystemSpec(m, 2, (
        tuple((z,) * m for _ in range(m)),
        tuple(tuple(q if i == j else z for j in range(m)) for i in range(m))))


@pytest.mark.parametrize("m", [2, 3])
def test_witness_recheck_catches_each_bad_generator(monkeypatch, m):
    """The 2m witnesses are rechecked as one combined field, and that
    check still fails when any single one of them is not a symmetry."""
    spec = _isotropic(m, call(func("q"), sym(X)))
    assert classify_linear_system(spec).in_canonical_class
    generators = classify_module.non_cartan_generators
    for k in range(2 * m):
        with monkeypatch.context() as patch:
            patch.setattr(classify_module, "non_cartan_generators",
                          _corrupting(generators, k))
            with pytest.raises(AssertionError, match="re-verification"):
                classify_linear_system(spec)
        # a failed recheck leaves no entry that a true W would reuse
        assert classify_linear_system(spec).in_canonical_class


def test_witness_prolongation_shared_across_q():
    """W = sum_k t_k C_k does not depend on q, so isotropic systems of
    one size share its prolongation; a new size or a renamed solution
    pair (q calls u) is a new W."""
    x = sym(X)
    _witness_prolongation.cache_clear()
    for q in (call(func("q"), x), 3 * call(func("f"), x) + 1,
              call(func("q"), x) ** 2):
        assert classify_linear_system(_isotropic(2, q)).in_canonical_class
    info = _witness_prolongation.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for m, name in ((3, "q"), (2, "u")):
        spec = _isotropic(m, call(func(name), x))
        assert classify_linear_system(spec).in_canonical_class
    info = _witness_prolongation.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_from_system_round_trip():
    rng = random.Random(8)
    x = sym(X)
    entries = [zero(), const(1), const(Fraction(-2, 3)), x, x * x - 3,
               call(func("q"), x)]
    for m in (1, 2, 3):
        zmat = tuple((zero(),) * m for _ in range(m))
        for _ in range(3):
            a0 = tuple(tuple(rng.choice(entries) for _ in range(m))
                       for _ in range(m))
            spec = LinearSystemSpec(m, 2, (zmat, a0))
            assert spec == LinearSystemSpec.from_matrix(
                tuple(tuple(-e for e in row) for row in a0))
            back = LinearSystemSpec.from_system(spec.ode_system())
            assert back.a0 == a0
            assert back.a1 == zmat
            assert back.ctx == spec.ctx


def test_from_system_rejects_other_systems():
    z = zero()
    ctx = JetContext(2, 2)
    y, w = sym(ctx.y(1)), sym(ctx.y(2))
    first_order = LinearSystemSpec(2, 2, (_mat(z, one(), z, z),
                                          _mat(one(), z, z, one())))
    assert LinearSystemSpec.from_system(first_order.ode_system()) is None
    for rhs in ((y + 1, w), (y * y, w), (y * w, w)):
        assert LinearSystemSpec.from_system(OdeSystem(ctx, rhs)) is None
    assert LinearSystemSpec.from_system(nonlinear_counterexample()) is None


def test_linear_system_entries_must_be_functions_of_x():
    # a dependent variable or a jet in a coefficient makes the system
    # nonlinear; every entry point refuses it
    z = zero()
    ctx = JetContext(2, 2)
    y, wp = sym(ctx.y(1)), sym(ctx.jet(2, 1))
    for bad in (y, wp, call(func("H"), sym(X) + y)):
        with pytest.raises(ValueError, match="functions of x"):
            classify_linear_system(_spec2(bad, z, z, bad))
        with pytest.raises(ValueError, match="functions of x"):
            non_cartan_existence_2x2(bad, z, z)
        with pytest.raises(ValueError, match="functions of x"):
            brute_force_non_cartan_search(bad, z, z, degree_cap=0)
        with pytest.raises(ValueError, match="functions of x"):
            non_cartan_search(((z, z, z), (z, bad, z), (z, z, -bad)), 0)
    for ragged in (((z, z), (z,)), ((z, z), (z, z), (z, z))):
        with pytest.raises(ValueError, match="square"):
            non_cartan_search(ragged, 0)


def test_search_refuses_a_matrix_with_nonzero_trace():
    # y'' = y is isotropic, so in the canonical class, but its fields are
    # exponential: the polynomial search once answered False here
    o, z = one(), zero()
    for mat in (((o, z), (z, o)),
                ((sym(X), z, z), (z, z, z), (z, z, z))):
        with pytest.raises(ValueError, match="trace-free"):
            non_cartan_search(mat, degree_cap=2)


def test_brute_force_oracle_small():
    z = zero()
    assert brute_force_non_cartan_search(z, z, z, degree_cap=2)
    assert not brute_force_non_cartan_search(z, z, const(-2), degree_cap=2)
    x = sym(X)
    assert not brute_force_non_cartan_search(x, z, z, degree_cap=2)


def test_brute_force_rejects_bad_degree_cap():
    z = zero()
    for cap in (-1, True, False, 1.0, "1", None):
        with pytest.raises(ValueError):
            brute_force_non_cartan_search(z, z, z, degree_cap=cap)


def _trace_free_corpus(m, seed, count):
    """The trivial m x m system, the opaque trace-free one (entries
    M_ij(x), the last diagonal entry minus the sum of the others) and
    `count` seeded trace-free matrices with entries polynomial in x with
    rational coefficients, some of them zero.  At m = 2 these are the
    normal forms ((A, B), (C, -A))."""
    rng = random.Random(seed)
    x = sym(X)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return zero()
        e = zero()
        for k in range(rng.randint(0, 2)):
            e = e + Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * x ** k
        e = e + rng.choice((-2, -1, 1, 2)) * x ** rng.randint(0, 2)
        return e

    def trace_free(make):
        mat = [[make(i, j) if (i, j) != (m - 1, m - 1) else None
                for j in range(m)] for i in range(m)]
        mat[-1][-1] = -sum((mat[i][i] for i in range(m - 1)), zero())
        return tuple(map(tuple, mat))

    opaque = trace_free(lambda i, j: call(func("M%d%d" % (i + 1, j + 1)), x))
    return ([tuple((zero(),) * m for _ in range(m)), opaque]
            + [trace_free(lambda i, j: entry()) for _ in range(count)])


def _fresh_forms(m, cap, system):
    """The linear forms of the field pieces of a fresh prolongation of
    the reference ansatz, laid out against the system, with the forms of
    the phi_k' pieces (positions 2 + m + 2k + 1 for k < m) left empty."""
    params, _slots, ansatz = reference_oracle_ansatz(m, cap)
    column = {p: i for i, p in enumerate(params)}
    dropped = {2 + m + 2 * k + 1 for k in range(m)}
    return tuple(
        tuple({} if i in dropped else _affine_groups(piece.num, column)
              for i, (piece, _) in enumerate(eq))
        for eq in _split_pairs(prolong(ansatz, 2), system))


def _snapshot(forms):
    return tuple(tuple(tuple((rest, tuple(lin.items()))
                             for rest, lin in form.items())
                       for form in eq) for eq in forms)


def test_oracle_ansatz_matches_fresh_prolongation():
    """The cache keeps the parameters, the non-Cartan slots and the
    forms of a fresh prolongation's field pieces, whatever the system
    they are laid out against, and no prolongation.  The forms it leaves
    empty are those of the phi_k' pieces, which meet zero in every
    y'' = M(x) y; every other form is nonempty."""
    for m, cap in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
        entry = _oracle_ansatz(m, cap)
        assert len(entry) == 3
        assert not any(isinstance(v, ProlongedField) for v in entry)
        params, slots, forms = entry
        ref_params, ref_slots, _ansatz = reference_oracle_ansatz(m, cap)
        assert params == ref_params
        assert slots == ref_slots
        assert len(slots) == m * (cap + 1)
        for mat in _trace_free_corpus(m, 31 + cap, 1):
            system = _trace_free(mat)
            assert forms == _fresh_forms(m, cap, system)
            for eq_forms, eq_pieces in zip(forms, _system_pieces(system),
                                           strict=True):
                for form, piece in zip(eq_forms, eq_pieces, strict=True):
                    assert form or piece.is_rational_zero()
        assert sum(not form for eq in forms for form in eq) == m * m
        assert _oracle_ansatz(m, cap) is _oracle_ansatz(m, cap)


def test_oracle_residuals_match_invariance_residual():
    for m, cap, count in ((2, 0, 8), (2, 1, 8), (3, 0, 3)):
        _ref_params, _ref_slots, ansatz = reference_oracle_ansatz(m, cap)
        pf = prolong(ansatz, 2)
        for mat in _trace_free_corpus(m, 11 + cap, count):
            system = _trace_free(mat)
            assert (_prolonged_residuals(pf, system)
                    == invariance_residual(ansatz, system))


def _rational_trace_free():
    x = sym(X)
    return ((1 / (x + 1), one()), (x, -1 / (x + 1)))


def _rational_cases():
    """Trace-free matrices with denominators: a 2x2 one, a 3x3 one with
    three distinct denominators, and one over an opaque 1/f(x)."""
    x = sym(X)
    z = zero()
    f = call(func("f"), x)
    return [
        _rational_trace_free(),
        ((1 / (x + 1), x, z), (z, 1 / (x - 1), one()),
         (x / (x + 2), z, -1 / (x + 1) - 1 / (x - 1))),
        ((1 / f, x), (z, -1 / f)),
    ]


def _cleared_residuals(ansatz, system):
    """Each `invariance_residual` of the ansatz times D, the product of
    the distinct denominators of its equation's F_k and derivatives of
    delta = y_j'' - F_j by x, y_k and y_k'."""
    ctx = system.ctx
    out = []
    for j, res in enumerate(invariance_residual(ansatz, system), 1):
        delta = sym(ctx.jet(j, 2)) - system.rhs[j - 1]
        pieces = [differentiate(delta, ctx.x), *system.rhs] + [
            differentiate(delta, ctx.jet(k, i))
            for k in range(1, ctx.m + 1) for i in (0, 1)]
        d = one()
        for den in dict.fromkeys(p.den for p in pieces):
            d = d * Expression(den, _ONE_TERMS)
        out.append(res * d)
    return out


def test_search_rows_match_linear_equations_in_params(monkeypatch):
    """The rows the search hands to `linalg.nullspace` are, as a
    multiset, the rows `linear_equations_in_params` makes from each
    `invariance_residual` of the reference ansatz times the product D
    of its equation's distinct denominators: D = 1 for an integer or
    opaque M, whose residuals come from the split pairs, and a
    polynomial for a rational M, whose residuals come from the
    substituted solved form; and the search answers as the reference
    search does."""
    captured = []
    real = linalg.nullspace

    def spy(rows, ncols=None):
        captured.append(rows)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    cases = [(m, cap, mat, False)
             for m, cap, count in ((2, 0, 6), (2, 1, 6), (2, 2, 2),
                                   (3, 0, 3), (3, 1, 1))
             for mat in _trace_free_corpus(m, 21 + cap, count)]
    rational_2x2, rational_3x3, opaque_den = _rational_cases()
    cases += [(len(mat), cap, mat, True)
              for mat, caps in ((rational_2x2, (0, 1)), (rational_3x3, (0,)),
                                (opaque_den, (0, 1)))
              for cap in caps]
    for m, cap, mat, rational in cases:
        params = _oracle_ansatz(m, cap)[0]
        ansatz = reference_oracle_ansatz(m, cap)[2]
        system = _trace_free(mat)
        assert (_split_pairs(prolong(ansatz, 2), system) is None) == rational
        column = {p: i for i, p in enumerate(params)}
        want = Counter()
        for res in _cleared_residuals(ansatz, system):
            assert res.den == _ONE_TERMS
            for lin, cst in linear_equations_in_params(res, params):
                assert cst == 0
                want[frozenset((column[p], v) for p, v in lin.items())] += 1
        found = non_cartan_search(mat, degree_cap=cap)
        (rows,) = captured
        captured.clear()
        assert Counter(frozenset(row.items()) for row in rows) == want
        assert found == reference_brute_force_search(system, cap)


def test_search_rows_refuse_a_piece_the_cache_dropped():
    """The cache keeps no form for the phi_k' pieces, whose system
    pieces d delta / dy_k' are zero for every y'' = M(x) y; a system
    whose F carries y' would meet those empty forms with nonzero pieces,
    and `_search_rows` refuses it rather than drop its terms."""
    ctx = JetContext(2, 2)
    system = OdeSystem(ctx, (sym(ctx.jet(1, 1)), zero()))
    forms = _oracle_ansatz(2, 0)[2]
    with pytest.raises(AssertionError, match="empty form"):
        _search_rows(forms, _system_pieces(system))


def test_search_refuses_a_constant_term(monkeypatch):
    """A term free of the ansatz parameters makes the system
    inhomogeneous, for a polynomial and a rational M: here it enters through
    the ansatz, whose first eta gains x^2, so E_1 and every residual of
    y_1 gain the constant 2 and the cached forms a constant part."""
    real_prolong = classify_module.prolong

    def prolong_plus_x2(v, p):
        eta = (v.phi[0] + sym(X) ** 2,) + v.phi[1:]
        return real_prolong(VectorField(v.xi, eta, v.context), p)

    monkeypatch.setattr(classify_module, "prolong", prolong_plus_x2)
    _oracle_ansatz.cache_clear()
    try:
        z = zero()
        for mat in ((z, z), (z, z)), _rational_trace_free():
            with pytest.raises(AssertionError, match="homogeneous"):
                non_cartan_search(mat, degree_cap=0)
    finally:
        _oracle_ansatz.cache_clear()


def test_search_refuses_its_own_parameters():
    """An entry that carries an ansatz parameter would make a residual
    that is not linear in the parameters."""
    params = _oracle_ansatz(2, 0)[0]
    z = zero()
    for p in (params[0], params[-1]):
        with pytest.raises(ValueError, match="parameters"):
            non_cartan_search(((z, sym(p)), (z, z)), degree_cap=0)


def test_oracle_cache_reuse_keeps_answers_and_coefficients():
    """Searches leave the cached forms as they were, and those are the
    forms of a fresh prolongation."""
    x = sym(X)
    z = zero()
    cap = 1
    before = _snapshot(_oracle_ansatz(2, cap)[2])
    s1 = (z, z, z)
    s2 = (x, const(2), z)
    s3 = (z, z, const(-2))
    answers = [brute_force_non_cartan_search(*s, degree_cap=cap)
               for s in (s1, s2, s1, s3, s2)]
    assert answers == [True, False, True, False, False]
    assert answers == [
        reference_brute_force_search(_trace_free(((a, b), (c, -a))),
                                     cap)
        for a, b, c in (s1, s2, s1, s3, s2)]
    assert not non_cartan_search(_rational_trace_free(), degree_cap=cap)
    after = _oracle_ansatz(2, cap)[2]
    assert _snapshot(after) == before
    assert after == _fresh_forms(2, cap, _trace_free(((z, z), (z, z))))


def test_oracle_cache_fills_lazily_per_degree_cap():
    import os
    import subprocess
    import sys

    import noncartan
    src = os.path.dirname(os.path.dirname(noncartan.__file__))
    probe = ("import sys; sys.path.insert(0, %r); "
             "import noncartan.classify as c; "
             "print(c._oracle_ansatz.cache_info().currsize)" % src)
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
    _oracle_ansatz.cache_clear()
    for m, cap in ((2, 0), (2, 2), (3, 0), (2, 0)):
        trivial = tuple((zero(),) * m for _ in range(m))
        assert non_cartan_search(trivial, degree_cap=cap)
    info = _oracle_ansatz.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 3)
    for key in ((2, 0), (2, 2), (3, 0)):
        _oracle_ansatz(*key)
    assert _oracle_ansatz.cache_info().hits == 4


def _corpus_3x3(seed, count):
    """The trivial 3x3 system, the nilpotent e12, x e12, the Jordan block
    e12 + e23 and diag(1, -1, 0), then `count` seeded trace-free matrices
    with entries int + int x."""
    rng = random.Random(seed)
    x = sym(X)
    z, o = zero(), one()

    def entry():
        return const(rng.randint(-3, 3)) + rng.randint(-2, 2) * x

    structured = [
        ((z, z, z), (z, z, z), (z, z, z)),
        ((z, o, z), (z, z, z), (z, z, z)),
        ((z, x, z), (z, z, z), (z, z, z)),
        ((z, o, z), (z, z, o), (z, z, z)),
        ((o, z, z), (z, -o, z), (z, z, z)),
    ]
    seeded = []
    for _ in range(count):
        mat = [[entry() for _ in range(3)] for _ in range(3)]
        mat[2][2] = -(mat[0][0] + mat[1][1])
        seeded.append(tuple(map(tuple, mat)))
    return structured + seeded


def test_search_agrees_with_classification_3x3():
    """Criterion 9 at m = 3: the polynomial search at degree cap 2 and
    the isotropy decision agree on every item, and only the trivial
    system admits a non-Cartan field."""
    zmat = tuple((zero(),) * 3 for _ in range(3))
    found = []
    for mat in _corpus_3x3(5, 15):
        spec = LinearSystemSpec(3, 2, (zmat, tuple(tuple(-e for e in row)
                                                   for row in mat)))
        searched = non_cartan_search(mat, degree_cap=2)
        assert searched == classify_linear_system(spec).in_canonical_class
        found.append(searched)
    assert found == [True] + [False] * 19
