import random
from fractions import Fraction

import pytest

from noncartan import (
    ClassificationVerdict, JetContext, LinearSystemSpec, NotInNormalFormError,
    OpaqueArgumentError, RewriteRule, SourceEquation, TraceReductionError,
    ZeroStatus, brute_force_non_cartan_search, call, classify_linear_system,
    const, cubic_in_p_test, determining_system_2x2, func, indep,
    invariance_residual, is_non_cartan, is_zero, non_cartan_existence_2x2,
    nonlinear_counterexample, OdeSystem, scalar_context, sym,
    trace_free_reduce, zero,
    one, zero_status, isotropy_test, prolong,
)
from noncartan import classify as classify_module
from noncartan.classify import (
    _normal_form_2x2, _oracle_ansatz, _trivial_witnesses, _verified_witnesses,
)
from noncartan.expr import format_expression
from noncartan.symmetry import _prolonged_residuals

from helpers import reference_brute_force_search, reference_oracle_ansatz

X = indep("x")


def _mat(*entries):
    m = int(len(entries) ** 0.5)
    return tuple(tuple(entries[i * m + j] for j in range(m))
                 for i in range(m))


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
    p = sym(ctx.jet(1, 1))
    assert cubic_in_p_test(zero())
    assert cubic_in_p_test(x * p ** 3 + y * p - 2)
    assert not cubic_in_p_test(p ** 4)
    assert cubic_in_p_test(p ** 3 / (y + 1))


def test_cubic_rational_division():
    ctx = scalar_context()
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    assert cubic_in_p_test((p ** 4 + y * p ** 3) / p)
    assert not cubic_in_p_test((p ** 5 + y * p ** 4) / p)
    assert not cubic_in_p_test(p ** 3 / (p + y))


def test_cubic_counterexample():
    assert not cubic_in_p_test(nonlinear_counterexample().rhs[0])


def test_cubic_inapplicable_with_opaque_p():
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    f = (p / y) ** 3 * call(func("H"), x - y / p)
    with pytest.raises(OpaqueArgumentError):
        cubic_in_p_test(f)


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


def test_trace_free_reduce_identity():
    z = zero()
    spec = _spec2(one(), z, const(2), -one())   # trace-free already
    a, b, c = trace_free_reduce(spec, one())
    assert a == -one() and b == z and c == const(-2)


def test_trace_free_reduce_rejects_bad_q():
    z = zero()
    spec = _spec2(one(), z, const(2), one())    # trace 2, constant
    with pytest.raises(TraceReductionError):
        trace_free_reduce(spec, one())


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
    a, b, c = trace_free_reduce(spec, x)
    assert a.is_rational_zero()
    assert b.is_rational_zero()
    assert c.is_rational_zero()


# ---------------------------------------------------------------------------
# 2x2 non-Cartan existence


def test_existence_trivial():
    z = zero()
    verdict = non_cartan_existence_2x2(z, z, z)
    assert verdict.in_canonical_class
    assert len(verdict.witnesses) == 4
    assert all(is_non_cartan(w) for w in verdict.witnesses)


def test_existence_witnesses_verified_once(monkeypatch):
    """The trivial system's witnesses are verified on first use, and a
    failed verification raises instead of being cached."""
    z = zero()
    _trivial_witnesses.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(classify_module, "invariance_residual",
                      lambda field, system: [one()])
        with pytest.raises(AssertionError, match="re-verification"):
            non_cartan_existence_2x2(z, z, z)
    assert _trivial_witnesses.cache_info().currsize == 0
    witnesses = non_cartan_existence_2x2(z, z, z).witnesses
    assert witnesses == _verified_witnesses(SourceEquation.trivial(),
                                            _normal_form_2x2(z, z, z))
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


def _trace_free_corpus(seed, count):
    """The trivial system, the opaque system (A(x), B(x), C(x)) and
    `count` seeded trace-free (A, B, C) with entries polynomial in x with
    rational coefficients, some of them zero."""
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

    z = zero()
    opaque = tuple(call(func(name), x) for name in "ABC")
    return [(z, z, z), opaque] + [(entry(), entry(), entry())
                                  for _ in range(count)]


def _snapshot(pf):
    return {key: (format_expression(c), c.num, c.den)
            for key, c in pf.coefficients.items()}


def test_oracle_ansatz_matches_fresh_prolongation():
    for cap in (0, 1, 2):
        params, slots, pf = _oracle_ansatz(cap)
        ref_params, ref_slots, ansatz = reference_oracle_ansatz(cap)
        assert params == ref_params
        assert slots == ref_slots
        assert pf.base == ansatz
        fresh = prolong(ansatz, 2)
        assert pf.p == fresh.p == 2
        assert list(pf.coefficients) == list(fresh.coefficients)
        for key, coeff in fresh.coefficients.items():
            cached = pf.coefficients[key]
            assert cached.num == coeff.num and cached.den == coeff.den
            assert ([type(c) for _, c in cached.num]
                    == [type(c) for _, c in coeff.num])
        assert _oracle_ansatz(cap) is _oracle_ansatz(cap)


def test_oracle_residuals_match_invariance_residual():
    for cap in (0, 1):
        _params, _slots, pf = _oracle_ansatz(cap)
        _ref_params, _ref_slots, ansatz = reference_oracle_ansatz(cap)
        for a, b, c in _trace_free_corpus(11 + cap, 8):
            system = _normal_form_2x2(a, b, c)
            assert (_prolonged_residuals(pf, system)
                    == invariance_residual(ansatz, system))


def test_oracle_cache_reuse_keeps_answers_and_coefficients():
    x = sym(X)
    z = zero()
    cap = 1
    before = _snapshot(_oracle_ansatz(cap)[2])
    s1 = (z, z, z)
    s2 = (x, const(2), z)
    s3 = (z, z, const(-2))
    answers = [brute_force_non_cartan_search(*s, degree_cap=cap)
               for s in (s1, s2, s1, s3, s2)]
    assert answers == [True, False, True, False, False]
    assert answers == [reference_brute_force_search(_normal_form_2x2(*s), cap)
                       for s in (s1, s2, s1, s3, s2)]
    after = _oracle_ansatz(cap)[2]
    assert _snapshot(after) == before
    fresh = prolong(reference_oracle_ansatz(cap)[2], 2)
    assert after.coefficients == fresh.coefficients


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
    z = zero()
    _oracle_ansatz.cache_clear()
    for cap in (0, 2, 0):
        assert brute_force_non_cartan_search(z, z, z, degree_cap=cap)
    info = _oracle_ansatz.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
    for cap in (0, 2):
        _oracle_ansatz(cap)
    assert _oracle_ansatz.cache_info().hits == 3

