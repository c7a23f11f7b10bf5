import pytest

from noncartan import (
    ClassificationVerdict, JetContext, LinearSystemSpec, NotInNormalFormError,
    OpaqueArgumentError, RewriteRule, SourceEquation, TraceReductionError,
    ZeroStatus, brute_force_non_cartan_search, call, classify_linear_system,
    const, cubic_in_p_test, determining_system_2x2, func, indep,
    invariance_residual, is_non_cartan, is_zero, non_cartan_existence_2x2,
    nonlinear_counterexample, scalar_context, sym, trace_free_reduce, zero,
    one, zero_status, isotropy_test,
)

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
    with pytest.raises(NotInNormalFormError):
        bad = LinearSystemSpec(2, 2, (_mat(one(), z, z, z),
                                      _mat(z, z, z, z)))
        isotropy_test(bad)


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


def test_brute_force_oracle_small():
    z = zero()
    assert brute_force_non_cartan_search(z, z, z, degree_cap=2)
    assert not brute_force_non_cartan_search(z, z, const(-2), degree_cap=2)
    x = sym(X)
    assert not brute_force_non_cartan_search(x, z, z, degree_cap=2)


def test_linear_classify_path_honours_seed(monkeypatch):
    import contextlib
    import io

    from noncartan import classify as classify_module
    from noncartan.cli import main

    seeds = []
    real_zero_status = classify_module.zero_status

    def recording_zero_status(e, rules=(), seed=0):
        seeds.append(seed)
        return real_zero_status(e, rules, seed)

    monkeypatch.setattr(classify_module, "zero_status", recording_zero_status)
    x = sym(X)
    q = call(func("q"), x)
    z = zero()

    def seeds_of(run):
        seeds.clear()
        run()
        assert seeds
        return set(seeds)

    assert seeds_of(lambda: classify_linear_system(_spec2(q, z, z, q))) == {0}
    assert seeds_of(lambda: classify_linear_system(_spec2(q, z, z, q),
                                                   seed=5)) == {5}
    assert seeds_of(lambda: classify_linear_system(_spec2(one(), z, const(2),
                                                          one()), seed=6)) == {6}
    with contextlib.redirect_stdout(io.StringIO()):
        assert seeds_of(lambda: main([
            "classify", "--system", "y''+q(x)*y=0; w''+q(x)*w=0",
            "--seed", "7"])) == {7}
