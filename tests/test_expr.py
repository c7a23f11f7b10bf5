import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import noncartan
from noncartan import (
    Call, CollectError, CyclicBindingError, Expression, JetContext,
    ParseContext, ParseError, RewriteRule, SourceEquation, Symbol,
    UndecidedZeroError, ZeroStatus, apply_rules, call, collect, const, dep,
    differentiate, format_expression, func, indep, is_zero, jet, one,
    param, parse, replace_atoms, substitute, sym, zero, zero_status,
)
from noncartan import expr as expr_module
from noncartan.expr import (
    JET, MAX_EXPANSION_TERMS, MAX_INTEGER_DIGITS, MAX_NESTING_DEPTH, OPAQUE,
    _ONE_MON, _ONE_TERMS, _cancel_monomial_gcd, _divide, _dot,
    _fresh_params, _mk_mon, _merge_points, _mon_mul, _terms_from_dict,
    atom_expr,
    monomial_expression,
)

from helpers import (
    assert_matches_fold, evaluate, grouped_sum, monomial_denominators,
    random_expression,
    reference_apply_rules, reference_cancel_monomial_gcd,
    reference_collect, reference_contains, reference_differentiate,
    reference_mon_mul, reference_monomial_expression, reference_replace_atoms,
    reference_sort_key, reference_substitute, reference_sum,
)

X = indep("x")
Y = jet(1, 0, "y")
P = jet(1, 1, "y")


def test_rational_cancellation():
    x = sym(X)
    y = sym(Y)
    p = sym(P)
    assert (p / y) ** 3 * y ** 3 == p ** 3
    # non-monomial common factors are cancelled up to equality testing
    assert is_zero((x ** 2 - 1) / (x - 1) - (x + 1))
    assert x - x == zero()
    assert (x + y) - y == x


def test_exact_division_leaves_a_polynomial():
    """A denominator that divides its numerator leaves the quotient, also
    where the numerator is no constant multiple of it; a denominator that
    only shares a factor with its numerator stays."""
    x, y, p = sym(X), sym(Y), sym(P)
    assert (x ** 2 - 1) / (x - 1) == x + 1
    assert (x + 1) * (1 / (x + 1)) == one()
    assert (x ** 3 - y ** 3) / (x - y) == x ** 2 + x * y + y ** 2
    shared = (x ** 2 - 1) / ((x - 1) * (x + 2))
    assert len(shared.den) == 3 and is_zero(shared - (x + 1) / (x + 2))
    rng = random.Random(29)
    atoms = [x, y, p, call(func("u"), x / (x + 1))]
    for case in range(200):
        a = const(Fraction(rng.choice((1, 2, -3)), rng.choice((1, 5)))) \
            * _random_polynomial(rng, atoms, rng.randint(1, 4), 3)
        b = _random_polynomial(rng, atoms, rng.randint(2, 3), 2)
        if len(b.num) < 2:
            continue
        assert a * b / b == a, case
        assert len(((a * b + 1) / b).den) > 1, case


def test_may_divide_passes_every_quotient(monkeypatch):
    """The mod-p test at the atoms' hashes is a ring homomorphism, so it
    passes every exact quotient; what it refuses, long division refuses
    too, and it refuses most remainders."""
    x, y, p = sym(X), sym(Y), sym(P)
    rng = random.Random(31)
    atoms = [x, y, p, call(func("u"), x / (x + 1))]
    cases = []
    for _ in range(300):
        a = _random_polynomial(rng, atoms, rng.randint(1, 4), 3)
        b = _random_polynomial(rng, atoms, rng.randint(2, 3), 2)
        if len(b.num) < 2 or len(a.num) < 2:
            continue
        den = (1 / b).den
        b = Expression(den, _ONE_TERMS)
        cases.append((a, (a * b).num, (a * b + 1).num, den))
    refused = []
    for a, exact, off, den in cases:
        assert expr_module._may_divide(exact, den)
        assert Expression(_terms_from_dict(_divide(exact, den)),
                          _ONE_TERMS) == a
        if not expr_module._may_divide(off, den):
            refused.append((off, den))
    monkeypatch.setattr(expr_module, "_may_divide", lambda num, den: True)
    assert all(_divide(off, den) is None for off, den in refused)
    assert len(cases) > 100 and len(refused) > 0.9 * len(cases)


def test_may_divide_keeps_a_large_quotient_from_hanging():
    """Without the filter, long division of x^100000 + 1 by x - y - 1
    runs for a time that grows with the degree; with it the parse
    takes milliseconds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(noncartan.__file__)))
    code = ("from noncartan import ParseContext, parse\n"
            "parse('(x^100000+1)/(x-y-1)', ParseContext(1))\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=20)


def test_denominator_normalization():
    x = sym(X)
    a = x / (2 * x + 2)
    b = (3 * x) / (6 * x + 6)
    assert a == b


def test_power_and_negative_exponents():
    x = sym(X)
    assert x ** 0 == one()
    assert x ** 3 * x ** -1 == x ** 2
    assert (x + 1) ** 2 == x ** 2 + 2 * x + 1
    with pytest.raises(ZeroDivisionError):
        zero() ** -1


def test_constant_arithmetic():
    e = const(Fraction(2, 3)) + const(Fraction(1, 3))
    assert e == one()
    assert e.is_constant()
    assert e.constant_value() == 1


def test_differentiate_basics():
    x = sym(X)
    y = sym(Y)
    assert differentiate(x ** 3, X) == 3 * x ** 2
    assert differentiate(x * y, X) == y
    assert differentiate(x / y, Y) == -x / y ** 2
    q = call(func("q"), x)
    dq = differentiate(q, X)
    assert dq == call(func("q", 1, (1,)), x)


def test_differentiate_chain_rule():
    x = sym(X)
    h = call(func("H"), x ** 2)
    dh = differentiate(h, X)
    assert dh == 2 * x * call(func("H", 1, (1,)), x ** 2)


def test_differentiate_reads_the_partials_kept_on_calls():
    """Seeded expressions with nested and multi-argument calls: a first
    `differentiate` by s leaves each call's partial by s on the call,
    and a second, which reads them back, is structurally equal to
    `_derive` with no atom cache, for every point symbol and jet."""
    rng = random.Random(27)
    ctx = JetContext(2, 2)
    x, y, w = (sym(s) for s in ctx.point_symbols())
    yp, wp = sym(ctx.jet(1, 1)), sym(ctx.jet(2, 1))
    a = sym(param("a"))
    q = call(func("q"), x)
    h = call(func("H", 2), x - y / yp, a * w)
    g = call(func("G"), q * y + 1)
    nested = call(func("F", 3), h, g / (x + 1), call(func("q"), x * wp))
    atoms = [x, y, w, yp, wp, a, q, h, g, nested]
    symbols = [ctx.x] + [ctx.jet(j, k) for j in (1, 2) for k in range(3)]
    for _ in range(40):
        e = random_expression(rng, 3, atoms)
        calls = [b for b in e.atoms() if isinstance(b, Call)]
        for s in symbols:
            dsym = lambda b, s=s: one() if b == s else zero()
            cold = expr_module._derive(e, dsym, {})
            assert differentiate(e, s) == cold
            if e.contains(s):
                for c in calls:
                    assert c._partials[s] == expr_module._derive(
                        atom_expr(c), dsym, {})
            assert differentiate(e, s) == cold


def test_substitute_simultaneous():
    x = sym(X)
    y = sym(Y)
    a = sym(param("a"))
    e = x * y
    out = substitute(e, {X: a + 1, Y: a - 1})
    assert out == a ** 2 - 1
    # swaps are rejected rather than silently sequenced
    with pytest.raises(CyclicBindingError):
        substitute(x + y, {X: y, Y: x})


def test_substitute_cycle_rejected():
    x = sym(X)
    with pytest.raises(CyclicBindingError):
        substitute(x, {X: x + 1})


def test_rewrite_rules_fixed_point():
    x = sym(X)
    q = call(func("q"), x)
    u = call(func("u"), x)
    rule = RewriteRule(func("u", 1, (2,)), -q * u, X)
    upp = call(func("u", 1, (2,)), x)
    assert apply_rules(upp, (rule,)) == -q * u
    # third derivative is rewritten by differentiating the replacement
    uppp = call(func("u", 1, (3,)), x)
    out = apply_rules(uppp, (rule,))
    up = call(func("u", 1, (1,)), x)
    qp = call(func("q", 1, (1,)), x)
    assert out == -qp * u - q * up


def test_rewrite_rule_termination_check():
    x = sym(X)
    u = call(func("u"), x)
    with pytest.raises(ValueError):
        RewriteRule(func("u"), u + 1, X)


def test_collect():
    x = sym(X)
    y = sym(Y)
    p = sym(P)
    e = x * p ** 2 + y * p ** 2 + 3 * p + x
    groups = collect(e, [P])
    assert groups[((P, 2),)] == x + y
    assert groups[((P, 1),)] == const(3)
    assert groups[()] == x
    with pytest.raises(CollectError, match="^non-polynomial dependence on y'$"):
        collect(x / p, [P])


def test_fresh_params_avoid_names_the_expressions_carry():
    """_fresh_params lengthens its prefix past every name _t<k> the
    expressions already carry, those inside a call's arguments too."""
    assert [t.name for t in _fresh_params(2, [sym(X)])] == ["_t0", "_t1"]
    t1 = sym(param("_t1"))
    assert [t.name for t in _fresh_params(2, [sym(X) * t1])] == [
        "_t_0", "_t_1"]
    nested = call(func("f", 2), sym(param("_t0")) + 1, sym(param("_t_1")))
    assert [t.name for t in _fresh_params(2, [sym(X), nested])] == [
        "_t__0", "_t__1"]
    assert [t.name for t in _fresh_params(1, [t1])] == ["_t0"]


def test_collect_names_the_first_variable_in_an_argument_as_it_prints():
    """The variables are tried in the caller's order, not in a set's."""
    h = call(func("h"), sym(P) + sym(Y))
    for variables, name in (([Y, P], "y"), ([P, Y], "y'"), ([X, P], "y'")):
        with pytest.raises(CollectError) as info:
            collect(h * sym(X), variables)
        assert str(info.value) == "%s occurs inside an opaque argument" % name


def test_zero_status_modes():
    x = sym(X)
    q = call(func("q"), x)
    u = call(func("u"), x)
    v = call(func("v"), x)
    up = call(func("u", 1, (1,)), x)
    vp = call(func("v", 1, (1,)), x)
    rules = (
        RewriteRule(func("u", 1, (2,)), -q * u, X),
        RewriteRule(func("v", 1, (2,)), -q * v, X),
        RewriteRule(func("v", 1, (1,)), (1 + up * v) / u, X),
    )
    wronskian = u * vp - up * v - 1
    assert zero_status(wronskian, rules) is ZeroStatus.SYMBOLIC_ZERO
    assert zero_status(u * v - v * u) is ZeroStatus.SYMBOLIC_ZERO
    assert zero_status(u + v, rules) is ZeroStatus.NONZERO
    assert zero_status(x + 1) is ZeroStatus.NONZERO
    assert is_zero(wronskian, rules)


def _assert_no_evaluator():
    # with no float evaluator in the package, no zero test evaluates one
    for name in ("evaluate", "_eval_poly"):
        assert not hasattr(expr_module, name)


def test_zero_status_decides_free_jets_without_sampling():
    _assert_no_evaluator()
    src = SourceEquation.symbolic()
    x, y = sym(X), sym(Y)
    q = src.q
    # each once read numeric-zero: q, u and v were instantiated by name,
    # and A and O shared a test function
    nonzero = [
        (src.d(q), src.rules), (q - 1, src.rules),
        (src.u - call(func("u"), sym(indep("t"))), ()),
        (call(func("A"), x) - call(func("O"), x), ()),
        (call(func("H", 2), x, y) - call(func("H", 2), y, x), ()),
        (src.d(src.u) * src.v - src.u, src.rules),
        # calls at compound and nested arguments
        (call(func("H"), x - y / (x + 1)) - call(func("H"), x - y), ()),
        (call(func("q"), call(func("q"), x / (x + 1))) - q, src.rules),
    ]
    for e, rules in nonzero:
        assert zero_status(e, rules) is ZeroStatus.NONZERO
    zeros = [
        (src.wronskian() - 1, src.rules),
        (call(func("g"), call(func("q"), (x * x - 1) / (x - 1)))
         - call(func("g"), call(func("q"), x + 1)), src.rules),
    ]
    for e, rules in zeros:
        assert zero_status(e, rules) is ZeroStatus.SYMBOLIC_ZERO


def test_zero_status_samples_compound_arguments_by_rank():
    # A and O once shared a test function, keyed on a hash of the name;
    # these are now decided exactly, without evaluating a float
    _assert_no_evaluator()
    x = sym(X)
    a, o = (call(func(name), x + 1) for name in "AO")
    assert zero_status(a - o) is ZeroStatus.NONZERO
    assert zero_status(a * o - o * a) is ZeroStatus.SYMBOLIC_ZERO
    h = call(func("H"), x * x)
    hp = call(func("H", 1, (1,)), x * x)
    assert zero_status(call(func("g"), h) - call(func("g"), hp)) \
        is ZeroStatus.NONZERO


def test_zero_status_decides_calls_at_distinct_points():
    x, y = sym(X), sym(Y)
    x1 = x + 1
    merged = (x * x - 1) / (x - 1)     # x + 1, but not structurally
    h10 = func("H", 2, (1, 0))
    h01 = func("H", 2, (0, 1))
    # a ridge test function H(s) with s = c1*t1 + c2*t2 and c2/c1 = 9/8
    # once made this read numeric-zero
    assert zero_status(9 * call(h10, x1, y) - 8 * call(h01, x1, y)) \
        is ZeroStatus.NONZERO
    assert zero_status(call(func("H"), merged) - call(func("H"), x1)) \
        is ZeroStatus.SYMBOLIC_ZERO
    assert zero_status(call(h10, merged, y) - call(h10, x1, y)) \
        is ZeroStatus.SYMBOLIC_ZERO
    q = func("q")
    for poly, rational in ((x1, merged), (x - y, (x * x - y * y) / (x + y)),
                           (x, (x * x + x) / (x + 1))):
        outer = call(q, call(q, rational))
        inner = call(q, call(q, poly))
        assert zero_status(outer - inner) is ZeroStatus.SYMBOLIC_ZERO
        assert zero_status(inner - outer) is ZeroStatus.SYMBOLIC_ZERO
    assert zero_status(call(q, call(q, x)) - call(q, x)) is ZeroStatus.NONZERO
    assert zero_status(call(func("H"), x) - call(func("H"), x * x)) \
        is ZeroStatus.NONZERO
    # the argument (x q(x) + x)/(q(x) + 1) is nested, but its value is x
    nested_x = (x * call(q, x) + x) / (call(q, x) + 1)
    assert zero_status(call(q, nested_x) - call(q, x)) \
        is ZeroStatus.SYMBOLIC_ZERO
    assert zero_status(call(func("q", 1, (1,)), nested_x)
                       - call(func("q", 1, (1,)), x)) \
        is ZeroStatus.SYMBOLIC_ZERO


def test_rule_head_at_another_argument_is_undecided():
    src = SourceEquation.symbolic()
    x1 = sym(X) + 1
    e = (call(func("u", 1, (2,)), x1)
         + call(func("q"), x1) * call(func("u"), x1))
    with pytest.raises(UndecidedZeroError, match="u is constrained"):
        zero_status(e, src.rules)
    with pytest.raises(UndecidedZeroError):
        zero_status(call(func("f"), call(func("v"), sym(Y))), src.rules)
    # without the rules, u is an unconstrained function
    assert zero_status(e) is ZeroStatus.NONZERO


def _one_stage_zero_status(e, rules):
    """`zero_status` as one stage: all the rules, then `_merge_points`."""
    r = apply_rules(e, rules)
    if r.is_rational_zero() or _merge_points(r, rules).is_rational_zero():
        return ZeroStatus.SYMBOLIC_ZERO
    return ZeroStatus.NONZERO


def _outcome(test, e, rules):
    try:
        return test(e, rules)
    except UndecidedZeroError as err:
        return (type(err), str(err))


def test_staged_zero_status_matches_one_stage():
    """A seeded corpus over the source-equation rules, of an opaque q and
    of the rational q = x/(x+1), whose derivative rules have the
    denominator x + 1: zero through the derivative rules alone (u'' + q u,
    L_3[s]), zero only through the Wronskian rule, nonzero, and u(x+1),
    which is undecided.  The staged test gives each case the one-stage
    status, or raises the same error."""
    for src in (SourceEquation.symbolic(),
                SourceEquation.for_q(sym(X) / (sym(X) + 1))):
        _check_staged_zero_status(src, random.Random(26))


def _check_staged_zero_status(src, rng):
    x, q, u, v = sym(X), src.q, src.u, src.v
    up, vp = src.d(u), src.d(v)
    derivative_rules = [r for r in src.rules if r.head.dorders == (2,)]
    assert len(derivative_rules) == 2

    def l3(s):
        return src.d(s, 3) + 4 * q * src.d(s) + 2 * src.d(q) * s

    by_derivatives = [src.d(u, 2) + q * u, src.d(v, 2) + q * v,
                      l3(u * u), l3(u * v), l3(v * v),
                      l3(3 * u * u - u * v + 2 * v * v)]
    by_wronskian = [src.wronskian() - 1, u * vp - up * v - 1]
    nonzero = [u + v, vp, src.d(q), u * vp - up * v, const(1)]
    shifted = call(func("u"), x + 1)
    factors = [x, q, u, v, up, vp, src.d(q), call(func("H"), x), x + 1]

    def cofactor():
        return const(rng.choice([-3, -1, 1, 2])) * _dot(
            (const(rng.randint(1, 4)), rng.choice(factors)
             * rng.choice(factors)) for _ in range(rng.randint(1, 3)))

    def mix(bases):
        return _dot((cofactor(), rng.choice(bases))
                    for _ in range(rng.randint(1, 3)))

    cases = []
    for _ in range(12):
        cases.append(("derivatives", mix(by_derivatives)))
        cases.append(("wronskian", cofactor() * rng.choice(by_wronskian)
                      + mix(by_derivatives)))
        cases.append(("nonzero", cofactor() * rng.choice(nonzero)
                      + mix(by_derivatives + by_wronskian)))
        cases.append(("undecided", cofactor() * shifted
                      + mix(by_derivatives)))
    cases.append(("derivatives", shifted * mix(by_derivatives)))
    expected = {"derivatives": ZeroStatus.SYMBOLIC_ZERO,
                "wronskian": ZeroStatus.SYMBOLIC_ZERO,
                "nonzero": ZeroStatus.NONZERO}
    for kind, e in cases:
        got = _outcome(zero_status, e, src.rules)
        assert got == _outcome(_one_stage_zero_status, e, src.rules)
        if kind == "undecided":
            assert got[0] is UndecidedZeroError
        else:
            assert got is expected[kind]
        # the first stage alone decides exactly the first kind
        first = apply_rules(e, derivative_rules).is_rational_zero()
        assert first == (kind == "derivatives")


def test_parse_and_format_roundtrip():
    ctx = ParseContext(1)
    cases = ["x^2 + 3*y", "y''", "p^3/(y - x*p)", "q(x)*y + q'(x)",
             "H(x - y/p)", "1/2*x - 7"]
    for text in cases:
        e = parse(text, ctx)
        back = parse(format_expression(e), ParseContext(1))
        assert back == e


def test_parse_errors():
    ctx = ParseContext(1)
    with pytest.raises(ParseError):
        parse("x +", ctx)
    with pytest.raises(ParseError):
        parse("x ** 2", ctx)
    with pytest.raises(ParseError):
        parse("q(x) + q(x, y)", ctx)
    # integers and the digits in names are ASCII digits only
    for text in ("\u0663*y", "a\u0663"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse(text, ctx)
    assert parse("a_1", ctx) == sym(param("a_1"))
    with pytest.raises(ParseError, match="name too long"):
        parse("y" * 1001, ctx)


def test_parse_refuses_expansions_past_the_budget():
    ctx = ParseContext(1)
    n = MAX_EXPANSION_TERMS
    assert len(parse("(x+y)^%d" % (n - 1), ctx).num) == n
    assert len(parse("1/(x+y)^%d" % (n - 1), ctx).den) == n
    # printed quotients of polynomials within the budget read back
    assert len(parse("(x+y)^%d/(x+p)^%d" % (n - 1, n - 1), ctx).num) == n
    for text, pos in (("(x+y)^%d" % n, 5), ("(x+y)^-%d" % n, 5),
                      ("(x+y+p)^40000", 7), ("(x+y)^60*(x+p)^60", 8),
                      ("(x+y)^60/(1/(x+p)^60)", 8),
                      ("+".join("1/(y+a%d)" % i for i in range(8)), 53)):
        with pytest.raises(ParseError, match="too large to expand "
                                             r"\(at position %d\)" % pos):
            parse(text, ctx)


def test_parse_refuses_integers_past_the_digit_bound():
    ctx = ParseContext(1)
    n = MAX_INTEGER_DIGITS
    assert parse("9" * n, ctx) == const(10 ** n - 1)
    assert parse("2^3000*y - 1/3^600", ctx) == \
        2 ** 3000 * sym(Y) - Fraction(1, 3 ** 600)
    assert parse("x^100000", ctx) == sym(X) ** 100000
    for text, pos in (("9" * (n + 1), 0), ("3^100000", 1),
                      ("2*(3*x)^3000", 7), ("1/7^2000", 3),
                      ("10^600*10^600", 6), ("9*10^999*x + 9*10^999*x", 11),
                      ("x/(10^600*x + 1/10^600)", 1)):
        with pytest.raises(ParseError, match=r"integer too large \(at "
                                             r"position %d\)" % pos):
            parse(text, ctx)


def test_parse_refuses_nesting_past_the_depth_bound():
    ctx = ParseContext(1)
    n = MAX_NESTING_DEPTH
    assert parse("(" * (n - 1) + "x" + ")" * (n - 1), ctx) == sym(X)
    assert parse("-" * (n - 1) + "x", ctx) == -sym(X)
    nested = sym(X)
    for _ in range(n - 1):
        nested = call(func("f"), nested)
    assert parse("f(" * (n - 1) + "x" + ")" * (n - 1), ctx) == nested
    for text, pos in (("(" * 600 + "x" + ")" * 600, n),
                      ("y*" + "(" * n + "x" + ")" * n, 2 + n),
                      ("-" * 5000 + "x", n),
                      ("f(" * n + "x" + ")" * n, 2 * n),
                      ("(-" * n + "x" + ")" * n, n)):
        with pytest.raises(ParseError, match=r"input nested too deeply \(at "
                                             r"position %d\)" % pos):
            parse(text, ctx)


def test_parse_multi_component():
    ctx = ParseContext(2)
    e = parse("y1'' + 2*y2", ctx)
    assert e.max_jet_order() == 2


def test_replace_atoms():
    x = sym(X)
    u = call(func("u"), x)
    e = u ** 2 + x
    out = replace_atoms(e, {u.num[0][0][0][0]: x + 1})
    assert out == (x + 1) ** 2 + x


def test_replace_atoms_rebuilds_only_calls_with_a_mapped_atom():
    """A call none of whose atoms, nested ones included, is mapped comes
    back as the same atom; a mapped atom nested in a call is still
    replaced, as g(x) in f(g(x))."""
    x = sym(X)
    g = call(func("g"), x)
    h = call(func("h"), x + 1)
    out = replace_atoms(call(func("f"), g) + h, {g.num[0][0][0][0]: x ** 2})
    assert out == call(func("f"), x ** 2) + h
    (h_out,) = [a for a in out.atoms()
                if isinstance(a, Call) and a.head.name == "h"]
    assert h_out is h.num[0][0][0][0]
    e = call(func("h"), call(func("k"), sym(Y)) + x) * sym(Y)
    assert replace_atoms(e, {Y: x + 1}) == (
        call(func("h"), call(func("k"), x + 1) + x) * (x + 1))
    assert replace_atoms(e, {P: x}) == e


def test_numeric_evaluation():
    x = sym(X)
    e = (x + 1) ** 2
    assert abs(evaluate(e, {X: 2.0}) - 9.0) < 1e-12


def _assert_same(fn, reference, *args):
    """fn(*args) matches the term-by-term loop reference(*args) (see
    `assert_matches_fold`), or both raise ZeroDivisionError.  collect's
    pieces are polynomials, so its maps are always the same."""
    try:
        expected = reference(*args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(*args)
        return
    got = fn(*args)
    if isinstance(expected, dict):
        assert got == expected
        return
    exprs = [g for arg in args
             for g in (arg.values() if isinstance(arg, dict) else [arg])
             if isinstance(g, Expression)]
    assert_matches_fold(got, expected, monomial_denominators(*exprs))


def test_rebuild_matches_reference_loops_randomized():
    """The one-sum rebuild matches the term-by-term loops it replaced
    (see `_assert_same`), also for images with non-monomial denominators
    and for atoms inside opaque-call arguments."""
    rng = random.Random(11)
    A = param("a")
    x, y, p, a, b = sym(X), sym(Y), sym(P), sym(A), sym(param("b"))
    q = call(func("q"), x)
    h = call(func("H", 2), x - y / p, a)
    g = call(func("G"), y + b)
    calls = [c.num[0][0][0][0] for c in (q, h, g)]
    # images free of y and p, so bindings for Y and P are acyclic
    free = [x, a, b, q, call(func("G"), a / (x + 1))]
    # p only polynomially and outside call arguments, for collect
    coefficients = [x, y, a, q, g]
    # the pieces come in the order y, -p, a: the running sum
    # (x^2-1)/(x-1) - (x+1) is zero before 1/(x+1) is added
    e = y - p + a
    bindings = {Y: (x ** 2 - 1) / (x - 1), P: x + 1, A: 1 / (x + 1)}
    assert substitute(e, bindings) == 1 / (x + 1)
    _assert_same(substitute, reference_substitute, e, bindings)

    def image():
        # half of the images carry the uncancelled factor x + 1, so sums
        # of pieces collapse at points that depend on the order of adding
        r = random_expression(rng, 2, free)
        return r * (x + 1) / (x + 1) if rng.random() < 0.5 else r

    for _ in range(150):
        e = random_expression(rng, 3, [x, y, p, a, b, q, h, g])
        bindings = {Y: image(), P: image()}
        _assert_same(substitute, reference_substitute, e, bindings)
        mapping = {c: image() for c in calls}
        mapping[A] = image()
        _assert_same(replace_atoms, reference_replace_atoms, e, mapping)
        for s in (X, Y, P, A):
            _assert_same(differentiate, reference_differentiate, e, s)
        poly_in_p = sum((random_expression(rng, 2, coefficients) * p ** k
                         for k in range(3)), zero())
        _assert_same(collect, reference_collect, poly_in_p, [P])
        for mon, _c in e.num:
            expected = reference_monomial_expression(mon)
            assert monomial_expression(mon) == expected


def _random_polynomial(rng, atoms, terms, degree):
    """A sum of `terms` random monomials in `atoms`, each of total degree
    at most `degree`, with small nonzero integer coefficients."""
    out = zero()
    for _ in range(terms):
        term = const(rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(0, degree)):
            term = term * rng.choice(atoms)
        out = out + term
    return out


def test_polynomial_rebuild_matches_reference_randomized():
    """Substituting polynomial and rational images into monomials with
    exponents up to 4 matches multiplying the images one at a time (see
    `_assert_same`).  A rational image may come before, between or after
    the polynomial ones in a monomial, and (x + 1) * (1/(x + 1))
    collapses to 1 before a later polynomial factor is multiplied in."""
    rng = random.Random(17)
    A, B = param("a"), param("b")
    x, y, p, a, b = sym(X), sym(Y), sym(P), sym(A), sym(B)
    g = call(func("G"), y + b)          # argument holds the bound y
    h = call(func("H", 2), x - p, a)     # argument holds the bound p
    calls = [c.num[0][0][0][0] for c in (g, h)]
    free = [x, b, call(func("q"), x)]
    # a monomial in y, p and a takes its factors in that order; every
    # assignment of these images puts a rational one first, between or
    # last, and many make a partial product collapse
    family = [x + 1, -2 / (x + 1), 3 * (x + 1) ** 2, 1 / (x + 1) ** 2,
              x ** 2 - b]
    for iy, ip, ia in itertools.product(family, repeat=3):
        for e in (y * p * a, 3 * y ** 2 * p * a ** 2 - y * p):
            _assert_same(substitute, reference_substitute, e,
                         {Y: iy, P: ip, A: ia})
    assert substitute(y ** 2 * p * a, {Y: x + 1, P: 1 / (x + 1) ** 2,
                                       A: x + 2}) == x + 2
    for case in range(80):
        e = zero()
        for _ in range(rng.randint(1, 4)):
            term = const(rng.choice((-2, -1, 1, 3)))
            for atom in rng.sample([x, y, p, a, b, g, h], rng.randint(1, 4)):
                term = term * atom ** rng.randint(1, 4)
            e = e + term
        images = {}
        for s in (Y, P, A):
            kind = rng.random()
            if kind < 0.4:
                # multi-term, with x + 1 as a factor half of the time
                img = _random_polynomial(rng, free, rng.randint(2, 3), 2)
                if rng.random() < 0.5:
                    img = img * (x + 1)
            elif kind < 0.55:
                # the product (x + b)(x - b) cancels its cross terms
                img = (x + b) * (x - b)
            elif kind < 0.6:
                img = zero()
            else:
                img = (_random_polynomial(rng, free, 1, 2)
                       / (x + 1) ** rng.randint(1, 2))
            images[s] = img
        _assert_same(substitute, reference_substitute, e, images)
        mapping = dict(images)
        mapping[X] = x                  # an atom mapped to itself
        mapping[calls[case % 2]] = images[(Y, P, A)[case % 3]]
        _assert_same(replace_atoms, reference_replace_atoms, e, mapping)


def test_cancel_monomial_gcd_matches_reference_randomized():
    rng = random.Random(19)
    atoms = [X, Y, P, param("a"), Call(func("f"), (sym(X),))]

    def terms(n, constant):
        d = {}
        if constant:
            d[()] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        shared = {a: rng.randint(1, 2) for a in rng.sample(atoms, 2)}
        for _ in range(n):
            powers = dict(shared) if rng.random() < 0.7 else {}
            for a in rng.sample(atoms, rng.randint(1, 3)):
                powers[a] = powers.get(a, 0) + rng.randint(1, 3)
            d[_mk_mon(powers)] = Fraction(rng.choice((-3, -1, 1, 2)),
                                          rng.randint(1, 4))
        return _terms_from_dict(d)

    cancelled = with_constant = 0
    for _ in range(400):
        num = terms(rng.randint(1, 4), rng.random() < 0.2)
        den = terms(rng.randint(0, 3), rng.random() < 0.5)
        if not den:
            den = ((_ONE_MON, Fraction(1)),)
        got = _cancel_monomial_gcd(num, den)
        assert got == reference_cancel_monomial_gcd(num, den)
        cancelled += got != (num, den)
        with_constant += not den[0][0]
    assert cancelled > 50 and 100 < with_constant < 300


# ---------------------------------------------------------------------------
# Atoms: interned, with cached sort keys


def _random_head(rng):
    arity = rng.randint(1, 2)
    dorders = tuple(rng.choice((0, 0, 1, 2)) for _ in range(arity))
    return func(rng.choice("fg"), arity, dorders)


def _random_atoms(rng, n):
    atoms = [X, Y, P, param("a"), dep(2, "w"), jet(2, 3, "w")]
    while len(atoms) < n:
        head = _random_head(rng)
        args = tuple(random_expression(rng, 1, [atom_expr(a) for a in atoms])
                     for _ in range(head.arity))
        atoms.append(Call(head, args))
    return atoms


def test_atom_keys_cached_and_structural():
    """Atoms are interned: equal fields give the one live object, so `==`
    and the hash are identity, and copies and pickles come back as it."""
    x = sym(X)
    assert Symbol("y", JET, index=1, order=2) is jet(1, 2, "y")
    assert Symbol("y", JET, index=1, order=3) is not jet(1, 2, "y")
    # a jet of order zero is the dependent variable, the same object
    y0 = Symbol("y", JET, order=0)
    assert y0 is dep(0, "y")
    assert y0.sort_key() == dep(0, "y").sort_key() == reference_sort_key(y0)
    c1 = Call(func("f", 2, (1, 0)), (x + 1, call(func("g"), x / 3)))
    c2 = Call(func("f", 2, (1, 0)), (x + 1, call(func("g"), x / 3)))
    assert c1 is c2
    assert c1 != Call(func("f", 2, (0, 1)), c1.args)
    for a in (X, y0, c1):
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b is a
            assert b.sort_key() == a.sort_key()
            assert {a: 1}[b] == 1
    rng = random.Random(5)
    for a in _random_atoms(rng, 60):
        assert a.sort_key() == reference_sort_key(a)


def test_atoms_built_twice_are_one_object():
    for seed in range(5):
        first = _random_atoms(random.Random(seed), 40)
        again = _random_atoms(random.Random(seed), 40)
        assert all(a is b for a, b in zip(first, again))


def test_atom_table_keeps_no_atom_alive():
    gc.collect()
    before = len(expr_module._ATOMS)
    made = [param("_probe%d" % k) for k in range(10000)]
    assert len(expr_module._ATOMS) == before + 10000
    del made
    gc.collect()
    assert len(expr_module._ATOMS) == before


def test_calls_on_int_and_fraction_coefficients_are_one_atom():
    """Fraction(3) == 3 with equal hashes, so arguments that differ only
    in the type of a coefficient make one call, which prints as either."""
    x = sym(X)
    for first, second in ((_fraction_number(3), const(3)),
                          (x + 3, x + _fraction_number(3)),
                          (_fraction_atom(X) * 2, 2 * x)):
        a = Call(func("k"), (first,))
        b = Call(func("k"), (second,))
        assert a is b
        assert format_expression(first) == format_expression(second)
        assert format_expression(atom_expr(a)) == "k(%s)" % (
            format_expression(second))


def test_atom_hash_survives_pickle_across_processes():
    """A hash stored in a pickle would be stale in a process with another
    string-hash seed; unpickling rebuilds the atoms instead."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(noncartan.__file__)))
    code = ("import pickle, sys\n"
            "from noncartan import call, func, indep, sym\n"
            "x = sym(indep('x'))\n"
            "e = call(func('f', 2, (1, 0)), x + 1, call(func('g'), x / 3))\n"
            "sys.stdout.buffer.write(pickle.dumps((indep('x'), e)))\n")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True, timeout=60).stdout
    s, e = pickle.loads(out)
    x = sym(indep("x"))
    here = call(func("f", 2, (1, 0)), x + 1, call(func("g"), x / 3))
    assert s == X and hash(s) == hash(X)
    assert e == here and hash(e) == hash(here)
    assert {here: 1}[e] == 1


def test_atom_key_determines_the_atom():
    """Only an opaque symbol has an arity and only a non-opaque one an
    index or an order, so unequal atoms have unequal keys."""
    with pytest.raises(ValueError):
        Symbol("x", X.kind, arity=1)
    for fields in ({"index": 1}, {"order": 1}):
        with pytest.raises(ValueError):
            Symbol("f", OPAQUE, arity=1, dorders=(0,), **fields)
    rng = random.Random(29)
    atoms = set(_random_atoms(rng, 200)) | {func("f"), func("g", 2)}
    assert len({a.sort_key() for a in atoms}) == len(atoms)


def test_mon_mul_matches_reference_randomized():
    """The merging product equals the dict-and-sort product."""
    rng = random.Random(23)
    for case in range(600):
        atoms = _random_atoms(rng, 10) + [func("h")]

        def monomial():
            chosen = rng.sample(atoms, rng.choice((0, 1, 2, 3, 5)))
            return _mk_mon({a: rng.randint(1, 3) for a in chosen})

        m1, m2 = monomial(), monomial()
        if rng.random() < 0.3:
            m2 = _mk_mon(dict(rng.sample(m1, len(m1)) + list(m2)))
        got = _mon_mul(m1, m2)
        assert got == reference_mon_mul(m1, m2), case
        keys = [a.sort_key() for a, _e in got]
        assert keys == sorted(set(keys)), case


def test_contains_matches_reference_randomized():
    rng = random.Random(13)
    hits = base_hits = 0
    for _ in range(300):
        atoms = _random_atoms(rng, 9)
        e = random_expression(rng, 3, [atom_expr(a) for a in atoms])
        for s in [_random_head(rng), func(rng.choice("fg"), rng.randint(1, 2)),
                  rng.choice([X, Y, P, param("a")])]:
            found = e.contains(s)
            assert found == reference_contains(e, s)
            hits += found
            base_hits += found and all(
                a != s and not (isinstance(a, Call) and a.head == s)
                for a in e.atoms())
    assert hits > 100 and base_hits > 30


# ---------------------------------------------------------------------------
# Coefficient domain: an int while integral, a Fraction otherwise


_FRACTION_ONE = ((_ONE_MON, Fraction(1)),)


def _fraction_number(v):
    """The constant v with its coefficient stored as a Fraction, integral
    or not, and a Fraction unit denominator."""
    return Expression(((_ONE_MON, Fraction(v)),) if v else (), _FRACTION_ONE)


def _fraction_atom(a):
    return Expression(((((a, 1),), Fraction(1)),), _FRACTION_ONE)


def _coefficients(e):
    """Every coefficient of e, including those in opaque-call arguments."""
    args = [arg for a in e.atoms() if isinstance(a, Call) for arg in a.args]
    for x in [e] + args:
        for terms in (x.num, x.den):
            for _mon, c in terms:
                yield c


def _assert_same_value(a, b):
    """a and b are equal, hash alike and print alike, and each of their
    coefficients is an int or a Fraction (never a float or a bool)."""
    assert a == b and hash(a) == hash(b)
    assert format_expression(a) == format_expression(b)
    for c in itertools.chain(_coefficients(a), _coefficients(b)):
        assert type(c) in (int, Fraction), (type(c), format_expression(a))


def _domain_build(rng, number, atom, atoms, depth):
    """A random expression over `atoms` from the recipe that rng draws:
    constants come from number(v), atoms from atom(a), and some atoms are
    calls q(arg) with a random argument built the same way."""
    if depth == 0 or rng.random() < 0.3:
        u = rng.random()
        if u < 0.3:
            return number(Fraction(rng.randint(-4, 4),
                                   rng.choice((1, 1, 2, 3))))
        if u < 0.4:
            arg = _domain_build(rng, number, atom, atoms, 1)
            return atom(Call(func("q"), (arg,)))
        return atom(rng.choice(atoms))
    left = _domain_build(rng, number, atom, atoms, depth - 1)
    right = _domain_build(rng, number, atom, atoms, depth - 1)
    op = rng.random()
    if op < 0.3:
        return left + right
    if op < 0.5:
        return left - right
    if op < 0.75:
        return left * right
    if op < 0.85 and not left.is_rational_zero():
        return left ** rng.choice((2, 3, -1, -2))
    return left / right if not right.is_rational_zero() else left


def _or_zero_division(fn, *args):
    """fn(*args), or zero() when an image of zero meets a denominator."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return zero()


def test_coefficient_domain_randomized():
    """Expressions built from int inputs and the same expressions built
    with every input coefficient stored as a Fraction stay equal, hash
    alike and print alike through every operation, and no operation
    produces a float or a bool coefficient."""
    A, B = param("a"), param("b")
    atoms = [X, Y, P, A, B, Call(func("q"), (sym(X),))]
    free = [X, A, B]
    builds = [(const, atom_expr), (_fraction_number, _fraction_atom)]
    q_prime = Call(func("q", 1, (1,)), (sym(X),))
    kinds = set()
    for case in range(120):
        per_build = []
        for number, atom in builds:
            rng = random.Random(case)
            e = _domain_build(rng, number, atom, atoms, 3)
            g = _domain_build(rng, number, atom, atoms, 2)
            images = [_domain_build(rng, number, atom, free, 2)
                      for _ in range(3)]
            rule = RewriteRule(
                func("q", 1, (1,)),
                number(Fraction(2, 3)) * atom(Call(func("q"), (sym(X),)))
                - atom(X), X)
            results = [e, g, e + g, e - g, e * g, e ** 2, -e]
            if not g.is_rational_zero():
                results += [e / g, g ** -1]
            results += [differentiate(e, s) for s in (X, Y, P)]
            results.append(_or_zero_division(
                substitute, e, {Y: images[0], P: images[1]}))
            results.append(_or_zero_division(
                replace_atoms, e, {atoms[-1]: images[2], A: images[0]}))
            results.append(apply_rules(differentiate(e, X) + atom(q_prime),
                                       (rule,)))
            try:
                groups = collect(e, [P])
            except CollectError:
                groups = {}
            results.extend(groups.values())
            results.append(parse(format_expression(e), ParseContext(1)))
            per_build.append(results)
        ints, fractions = per_build
        assert len(ints) == len(fractions)
        for a, b in zip(ints, fractions):
            _assert_same_value(a, b)
            kinds.update(type(c) for c in _coefficients(a))
        assert ints[-1] == ints[0]
        kinds.update(type(c) for c in _coefficients(fractions[0]))
    assert kinds == {int, Fraction}


def test_coefficient_domain_fixed_cases():
    x = sym(X)
    for v in (3, Fraction(6, 2), True, 3.0):
        assert type(const(v).num[0][1]) is int
    assert type(const(Fraction(1, 2)).num[0][1]) is Fraction
    assert type((x * True).num[0][1]) is int
    # rescaling by the leading denominator coefficient and the collapse
    # ratio are exact quotients
    half = x / (2 * x + 2)
    assert [type(c) for _m, c in half.num] == [Fraction]
    assert [type(c) for _m, c in half.den] == [int, int]
    assert (4 * x + 2) / (2 * x + 1) == const(2)
    assert type(((4 * x + 2) / (2 * x + 1)).num[0][1]) is int
    assert type(((2 * x + 2) / (4 * x + 4)).num[0][1]) is Fraction
    # an integral quotient of two Fractions is an int too
    e = (x / 2) / (const(Fraction(1, 2)) + x / 3)
    assert [type(c) for _m, c in e.num] == [int]
    assert [type(c) for _m, c in e.den] == [int, Fraction]
    for e in (const(3), zero(), x / x, const(Fraction(5, 2)),
              _fraction_number(4), (6 * x) / (4 * x)):
        assert type(e.constant_value()) is Fraction
    assert (6 * x / (4 * x)).constant_value() == Fraction(3, 2)


def test_dot_matches_sum_of_products():
    """_dot equals, structurally, the grouped sum of the products f * g
    over the pairs (`grouped_sum`): rational pairs come first, in the
    middle or last, some products cancel each other, and some rational
    pairs have polynomial products."""
    x, y, a = sym(X), sym(Y), sym(param("a"))
    family = [
        (x + 1, y - a), (y - a, -(x + 1)), (x + 1, const(-1)), (x, const(3)),
        (zero(), x + y), ((x + a) * (x - a), y),
        (one(), (x ** 2 - 1) / (x - 1)), (one(), 1 / (x + 1)),
        (1 / (x + 1), y / (x - a)), (x / (y + 1), const(-1)),
        (x + 1, 1 / (x + 1)),
    ]
    assert _dot([]) == zero()
    # the running sum (x^2-1)/(x-1) - (x+1) is zero before 1/(x+1) is added
    assert _dot([family[6], family[2], family[7]]) == 1 / (x + 1)
    for pairs in itertools.product(family, repeat=3):
        assert _dot(pairs) == grouped_sum(f * g for f, g in pairs)
    rng = random.Random(31)
    for _ in range(200):
        pairs = [(random_expression(rng, 2), random_expression(rng, 2))
                 for _ in range(rng.randint(0, 5))]
        assert _dot(iter(pairs)) == grouped_sum(f * g for f, g in pairs)


def _random_piece(rng, atoms, monomials, multi):
    """A constant, a polynomial in the atoms, or a polynomial over one
    of the monomials or over one of the multi-term polynomials, with
    Fraction coefficients."""
    def coefficient():
        return const(Fraction(rng.choice((-5, -2, -1, 1, 3, 4)),
                              rng.choice((1, 1, 2, 3, 7))))

    kind = rng.random()
    num = coefficient() * _random_polynomial(rng, atoms, rng.randint(1, 3), 2)
    if kind < 0.15:
        return coefficient()
    if kind < 0.3:
        return num
    if kind < 0.85:
        return num / rng.choice(monomials)
    return num / rng.choice(multi)


def _piece_family():
    x, y, a = sym(X), sym(Y), sym(param("a"))
    u = call(func("u"), x)
    return ([x, y, a, u], [x, y ** 2, x * u, u ** 3, x ** 2 * y],
            [x + 1, x - a, u + y])


def test_sum_matches_plus_fold_randomized():
    """The grouped sum (`grouped_sum`) matches folding the pieces with
    `+` (see `assert_matches_fold`), structurally when every piece is
    over one monomial: constants, polynomials, pieces over one monomial
    (summed over the lcm in one pass) and pieces over a multi-term
    denominator, in shuffled orders, with Fraction coefficients, pieces
    that cancel each other and numerators that share a monomial factor
    with the lcm."""
    rng = random.Random(37)
    x, y = sym(X), sym(Y)
    u = call(func("u"), x)
    family = _piece_family()
    grouped = 0
    for case in range(400):
        pieces = [_random_piece(rng, *family)
                  for _ in range(rng.randint(0, 6))]
        if case % 3 == 0 and pieces:
            # a piece and its negative, so that the running sum collapses
            pieces.append(-rng.choice(pieces))
        rng.shuffle(pieces)
        got = grouped_sum(pieces)
        expected = reference_sum(pieces)
        monomial = all(len(p.den) == 1 for p in pieces)
        assert_matches_fold(got, expected, monomial)
        if monomial:
            assert format_expression(got) == format_expression(expected)
        dens = {p.den for p in pieces if len(p.den) == 1}
        grouped += len(dens) > 1
    assert grouped > 150
    # u^2/x + u/x^2 - u^2/x: the lcm x^2 is raised above the sum's x^2
    # and cancels against nothing; 1/x - 1/x is zero
    assert grouped_sum([u ** 2 / x, u / x ** 2, -(u ** 2) / x]) == u / x ** 2
    assert grouped_sum([1 / x, -1 / x]) == zero()
    assert grouped_sum([x * y / x ** 2, y / x]) == 2 * y / x


def test_sum_is_independent_of_piece_order_randomized():
    """The grouped sum of the pieces in a shuffled order is the same
    expression as in the original order, also with multi-term
    denominators, where a fold with `+` depends on the order."""
    rng = random.Random(43)
    family = _piece_family()
    x = sym(X)
    for case in range(300):
        pieces = [_random_piece(rng, *family)
                  for _ in range(rng.randint(1, 6))]
        if case % 3 == 0:
            # the first two sum to zero, which the fold sees when it adds
            # them one after the other and not when 1/(x+1) comes between
            pieces += [(2 + x) / ((1 + x) * (2 + x)),
                       -(3 + x) / ((1 + x) * (3 + x)), 1 / (x + 1)]
        shuffled = list(pieces)
        rng.shuffle(shuffled)
        assert grouped_sum(shuffled) == grouped_sum(pieces), case


def test_apply_rules_matches_per_pass_lifting_randomized():
    """apply_rules with the lifted replacements a rule keeps equals,
    structurally, the loop that lifts each replacement afresh for every
    atom in every pass; one rule set serves every case, so later cases
    reuse earlier lifts."""
    src = SourceEquation.symbolic()
    x = sym(X)
    u, v, q = src.u, src.v, src.q
    derivs = [src.d(f, k) for f in (u, v) for k in range(1, 6)]
    atoms = [u, v, q, x, sym(Y)] + derivs
    rng = random.Random(41)
    for case in range(60):
        e = random_expression(rng, 3, atoms)
        assert apply_rules(e, src.rules) == \
            reference_apply_rules(e, src.rules), case
    for rule in src.rules:
        lift = rule.replacement
        for i in range(5):
            assert rule.lifted(i) == lift
            lift = differentiate(lift, X)
    # a fresh rule set lifts from scratch and agrees
    fresh = SourceEquation.symbolic().rules
    e = src.d(u, 5) * src.d(v, 4) + src.d(v, 3) / u
    assert apply_rules(e, fresh) == apply_rules(e, src.rules) \
        == reference_apply_rules(e, fresh)


def test_fused_rebuilds_fall_back_at_the_first_rational_term():
    """substitute and replace_atoms multiply each term's polynomial
    images into one term dict, its lead, and group the terms by the tuple
    of their atoms with rational images: the leads of one tuple are
    summed and multiplied through those images with `*` once, the empty
    tuple's sum being the polynomial group (`_lead_product`, `_replace`);
    differentiate puts each piece into the group of its derivative's
    denominator (`_diff_poly`).  With the term that holds a rational
    image or derivative placed first, in the middle or last among the
    terms, and first, in the middle or last within its monomial, the
    result matches the running sum's (see `_assert_same`)."""
    x, y, a = sym(X), sym(Y), sym(param("a"))
    A = param("a")
    g = call(func("G"), 1 / (x + 1))     # d/dx is rational
    G = g.num[0][0][0][0]
    h = call(func("H"), y)
    position = {"first": 0, "middle": 1, "last": 2}

    def where(e, atom):
        hits = [i for i, (mon, _c) in enumerate(e.num)
                if any(b == atom for b, _k in mon)]
        return hits[0]

    # the term holding the parameter a, whose image is rational
    for place, e in (("first", x * a + x ** 2 + y),
                     ("middle", x + y * a * h + y ** 2),
                     ("last", x + y + a * h)):
        assert len(e.num) == 3 and where(e, A) == position[place]
        for img in (1 / (x + 1), (x ** 2 - 1) / (x - 1), -x / (y + 2)):
            bindings = {A: img, Y: x + 2}
            _assert_same(substitute, reference_substitute, e, bindings)
            mapping = {A: img, h.num[0][0][0][0]: x - 1}
            _assert_same(replace_atoms, reference_replace_atoms, e, mapping)
    # the term holding G(1/(x+1)), whose x-derivative is rational
    for place, e in (("first", x * g + x ** 2 + x ** 3 * y),
                     ("middle", x + x ** 2 * g * h + x ** 3),
                     ("last", x + x ** 2 + g)):
        assert len(e.num) == 3 and where(e, G) == position[place]
        _assert_same(differentiate, reference_differentiate, e, X)
        _assert_same(differentiate, reference_differentiate, e * (x + 1), X)
        _assert_same(differentiate, reference_differentiate, e / (x + 1), X)
    # (x^2-1)/(x-1) divides out to x + 1 when it is built, so the fold's
    # running sum is zero before p is added, and both sums give p
    e = y + a + sym(param("b"))
    bindings = {Y: -(x + 1), A: (x ** 2 - 1) / (x - 1), param("b"): sym(P)}
    assert substitute(e, bindings) == sym(P)
    _assert_same(substitute, reference_substitute, e, bindings)
    # within a monomial: 3 * x * a * G(..) with a rational image for a
    # multiplies the images of x and G into the lead, then the lead by
    # a's image through `*`
    e = 3 * x * a * g - y
    _assert_same(substitute, reference_substitute, e,
                 {A: 1 / (x + 1), X: y + 1})


def test_replace_sums_the_leads_of_terms_with_equal_rational_atoms():
    """`replace_atoms` multiplies the polynomial images of each term into
    its lead, sums the leads of the terms whose atoms with rational
    images agree, and runs one `*` chain per such group; the result
    equals the term-by-term `*` fold in value, on monomials whose atoms
    with polynomial and rational images interleave, and when the leads of
    a group cancel to zero."""
    rng = random.Random(53)
    x, b = sym(X), sym(param("b"))
    # a0 < a1 < ... in every monomial, so the kinds of image alternate
    atoms = [param("a%d" % i) for i in range(6)]
    polys, rats = atoms[0::2], atoms[1::2]
    interleaved = cancelled = 0
    for case in range(80):
        mapping = {}
        for a in polys:
            mapping[a] = (_random_polynomial(rng, [x, b], rng.randint(1, 2), 2)
                          if rng.random() < 0.8 else const(rng.randint(2, 3)))
        for a in rats:
            mapping[a] = (_random_polynomial(rng, [x, b], rng.randint(1, 2), 1)
                          / (x + rng.randint(1, 3)) ** rng.randint(1, 2))
        # a twin of a0: the terms a0 * r and -a4 * r have leads that cancel
        mapping[atoms[4]] = mapping[atoms[0]]
        e = zero()
        for _ in range(rng.randint(2, 5)):
            term = const(rng.choice((-2, -1, 1, 3)))
            for a in rng.sample(atoms, rng.randint(1, 5)):
                term = term * sym(a) ** rng.choice((1, 1, 2))
            e = e + term
        rest = sym(rng.choice(rats))
        twin = const(rng.choice((-2, 1, 3))) * rest
        if rng.random() < 0.5:
            twin = twin * sym(atoms[2])
        e = e + twin * (sym(atoms[0]) - sym(atoms[4]))
        got = replace_atoms(e, mapping)
        assert is_zero(got - reference_replace_atoms(e, mapping)), case
        for mon, _c in e.num:
            kinds = [a in polys for a, _k in mon]
            interleaved += any(kinds[i] and not kinds[i + 1] and kinds[i + 2]
                               for i in range(len(kinds) - 2))
        # the twin terms' group cancels unless a random term joins it
        groups = {}
        for mon, c in e.num:
            key = tuple((a, k) for a, k in mon if a in rats)
            lead = const(c)
            for a, k in mon:
                if a in polys:
                    lead = lead * mapping[a] ** k
            groups[key] = groups.get(key, zero()) + lead
        cancelled += any(g.is_rational_zero() for g in groups.values())
    assert interleaved > 30
    assert cancelled > 30
