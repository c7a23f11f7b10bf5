"""Acceptance suite: one test (and one printed pass/fail line) per
criterion."""

import functools
import io
import json
import contextlib
import random

from noncartan import (
    JetContext, LinearSystemSpec, OdeSystem, PointTransformation,
    SourceEquation, ZeroStatus, brute_force_non_cartan_search, c1_symmetry_pde_residual, call,
    canonical_basis, change_coordinates, classify_linear_system, commutator,
    const, cubic_in_p_test, determining_system_2x2, differentiate,
    free_fall_symmetries, func, indep, invariance_residual, is_non_cartan,
    is_zero, isotropic_system, IterativeOperator, non_cartan_family,
    non_cartan_generators, nonlinear_counterexample, normal_form_coeffs,
    normalize_s, scalar_context, source_solution_basis, sym, zero, one,
    zero_status, apply_rules,
)
from noncartan import linalg
from noncartan.cli import main as cli_main

from helpers import (
    evaluate, flatten_fields, random_expression, random_point_field,
)

X = indep("x")
TOL = 1e-8


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            import sys
            try:
                fn()
            except BaseException:
                print("criterion %2d FAIL: %s" % (num, title),
                      file=sys.__stdout__, flush=True)
                raise
            print("criterion %2d PASS: %s" % (num, title),
                  file=sys.__stdout__, flush=True)
        run.criterion_info = (num, title)
        return run
    return wrap


@criterion(1, "free-fall suite: 8 symbolic-zero invariances, 2 non-Cartan")
def test_criterion_01_free_fall():
    system = OdeSystem(scalar_context(), (zero(),))
    fields = free_fall_symmetries()
    assert len(fields) == 8
    for v in fields:
        for r in invariance_residual(v, system):
            assert zero_status(r) is ZeroStatus.SYMBOLIC_ZERO
    assert sum(1 for v in fields if is_non_cartan(v)) == 2


@criterion(2, "non-Cartan generators: invariance and abelian brackets, "
              "m in {1,2,3}")
def test_criterion_02_non_cartan_abelian():
    src = SourceEquation.symbolic()
    for m in (1, 2, 3):
        ctx = JetContext(m, 2)
        system = isotropic_system(src, ctx)
        fields = non_cartan_generators(src, ctx)
        assert len(fields) == 2 * m
        for v in fields:
            for r in invariance_residual(v, system):
                assert zero_status(r, src.rules) is ZeroStatus.SYMBOLIC_ZERO
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                br = commutator(fields[i], fields[j])
                for comp in br.components():
                    assert zero_status(comp, src.rules) is \
                        ZeroStatus.SYMBOLIC_ZERO


@criterion(3, "dimension count m^2 + 4m + 3 with rational independence")
def test_criterion_03_dimension():
    src = SourceEquation.symbolic()
    for m in (1, 2, 3):
        ctx = JetContext(m, 2)
        fields = canonical_basis(src, ctx) + non_cartan_generators(src, ctx)
        assert len(fields) == m * m + 4 * m + 3
        comps = [tuple(apply_rules(c, src.rules) for c in f.components())
                 for f in fields]
        vectors = flatten_fields(comps)
        assert linalg.rank(vectors) == len(fields)


def _equivalence_instances():
    """Instances of x = rho(t), y = pi(t) u + sigma(t) as forward maps
    (t(x, y), u(x, y)) with declared inverses."""
    old = scalar_context()
    new = JetContext(1, 2, indep_name="t", dep_names=("u",))
    x, y = old.x, old.y(1)
    xs, ys = sym(x), sym(y)
    t = sym(new.x)
    u = sym(new.y(1))
    out = []
    # rho = t, pi = 1, sigma = t^2
    out.append(PointTransformation(old, new, (xs, ys - xs ** 2),
                                   ({x: t, y: u + t ** 2},)))
    # rho = 2t + 1, pi = 3, sigma = 0
    out.append(PointTransformation(old, new, ((xs - 1) / 2, ys / 3),
                                   ({x: 2 * t + 1, y: 3 * u},)))
    # rho = t, pi = t, sigma = 0
    out.append(PointTransformation(old, new, (xs, ys / xs),
                                   ({x: t, y: t * u},)))
    # rho = t, pi = P(t) opaque, sigma = 0
    p_old = call(func("P"), xs)
    p_new = call(func("P"), t)
    out.append(PointTransformation(old, new, (xs, ys / p_old),
                                   ({x: t, y: p_new * u},)))
    return out


@criterion(4, "pushed free-fall basis keeps exactly two non-Cartan fields")
def test_criterion_04_equivalence_push():
    instances = _equivalence_instances()
    assert len(instances) >= 3
    for tr in instances:
        pushed = [change_coordinates(v, tr) for v in free_fall_symmetries()]
        assert sum(1 for v in pushed if is_non_cartan(v)) == 2


def _linear_equivalence_instances():
    old = scalar_context()
    new = JetContext(1, 2, indep_name="t", dep_names=("u",))
    x, y = old.x, old.y(1)
    xs, ys = sym(x), sym(y)
    t = sym(new.x)
    u = sym(new.y(1))
    return [
        PointTransformation(old, new, (2 * xs + 1, 3 * ys),
                            ({x: (t - 1) / 2, y: u / 3},)),
        PointTransformation(old, new, (xs / (1 + xs), 2 * ys),
                            ({x: t / (1 - t), y: u / 2},)),
        PointTransformation(old, new, (1 / xs, 5 * ys),
                            ({x: 1 / t, y: u / 5},)),
    ]


@criterion(5, "coordinate-free non-Cartan flag and bracket homomorphism")
def test_criterion_05_coordinate_free():
    fields = free_fall_symmetries()
    pairs = [(0, 7), (3, 4), (6, 7), (2, 6), (1, 5), (4, 6)]
    for tr in _linear_equivalence_instances():
        pushed = [change_coordinates(v, tr) for v in fields]
        for orig, new in zip(fields, pushed):
            assert is_non_cartan(new) == is_non_cartan(orig)
        for i, j in pairs:
            direct = change_coordinates(commutator(fields[i], fields[j]), tr)
            after = commutator(pushed[i], pushed[j])
            for a, b in zip(direct.components(), after.components()):
                assert is_zero(a - b)


@criterion(6, "iterative machinery: s normalization and normal-form "
              "coefficients")
def test_criterion_06_iterative():
    x = sym(X)
    r = call(func("r"), x)
    s = normalize_s(r, 2)
    rp = call(func("r", 1, (1,)), x)
    assert s == -rp / 2
    ctx = scalar_context(2)
    expanded = IterativeOperator(r, s).power_applied(2, ctx)
    assert differentiate(expanded, ctx.jet(1, 1)).is_rational_zero()
    src = SourceEquation.symbolic()
    nf2 = normal_form_coeffs(src, 2)
    assert nf2.coefficient(2) == src.q
    for n in (3, 4):
        nf = normal_form_coeffs(src, n)
        for s_k in source_solution_basis(src, n):
            resid = src.d(s_k, n)
            for j in range(2, n + 1):
                resid = resid + nf.coefficient(j) * src.d(s_k, n - j)
            assert zero_status(resid, src.rules) is ZeroStatus.SYMBOLIC_ZERO


@criterion(7, "nonlinear family and its non-linearizable member")
def test_criterion_07_nonlinear_family():
    pair = non_cartan_generators(SourceEquation.trivial(), scalar_context())
    family = non_cartan_family()
    for v in pair:
        for r in invariance_residual(v, family):
            assert is_zero(r)
    member = nonlinear_counterexample()
    for v in pair:
        for r in invariance_residual(v, member):
            assert is_zero(r)
    assert not cubic_in_p_test(member.rhs[0], member.ctx.jet(1, 1))
    assert is_zero(c1_symmetry_pde_residual(family.rhs[0], family.ctx))


@criterion(8, "determining system contains all expected structural equations")
def test_criterion_08_determining_fixture():
    ctx = JetContext(2, 2, dep_names=("y", "w"))
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    w = sym(ctx.y(2))
    a = call(func("A"), x)
    b = call(func("B"), x)
    c = call(func("C"), x)
    ax = call(func("A", 1, (1,)), x)
    bx = call(func("B", 1, (1,)), x)
    cx = call(func("C", 1, (1,)), x)
    args = (x, y, w)

    def d(name, dx=0, dy=0, dw=0):
        if dx == dy == dw == 0:
            return call(func(name, 3), *args)
        return call(func(name, 3, (dx, dy, dw)), *args)

    ds = determining_system_2x2(a, b, c, restricted=False)
    targets = [
        d("xi", 0, 0, 2), d("xi", 0, 1, 1), d("xi", 0, 2, 0),
        d("eta", 0, 0, 2), d("phi", 0, 2, 0),
        d("phi", 0, 0, 2) - 2 * d("xi", 1, 0, 1),
        2 * d("eta", 0, 1, 1) - 2 * d("xi", 1, 0, 1),
        d("eta", 0, 2, 0) - 2 * d("xi", 1, 1, 0),
        -2 * d("xi", 1, 1, 0) + 2 * d("phi", 0, 1, 1),
        2 * d("eta", 1, 0, 1) - 2 * b * w * d("xi", 0, 0, 1)
        - 2 * a * y * d("xi", 0, 0, 1),
        2 * a * w * d("xi", 0, 1, 0) - 2 * c * y * d("xi", 0, 1, 0)
        + 2 * d("phi", 1, 1, 0),
        (-a * d("eta") - b * d("phi") - y * d("xi") * ax - w * d("xi") * bx
         - a * w * d("eta", 0, 0, 1) + c * y * d("eta", 0, 0, 1)
         + b * w * d("eta", 0, 1, 0) + a * y * d("eta", 0, 1, 0)
         - 2 * b * w * d("xi", 1, 0, 0) - 2 * a * y * d("xi", 1, 0, 0)
         + d("eta", 2, 0, 0)),
        (3 * a * w * d("xi", 0, 0, 1) - 3 * c * y * d("xi", 0, 0, 1)
         - b * w * d("xi", 0, 1, 0) - a * y * d("xi", 0, 1, 0)
         - d("xi", 2, 0, 0) + 2 * d("phi", 1, 0, 1)),
        (a * w * d("xi", 0, 0, 1) - c * y * d("xi", 0, 0, 1)
         - 3 * b * w * d("xi", 0, 1, 0) - 3 * a * y * d("xi", 0, 1, 0)
         + 2 * d("eta", 1, 1, 0) - d("xi", 2, 0, 0)),
        (-c * d("eta") + a * d("phi") + w * d("xi") * ax - y * d("xi") * cx
         + 2 * a * w * d("xi", 1, 0, 0) - 2 * c * y * d("xi", 1, 0, 0)
         - a * w * d("phi", 0, 0, 1) + c * y * d("phi", 0, 0, 1)
         + b * w * d("phi", 0, 1, 0) + a * y * d("phi", 0, 1, 0)
         + d("phi", 2, 0, 0)),
    ]
    for target in targets:
        assert ds.contains(target)
    restricted = determining_system_2x2(a, b, c, restricted=True)
    al = call(func("alpha"), x)
    axx = call(func("alpha", 1, (2,)), x)
    assert restricted.contains(-2 * c * y * al + 2 * w * (a * al + axx))


def _spec2(a11, a12, a21, a22):
    z = zero()
    return LinearSystemSpec(2, 2, (((z, z), (z, z)),
                                   ((a11, a12), (a21, a22))))


@criterion(9, "classification agrees with the brute-force oracle")
def test_criterion_09_classification():
    from noncartan import non_cartan_existence_2x2
    z = zero()
    x = sym(X)
    verdict = classify_linear_system(_spec2(one(), z, const(2), one()))
    assert not verdict.in_canonical_class
    q = call(func("q"), x)
    for m in (2, 3):
        mat = tuple(tuple(q if i == j else z for j in range(m))
                    for i in range(m))
        zmat = tuple(tuple(z for _ in range(m)) for _ in range(m))
        spec = LinearSystemSpec(m, 2, (zmat, mat))
        verdict = classify_linear_system(spec)
        assert verdict.in_canonical_class
        assert len(verdict.witnesses) == 2 * m
        system = spec.ode_system(SourceEquation.for_q(q).rules)
        for w in verdict.witnesses:
            for r in invariance_residual(w, system):
                assert is_zero(r, system.rules)
    corpus = [
        (z, z, z), (z, z, const(-2)), (one(), z, const(2)),
        (x, z, z), (z, one(), z), (z, z, x ** 2),
        (one(), one(), one()), (x ** 2, x, one()),
        (z, x, z), (2 * x + 1, z, const(3)),
    ]
    for a, b, c in corpus:
        decided = non_cartan_existence_2x2(a, b, c).in_canonical_class
        searched = brute_force_non_cartan_search(a, b, c, degree_cap=4)
        assert decided == searched


@criterion(10, "engine properties: 1000-case randomized suites")
def test_criterion_10_engine_properties():
    rng = random.Random(0)
    for _ in range(1000):
        e1 = random_expression(rng, depth=2)
        e2 = random_expression(rng, depth=2)
        assert is_zero(differentiate(e1 + e2, X)
                       - differentiate(e1, X) - differentiate(e2, X))
        assert is_zero(differentiate(e1 * e2, X)
                       - differentiate(e1, X) * e2
                       - e1 * differentiate(e2, X))
    rng = random.Random(0)
    for _ in range(1000):
        a = random_point_field(rng)
        b = random_point_field(rng)
        lhs = commutator(a, b)
        rhs = commutator(b, a)
        assert lhs.xi == -rhs.xi
        assert lhs.phi[0] == -rhs.phi[0]
    rng = random.Random(0)
    for _ in range(1000):
        a = random_point_field(rng)
        b = random_point_field(rng)
        c = random_point_field(rng)
        total = (commutator(commutator(a, b), c)
                 + commutator(commutator(b, c), a)
                 + commutator(commutator(c, a), b))
        assert total.xi.is_rational_zero()
        assert total.phi[0].is_rational_zero()
    # the symbolic and sampling zero tests agree on a mixed corpus
    src = SourceEquation.symbolic()
    corpus = [
        (src.wronskian() - 1, src.rules),
        (src.d(src.u, 2) + src.q * src.u, src.rules),
        (src.d(src.v, 3) + src.q * src.d(src.v) + src.d(src.q) * src.v,
         src.rules),
        (src.u + src.v, src.rules),
        (src.u * src.v - src.v * src.u, ()),
        (call(func("f"), sym(X)) - call(func("g"), sym(X)), ()),
    ]
    for e, rules in corpus:
        symbolic = apply_rules(e, rules).is_rational_zero()
        rng = random.Random(0)
        numeric = True
        reduced = apply_rules(e, rules)
        source_mode = any(rule.head.name in ("u", "v") for rule in rules)
        for _ in range(20):
            env = {s: rng.uniform(0.4, 1.6)
                   for s in reduced.atoms() if not hasattr(s, "args")}
            try:
                val = evaluate(reduced, env, source_mode)
            except ZeroDivisionError:
                continue
            if abs(val) > TOL:
                numeric = False
                break
        assert symbolic == numeric


@criterion(11, "CLI classify examples: exit codes and stable JSON")
def test_criterion_11_cli():
    cases = [
        (["classify", "--system", "y1''+y1+0*y2=0; y2''+2*y1+y2=0"], 1),
        (["classify", "--system", "y1''+q(x)*y1=0; y2''+q(x)*y2=0"], 0),
        (["classify", "--system", "eq14"], 1),
    ]
    for args, expected in cases:
        jargs = args + ["--format", "json"]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(jargs)
            assert code == expected
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])
