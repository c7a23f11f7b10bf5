import random

import pytest

from noncartan import (
    JetContext, JetOrderError, VectorField, call, func, one, prolong,
    scalar_context, sym, total_derivative, zero,
)

from helpers import (
    random_expression, random_point_field, reference_field_apply,
    reference_prolong_coefficients, reference_prolonged_apply,
    reference_total_derivative,
)


def test_context_names():
    assert JetContext(1, 2).dep_names == ("y",)
    assert JetContext(2, 2).dep_names == ("y", "w")
    assert JetContext(3, 2).dep_names == ("y1", "y2", "y3")
    with pytest.raises(ValueError):
        JetContext(0, 2)


def test_total_derivative():
    ctx = scalar_context(3)
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    assert total_derivative(x * y, ctx) == y + x * p
    assert total_derivative(p, ctx) == sym(ctx.jet(1, 2))


def test_total_derivative_order_cap():
    from noncartan import jet
    ctx = scalar_context(2)
    beyond = sym(jet(1, 3, "y"))
    with pytest.raises(JetOrderError):
        total_derivative(beyond, ctx)


def test_point_field_validation():
    ctx = scalar_context()
    p = sym(ctx.jet(1, 1))
    with pytest.raises(ValueError):
        VectorField(p, (zero(),), ctx)
    with pytest.raises(ValueError):
        VectorField(zero(), (zero(), zero()), ctx)


def test_prolongation_coefficients():
    # v = xi d/dx + phi d/dy with xi = x^2, phi = x*y on the second jet:
    # phi^(1) = D phi - y' D xi, phi^(2) = D phi^(1) - y'' D xi
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    p = sym(ctx.jet(1, 1))
    p2 = sym(ctx.jet(1, 2))
    v = VectorField(x ** 2, (x * y,), ctx)
    pf = prolong(v, 2)
    assert pf.coeff(1, 0) == x * y
    assert pf.coeff(1, 1) == y - x * p
    assert pf.coeff(1, 2) == -3 * x * p2


def test_prolongation_has_no_order_cap():
    """x d/dx prolongs to phi^(k) = -k y^(k), at any order."""
    ctx = scalar_context()
    x = sym(ctx.x)
    pf = prolong(VectorField(x, (zero(),), ctx), 7)
    for k in range(1, 8):
        assert pf.coeff(1, k) == -k * sym(ctx.jet(1, k))
    assert prolong(VectorField(one(), (zero(),), ctx), 6).coeff(1, 6) == zero()


def test_field_arithmetic():
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    a = VectorField(x, (y,), ctx)
    b = VectorField(y, (x,), ctx)
    s = a + b
    assert s.xi == x + y
    d = s - b
    assert d.xi == x and d.phi[0] == y
    assert a.scale(2).phi[0] == 2 * y


def test_apply_to():
    ctx = scalar_context()
    x = sym(ctx.x)
    y = sym(ctx.y(1))
    v = VectorField(x, (y,), ctx)
    assert v.apply_to(x * y) == 2 * x * y


def test_jet_sums_match_reference_loops_randomized():
    """total_derivative, both apply_to methods and prolong (through
    total_derivative) sum their pieces in one exact sum; the results equal,
    structurally, the running `out = out + piece` loops."""
    # (x^2 - 1)/(x - 1) divides out to x + 1, so with -(x + 1) it is zero
    # before 1/(x + 1) is added
    ctx = JetContext(2, 4)
    x = sym(ctx.x)
    v = VectorField((x ** 2 - 1) / (x - 1), (-(x + 1), 1 / (x + 1)), ctx)
    e = x + sym(ctx.y(1)) + sym(ctx.y(2))
    assert v.apply_to(e) == prolong(v, 2).apply_to(e) == 1 / (x + 1)
    rng = random.Random(23)

    def component(ctx, coords, p):
        poly = random_point_field(rng, ctx).xi
        kind = rng.random()
        if kind < 0.3:
            return poly
        # an opaque call with a rational argument; a non-monomial
        # denominator only at order one, since without polynomial GCDs
        # it grows with every derivative
        f = call(func(rng.choice("fg")), rng.choice(coords) / rng.choice(coords))
        if kind < 0.8 or p > 1:
            return poly + f * rng.choice(coords)
        return f / (coords[0] + 1)

    for case in range(32):
        ctx = JetContext(1 + case // 4 % 2, 4)
        coords = [sym(s) for s in ctx.point_symbols()]
        p = 1 + case % 4
        v = VectorField(component(ctx, coords, p),
                        tuple(component(ctx, coords, p)
                              for _ in range(ctx.m)), ctx)
        e = random_expression(rng, 3, coords + [component(ctx, coords, p)])
        assert v.apply_to(e) == reference_field_apply(v, e)
        pf = prolong(v, p)
        assert pf.coefficients == reference_prolong_coefficients(v, p)
        jets = [sym(ctx.jet(j, k)) for j in range(1, ctx.m + 1)
                for k in range(1, p + 1)]
        je = random_expression(rng, 2, coords + jets)
        assert pf.apply_to(je) == reference_prolonged_apply(pf, je)
        assert total_derivative(je, ctx) == reference_total_derivative(je, ctx)

    # nested calls: polynomial arguments, where total_derivative takes
    # one pass with the chain rule through every level, jets inside
    # arguments, and a rational argument inside a call, whose total
    # derivative the chain rule takes through the quotient rule
    for case in range(32):
        ctx = JetContext(1 + case % 2, 3)
        coords = [sym(s) for s in ctx.point_symbols()]
        p = 1 + case % 3
        jets = [sym(ctx.jet(j, k)) for j in range(1, ctx.m + 1)
                for k in range(1, p + 1)]
        inner = call(func("g"), rng.choice(coords) * rng.choice(coords) + 1)
        two = call(func("h", 2), inner + rng.choice(coords),
                   rng.choice(coords))
        nested = [call(func("f"), inner * rng.choice(coords)), two,
                  call(func("f"), two - rng.choice(jets))]
        if case % 4 == 3:
            nested.append(call(func("f"), call(func("g"), coords[0]
                                               / (coords[-1] + 1))))
        v = VectorField(random_expression(rng, 2, coords + nested[:2]),
                        tuple(random_expression(rng, 2, coords + nested[:2])
                              for _ in range(ctx.m)), ctx)
        pf = prolong(v, p)
        assert pf.coefficients == reference_prolong_coefficients(v, p), case
        je = random_expression(rng, 3, coords + jets + nested)
        assert total_derivative(je, ctx) == \
            reference_total_derivative(je, ctx), case


def test_rational_prolongation_does_not_multiply_denominators():
    """D_x of a rational coefficient takes the quotient rule once, over
    its own denominator; a sum of partials multiplies their unequal
    denominators together, 13 terms for phi^(2) here."""
    ctx = scalar_context(2)
    x, y = sym(ctx.x), sym(ctx.y(1))
    v = VectorField(call(func("H"), y / x), (y / (x + 1),), ctx)
    got = prolong(v, 2).coeff(1, 2)
    expected = reference_prolong_coefficients(v, 2)[(1, 2)]
    assert (got - expected).is_rational_zero()
    assert len(got.den) <= 5


def test_top_split_rebuilds_the_top_coefficient():
    """phi_j^(p) = E_j + sum_k y_k^(p) G_jk for p >= 2 with E_j and G_jk
    free of the top jets; no split at p = 1 (quadratic in y') or for a
    rational field."""
    rng = random.Random(47)
    for case in range(24):
        ctx = JetContext(1 + case % 3, 4)
        p = 1 + case // 3 % 4
        v = random_point_field(rng, ctx)
        if case % 2:
            # an opaque component, still a polynomial
            args = [sym(s) for s in ctx.point_symbols()]
            v = v + VectorField(call(func("f", ctx.m + 1), *args),
                                (zero(),) * ctx.m, ctx)
        pf = prolong(v, p)
        if p == 1:
            assert pf.top_split is None
            continue
        assert len(pf.top_split) == ctx.m
        tops = [ctx.jet(k, p) for k in range(1, ctx.m + 1)]
        for j, (e_j, g_j) in enumerate(pf.top_split, start=1):
            assert len(g_j) == ctx.m
            assert not any(c.contains(t) for c in (e_j,) + g_j for t in tops)
            rebuilt = e_j
            for t, g in zip(tops, g_j):
                rebuilt = rebuilt + sym(t) * g
            assert rebuilt == pf.coeff(j, p), case
    x = sym(scalar_context().x)
    rational = VectorField(1 / (x + 1), (zero(),), scalar_context(4))
    assert prolong(rational, 2).top_split is None
