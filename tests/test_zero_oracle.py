"""Differential test of the exact zero test against SymPy: on random
expressions whose opaque calls sit at rational and nested arguments,
`zero_status` reads symbolic-zero iff SymPy's `simplify` of the same
expression is 0.  Each expression is the difference of a random tree and
either a disguised copy of it (arguments rewritten to an equal rational
function of another form, now and then moved by one) or a second random
tree.  The exact division that the engine's normal form applies is
checked against SymPy's `div` the same way, and `differentiate` against
SymPy's `diff` on the same trees."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from noncartan import (  # noqa: E402
    Call, ZeroStatus, call, const, differentiate, format_expression, func,
    indep, param, sym, zero_status,
)

X, Y = sym(indep("x")), sym(param("y"))
SX, SY = sympy.symbols("x y")

LEAVES = st.sampled_from([("x",), ("y",), ("c", 1), ("c", 2), ("c", -1)])


def _grow(inner):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), inner, inner),
        # a unary call: head f or g at derivative order 0 or 1
        st.tuples(st.just("call"), st.sampled_from("fg"),
                  st.integers(0, 1), inner),
        st.tuples(st.just("H"), inner, inner),
    )


TREES = st.recursive(LEAVES, _grow, max_leaves=7)


def _disguise(t, draw):
    """t with most call arguments a rewritten as a*(x + k)/(x + k), and
    now and then one moved to a*(x + k)/(x + k) + 1 instead."""
    kind = t[0]
    if kind in ("x", "y", "c"):
        return t
    if kind == "call":
        return t[:3] + (_argument(_disguise(t[3], draw), draw),)
    if kind == "H":
        return ("H",) + tuple(_argument(_disguise(s, draw), draw)
                              for s in t[1:])
    return (kind,) + tuple(_disguise(s, draw) for s in t[1:])


def _argument(a, draw):
    k = draw(st.integers(0, 4))
    if k == 0:
        return a
    a = ("fraction", a, min(k, 3))
    return ("+", a, ("c", 1)) if k == 4 else a


def _build(t, x, y, number, apply):
    """The tree t over the symbols x, y, the constants made by number and
    the calls made by apply(name, derivative order, *arguments)."""
    kind = t[0]
    if kind == "x":
        return x
    if kind == "y":
        return y
    if kind == "c":
        return number(t[1])
    sub = [_build(s, x, y, number, apply) if isinstance(s, tuple) else s
           for s in t[1:]]
    if kind == "fraction":
        return sub[0] * (x + t[2]) / (x + t[2])
    if kind == "call":
        return apply(*sub)
    if kind == "H":
        return apply("H", 0, *sub)
    a, b = sub
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _engine(t):
    return _build(t, X, Y, const, lambda name, k, *args: call(
        func(name, len(args), (k,) + (0,) * (len(args) - 1)), *args))


def _sympy(t):
    # the jets of one function at finitely many points are free, so f'
    # may stand for a function of its own
    return _build(t, SX, SY, sympy.Integer, lambda name, k, *args:
                  sympy.Function("%s_%d" % (name, k))(*args))


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(tree=TREES, other=st.one_of(st.none(), TREES),
                  data=st.data())
def test_zero_status_agrees_with_sympy(tree, other, data):
    if other is None:
        other = _disguise(tree, data.draw)
    e = _engine(tree) - _engine(other)
    expected = sympy.simplify(_sympy(tree) - _sympy(other)) == 0
    assert (zero_status(e) is ZeroStatus.SYMBOLIC_ZERO) == expected


POLYS = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2),
                           st.integers(0, 2)), max_size=4)


def _poly(terms, x, y, zero_):
    out = zero_
    for c, i, j in terms:
        out = out + c * x ** i * y ** j
    return out


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(a=POLYS, b=POLYS, r=POLYS)
def test_exact_division_agrees_with_sympy_div(a, b, r):
    """(a*b + r)/b is a polynomial exactly when SymPy's `div` leaves no
    remainder, and then it is SymPy's quotient."""
    den = _poly(b, X, Y, const(0))
    hypothesis.assume(len(den.num) > 1)
    e = (_poly(a, X, Y, const(0)) * den + _poly(r, X, Y, const(0))) / den
    sden = _poly(b, SX, SY, sympy.Integer(0))
    snum = sympy.expand(_poly(a, SX, SY, sympy.Integer(0)) * sden
                        + _poly(r, SX, SY, sympy.Integer(0)))
    quotient, remainder = sympy.div(snum, sden, SX, SY)
    assert (len(e.den) == 1 and not e.den[0][0]) == (remainder == 0)
    if remainder == 0:
        got = sympy.sympify(format_expression(e), locals={"x": SX, "y": SY})
        assert sympy.expand(got - quotient) == 0


@functools.lru_cache(maxsize=None)
def _head(name, dorders):
    """The engine head (name, dorders) as a SymPy function whose
    derivative in slot i is the head with that slot's order raised by
    one, as the engine's chain rule writes it."""

    def fdiff(self, argindex=1):
        raised = list(dorders)
        raised[argindex - 1] += 1
        return _head(name, tuple(raised))(*self.args)

    return type("%s_d%s" % (name, "".join(map(str, dorders))),
                (sympy.Function,), {"fdiff": fdiff})


def _modelled(t):
    return _build(t, SX, SY, sympy.Integer, lambda name, k, *args: _head(
        name, (k,) + (0,) * (len(args) - 1))(*args))


def _to_sympy(e):
    """The engine expression e in SymPy, each call through `_head`."""

    def atom(a):
        if isinstance(a, Call):
            return _head(a.head.name, a.head.dorders)(
                *[_to_sympy(arg) for arg in a.args])
        return {"x": SX, "y": SY}[a.name]

    def poly(terms):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[atom(a) ** k for a, k in mon])
            for mon, c in terms])

    return poly(e.num) / poly(e.den)


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(tree=TREES, under=st.one_of(st.none(), TREES))
def test_differentiate_agrees_with_sympy_diff(tree, under):
    """d/dx and d/dy of a tree, or of the quotient of two trees, are
    SymPy's `diff` of the same tree with each head modelled by `_head`.
    `expand` writes every call argument in one form on both sides, so
    `cancel` decides the difference exactly."""
    e, model = _engine(tree), _modelled(tree)
    if under is not None and not _engine(under).is_rational_zero():
        e, model = e / _engine(under), model / _modelled(under)
    for s, ss in ((indep("x"), SX), (param("y"), SY)):
        got = _to_sympy(differentiate(e, s))
        expected = sympy.diff(model, ss)
        assert sympy.cancel(sympy.expand(got - expected)) == 0
