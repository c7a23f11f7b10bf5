"""Minimal exact computer-algebra core.

An expression is a pair of multivariate polynomials (numerator,
denominator) with exact rational coefficients over a vocabulary of atoms,
with sorted terms and a denominator whose leading coefficient is one.
The form is not canonical: common monomial factors cancel and a
denominator dividing its numerator leaves a polynomial, but no GCD is
taken, so `==` is structural equality, and two expressions with the same
value may compare unequal.  Equality of values is
`(a - b).is_rational_zero()`.  Atoms are either plain symbols
(independent variable, dependent variables, jet derivatives, parameters)
or applications of opaque function symbols whose arguments are again
expressions.  Atoms are interned, one object per distinct atom, so their
`==` is still structural, and it and their hash run as object identity.
A coefficient is an `int` while its value is integral and a
`Fraction` otherwise; since `Fraction(n) == n`, `hash(Fraction(n)) ==
hash(n)` and `str(Fraction(n)) == str(n)`, the choice shows in neither
equality, hashing nor printing, and ints are far cheaper to compute
with.  Exponents are positive integers; negative powers live in the
denominator.  The zero test is exact and evaluates no float: after the
rewrite rules and the merging of equal argument tuples, every opaque call
is a free coordinate (see `zero_status`).  One derivation routine,
`_derive`, takes both the partial derivative and the total derivative.
"""

from __future__ import annotations

import enum
import heapq
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
# no typing subscript at import: typing's cache would pin this module
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Symbol", "Call", "Expression", "RewriteRule", "ZeroStatus",
    "indep", "dep", "jet", "param", "func", "call", "default_dep_names",
    "const", "atom_expr", "sym", "zero", "one",
    "monomial_expression", "format_monomial",
    "differentiate", "substitute", "replace_atoms",
    "apply_rules", "collect", "is_zero", "zero_status",
    "parse", "format_expression", "ParseContext", "ParseError",
    "CollectError", "CyclicBindingError", "OpaqueArgumentError",
    "UndecidedZeroError",
]

INDEP = "indep"
DEP = "dep"
JET = "jet"
PARAM = "param"
OPAQUE = "opaque"

_KIND_RANK = {INDEP: 0, DEP: 1, JET: 2, PARAM: 3, OPAQUE: 4}

# every live atom, keyed by its fields: a Symbol's six, a Call's two
_ATOMS = weakref.WeakValueDictionary()


class CollectError(ValueError):
    """Non-polynomial dependence on a collection variable."""


class CyclicBindingError(ValueError):
    """Substitution bindings form a cycle."""


class OpaqueArgumentError(ValueError):
    """A variable occurs inside an opaque-function argument where a
    polynomial operation was requested."""


class UndecidedZeroError(ValueError):
    """The zero test cannot decide: a rule-constrained function is called
    at an argument other than its rule's variable."""


# ---------------------------------------------------------------------------
# Symbols and atoms


@dataclass(frozen=True, eq=False, init=False)
class Symbol:
    """A named atomic symbol.

    Symbols are interned: constructing one with the fields of a live
    symbol returns that symbol (a jet of order zero becomes a dependent
    variable first).  So `==` is still structural on the fields, but it
    and the hash are those of object identity.  The sort key is computed
    once, on the first construction, and stored, and its printed text on
    the first print.  Only an opaque symbol has an arity, and only a
    non-opaque one an index or an order, so the key determines the
    symbol: unequal atoms have unequal keys."""

    name: str
    kind: str
    index: int = 0
    order: int = 0
    arity: int = 0
    dorders: tuple = ()

    def __new__(cls, name, kind, index=0, order=0, arity=0, dorders=()):
        if kind == JET and order == 0:
            kind = DEP
        fields = (name, kind, index, order, arity, dorders)
        self = _ATOMS.get(fields)
        if self is not None:
            return self
        if kind == JET and order < 0:
            raise ValueError("jet derivative order must be >= 0")
        if kind == OPAQUE:
            if arity < 1:
                raise ValueError("opaque function arity must be >= 1")
            if len(dorders) != arity or any(d < 0 for d in dorders):
                raise ValueError("bad derivative orders %r" % (dorders,))
            if index or order:
                raise ValueError("an opaque function has no index or order")
        elif arity:
            raise ValueError("only an opaque function has an arity")
        self = object.__new__(cls)
        self.__dict__.update(
            name=name, kind=kind, index=index, order=order, arity=arity,
            dorders=dorders, _text=None,
            _key=(_KIND_RANK[kind], index, order, name, dorders, ()))
        _ATOMS[fields] = self
        return self

    def __reduce__(self):
        # rebuild through the constructor, which returns the live atom
        return (Symbol, (self.name, self.kind, self.index, self.order,
                         self.arity, self.dorders))

    def sort_key(self):
        return self._key

    def d(self, slot: int = 0) -> "Symbol":
        """The function symbol with the derivative order of one argument
        slot raised by one."""
        if self.kind != OPAQUE:
            raise ValueError("d() applies to opaque function symbols")
        ds = list(self.dorders)
        ds[slot] += 1
        return Symbol(self.name, OPAQUE, arity=self.arity, dorders=tuple(ds))

    def base(self) -> "Symbol":
        if self.kind != OPAQUE:
            raise ValueError("base() applies to opaque function symbols")
        return Symbol(self.name, OPAQUE, arity=self.arity,
                      dorders=(0,) * self.arity)


def indep(name: str = "x") -> Symbol:
    return Symbol(name, INDEP)


def dep(index: int, name: str = None) -> Symbol:
    return Symbol(name or "y%d" % index, DEP, index=index)


def jet(index: int, order: int, name: str = None) -> Symbol:
    return Symbol(name or "y%d" % index, JET, index=index, order=order)


def default_dep_names(m: int) -> tuple:
    """Names of m dependent variables: `y` for m == 1, `y` and `w` for
    m == 2, y1..ym otherwise."""
    if m == 1:
        return ("y",)
    if m == 2:
        return ("y", "w")
    return tuple("y%d" % i for i in range(1, m + 1))


def param(name: str) -> Symbol:
    return Symbol(name, PARAM)


def func(name: str, arity: int = 1, dorders: tuple = None) -> Symbol:
    return Symbol(name, OPAQUE, arity=arity,
                  dorders=tuple(dorders) if dorders else (0,) * arity)


def _fresh_params(count: int, exprs) -> list:
    """count parameters _t0, _t1, .. whose names no atom of exprs carries,
    nested atoms included.  The parser makes no name that begins with an
    underscore, so only a caller's own symbols can take them."""
    taken = {(a.head if isinstance(a, Call) else a).name
             for e in exprs for a in e.atoms()}
    prefix = "_t"
    while any("%s%d" % (prefix, k) in taken for k in range(count)):
        prefix += "_"
    return [param("%s%d" % (prefix, k)) for k in range(count)]


@dataclass(frozen=True, eq=False, init=False)
class Call:
    """An opaque function symbol applied to expression arguments.

    Like `Symbol`, calls are interned on (head, args), so `==` is
    structural and runs as identity, the sort key is computed once, on
    the first construction, and stored, and so is the printed text on the
    first print.  A call also keeps its partial derivatives, keyed by the
    symbol, as `differentiate` computes them (`_partials`): they are pure
    in the call and the symbol, and live and die with the call."""

    head: Symbol
    args: tuple

    def __new__(cls, head, args):
        fields = (head, args)
        self = _ATOMS.get(fields)
        if self is not None:
            return self
        if head.kind != OPAQUE:
            raise ValueError("Call head must be an opaque function symbol")
        if len(args) != head.arity:
            raise ValueError("arity mismatch for %s: expected %d args, got %d"
                             % (head.name, head.arity, len(args)))
        self = object.__new__(cls)
        self.__dict__.update(
            head=head, args=args, _text=None, _partials={},
            _key=(4, 0, 0, head.name, head.dorders,
                  tuple(a.sort_key() for a in args)))
        _ATOMS[fields] = self
        return self

    def __reduce__(self):
        return (Call, (self.head, self.args))

    def sort_key(self):
        return self._key


# A monomial is a tuple of (atom, positive-exponent) pairs sorted by the
# atom sort key; terms are a tuple of (monomial, coefficient) pairs
# sorted by monomial key, each coefficient an int or a Fraction.

_ONE_MON = ()


def _mon_key(mon):
    return tuple([(a._key, e) for a, e in mon])


def _terms_key(terms):
    return tuple([(_mon_key(m), c) for m, c in terms])


def _mk_mon(powers: dict) -> tuple:
    items = [(a, e) for a, e in powers.items() if e != 0]
    items.sort(key=lambda ae: ae[0]._key)
    return tuple(items)


def _mon_mul(m1, m2):
    """The product of two monomials, by merging the sorted tuples.  An
    atom's key determines it (see `Symbol`), so atoms that are not the
    same object are ordered by their keys."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1 = len(m1)
    n2 = len(m2)
    while i < n1 and j < n2:
        a, e = m1[i]
        b, f = m2[j]
        if a is b:
            out.append((a, e + f))
            i += 1
            j += 1
        elif a._key < b._key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    if i < n1:
        out.extend(m1[i:])
    elif j < n2:
        out.extend(m2[j:])
    return tuple(out)


def _terms_from_dict(d: dict) -> tuple:
    items = [(m, c) for m, c in d.items() if c != 0]
    # sort computes every key before it looks at the length
    if len(items) > 1:
        items.sort(key=lambda mc: _mon_key(mc[0]))
    return tuple(items)


def _tadd(a: dict, b: Iterable) -> dict:
    """Add the terms b into the term dict a, dropping terms that cancel."""
    for m, c in b:
        old = a.get(m)
        if old is not None:
            c += old
            if not c:
                del a[m]
                continue
        a[m] = c
    return a


def _tmul(a, b) -> dict:
    return _tadd({}, ((_mon_mul(m1, m2), c1 * c2)
                      for m1, c1 in a for m2, c2 in b))


_ONE_TERMS = ((_ONE_MON, 1),)


def _quo(a, b):
    """The exact quotient a / b of two coefficients: an int when it is
    integral, else a Fraction (`/` on two ints would give a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expression:
    """An immutable numerator/denominator pair of sorted term tuples.
    Common monomial factors cancel and a denominator that divides its
    numerator leaves a polynomial (`_make`), so `==` is structural;
    compare values with `(a - b).is_rational_zero()`.  The form of a
    rebuild's sum is stated at `_over`."""

    num: tuple
    den: tuple

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(num, den) -> "Expression":
        if isinstance(num, dict):
            num = _terms_from_dict(num)
        if isinstance(den, dict):
            den = _terms_from_dict(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return Expression((), _ONE_TERMS)
        num, den = _cancel_monomial_gcd(num, den)
        # make the denominator's leading coefficient one
        lead = den[0][1]
        if lead != 1:
            num = tuple((m, _quo(c, lead)) for m, c in num)
            den = tuple((m, _quo(c, lead)) for m, c in den)
        # a denominator that divides the numerator leaves a polynomial
        q = len(den) > 1 and _divide(num, den)
        if q:
            return Expression(_terms_from_dict(q), _ONE_TERMS)
        return Expression(num, den)

    # -- predicates ---------------------------------------------------

    def is_rational_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return self.den == _ONE_TERMS and (
            not self.num or (len(self.num) == 1 and self.num[0][0] == _ONE_MON))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % format_expression(self))
        return Fraction(self.num[0][1]) if self.num else Fraction(0)

    # -- traversal ----------------------------------------------------

    def atoms(self) -> Iterator[Symbol | Call]:
        """All atoms, including those nested in opaque-call arguments."""
        seen = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for terms in (e.num, e.den):
                for mon, _ in terms:
                    for a, _exp in mon:
                        if a in seen:
                            continue
                        seen.add(a)
                        yield a
                        if isinstance(a, Call):
                            stack.extend(a.args)

    def contains(self, s: Symbol) -> bool:
        # a call matches s when its head is s or has s as its base()
        s_is_base = s.kind == OPAQUE and not any(s.dorders)
        for a in self.atoms():
            if isinstance(a, Call):
                h = a.head
                if h == s or (s_is_base and h.name == s.name
                              and h.arity == s.arity):
                    return True
            elif a == s:
                return True
        return False

    def max_jet_order(self) -> int:
        best = -1
        for a in self.atoms():
            if isinstance(a, Symbol) and a.kind in (DEP, JET):
                best = max(best, a.order)
        return best

    def sort_key(self):
        return _terms_key(self.num), _terms_key(self.den)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Expression":
        if isinstance(v, Expression):
            return v
        if isinstance(v, (int, Fraction)):
            return const(v)
        return NotImplemented

    def __add__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Expression._make(_tadd(dict(self.num), other.num), self.den)
        num = _tadd(_tmul(self.num, other.den),
                   _tmul(other.num, self.den).items())
        return Expression._make(num, _tmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expression._make(tuple((m, -c) for m, c in self.num), self.den)

    def __sub__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Expression._make(_tmul(self.num, other.num),
                                _tmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational_zero():
            raise ZeroDivisionError("division by symbolic zero")
        return Expression._make(_tmul(self.num, other.den),
                                _tmul(self.den, other.num))

    def __rtruediv__(self, other):
        return Expression._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            if self.is_rational_zero():
                raise ZeroDivisionError("zero to a negative power")
            return Expression._make(self.den, self.num) ** (-k)
        result = one()
        base = self
        while k:
            if k & 1:
                result = base if result is _ONE else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __str__(self):
        return format_expression(self)

    def __repr__(self):
        return "Expression(%s)" % format_expression(self)


def _cancel_monomial_gcd(num, den):
    """Divide out the largest monomial common to every term of both
    numerator and denominator."""
    if not den[0][0]:
        # the empty monomial sorts first; a denominator with a constant
        # term shares no monomial with anything, so nothing is scanned
        return num, den
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
        num = tuple((_mon_sub(m, g), c) for m, c in num)
        den = tuple((_mon_sub(m, g), c) for m, c in den)
        num = _terms_from_dict(dict(num))
        den = _terms_from_dict(dict(den))
    return num, den


def _mon_sub(mon, g):
    """The monomial mon / g, or None when g does not divide mon."""
    powers = dict(mon)
    for a, e in g:
        k = powers.get(a, 0) - e
        if k < 0:
            return None
        powers[a] = k
    return _mk_mon(powers)


_LAST = ((len(_KIND_RANK),),)   # sorts after every (atom key, exponent)
_P = (1 << 61) - 1   # a prime


def _lex(mon):
    """Sorts monomials from the largest down, in lex order by atom key."""
    return tuple([(a._key, -e) for a, e in mon]) + (_LAST,)


def _may_divide(num, den):
    """False when den cannot divide num: with every atom but one of den's
    set to its hash mod _P, a product num = q * den maps to univariate
    polynomials n = q' * d, as q is free of 1/_P: a coefficient of den is
    one.  The map is a ring homomorphism at any point, so the test is
    sound whatever the hashes are.  It stays as the guard against hangs:
    long division by a den that does not divide num can run for a time
    that grows with num's degree, as it would on (x^100000+1)/(x-y-1)."""
    kept = den[-1][0][0][0]

    def image(terms):
        out = {}
        for mon, c in terms:
            c = c.numerator * pow(c.denominator, -1, _P)
            k = 0
            for a, e in mon:
                if a is kept:
                    k += e
                else:
                    h = hash(a)
                    c = c * (h if e == 1 else pow(h, e, _P)) % _P
            out[k] = (out.get(k, 0) + c) % _P
        return [out.get(k, 0) for k in range(max(out) + 1)]

    try:
        n, d = image(num), image(den)
        inv = pow(d[-1], -1, _P)
    except ValueError:   # _P divides a coefficient's denominator or d's top
        return True
    top = len(d) - 1
    for i in range(len(n) - 1, top - 1, -1):
        f = n[i] * inv % _P
        for j, dc in enumerate(d):
            n[i - top + j] -= f * dc
    return not any(c % _P for c in n[:top])


def _divide(num, den):
    """The quotient num / den as a term dict when den divides num
    exactly, else None, by long division in the order of `_lex`.  A
    product of den and a polynomial has two terms or more."""
    if len(num) < 2 or not _may_divide(num, den):
        return None
    lead, lc = min(den, key=lambda t: _lex(t[0]))
    rest = [(m, c) for m, c in den if m != lead]
    r = dict(num)
    heap = [(_lex(m), m) for m in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = r.pop(m, None)
        if c is None:   # cancelled, or queued twice
            continue
        t = _mon_sub(m, lead)
        if t is None:
            return None
        c = q[t] = _quo(c, lc)
        for dm, dc in rest:
            pm = _mon_mul(t, dm)
            if pm not in r:   # new to the remainder: queue it
                heapq.heappush(heap, (_lex(pm), pm))
            v = r.pop(pm, 0) - c * dc
            if v:
                r[pm] = v
    return None if r else q


_ZERO = Expression((), _ONE_TERMS)
_ONE = Expression(_ONE_TERMS, _ONE_TERMS)


def zero() -> Expression:
    return _ZERO


def one() -> Expression:
    return _ONE


def const(v) -> Expression:
    if type(v) is int:
        c = v
    else:
        c = Fraction(v)
        if c.denominator == 1:
            c = c.numerator
    if c == 0:
        return _ZERO
    return Expression(((_ONE_MON, c),), _ONE_TERMS)


def atom_expr(a: Symbol | Call) -> Expression:
    return Expression(((((a, 1),), 1),), _ONE_TERMS)


def sym(s: Symbol) -> Expression:
    """Expression wrapping a single symbol atom."""
    return atom_expr(s)


def call(head: Symbol, *args) -> Expression:
    args = tuple(Expression._coerce(a) for a in args)
    return atom_expr(Call(head, args))


# ---------------------------------------------------------------------------
# Rebuilding


def _over(groups: dict) -> Expression:
    """The sum of N/D over the term dicts N keyed by their denominators
    D, the one accumulator of every rebuild.  The groups over one
    monomial are summed over their lcm and normalized once; then each
    group over a longer denominator is made once and added with `+`,
    shortest first, ties broken by the denominator's sort key.  So the
    sum does not depend on the order in which its pieces were grouped.

    Over monomial denominators only (a polynomial's is the empty one) it
    is structurally equal to folding the pieces with `+` from zero: both
    are N/m with m one monomial sharing no monomial factor with N, a form
    unique to the value (from N1 m2 = N2 m1, an atom dividing m1 does not
    divide N1, so it divides m2 at least as often, hence not N2, and the
    powers agree).  Otherwise it equals the fold in value.  It takes in
    each distinct denominator once, where the fold multiplies in that of
    every piece unequal to its running one, and `_make` leaves a
    polynomial wherever a denominator divides its numerator; so its
    denominator is no longer than the fold's, except in two known cases:
    the fold's running sum cancels a factor two distinct denominators
    share (the first two of (2+x)/((1+x)(2+x)) - (3+x)/((1+x)(3+x)) +
    p/((1+x)(2+x)) do), which takes a polynomial GCD to see here; or a
    further factor shortens the fold's product, as (1-x)^2 does
    (1 + x + ... + x^5)^2."""
    if len(groups) == 1 and _ONE_TERMS in groups:
        return Expression._make(groups[_ONE_TERMS], _ONE_TERMS)
    mono = {den[0][0]: terms for den, terms in groups.items() if len(den) == 1}
    powers = {}
    for m in mono:
        powers.update((a, max(e, powers.get(a, 0))) for a, e in m)
    lcm = _mk_mon(powers)
    acc = {}
    for m, terms in mono.items():
        q = _mon_sub(lcm, m)
        _tadd(acc, ((_mon_mul(t, q), c) for t, c in terms.items()))
    total = Expression._make(acc, ((lcm, 1),))
    for den in sorted((d for d in groups if len(d) > 1),
                      key=lambda d: (len(d), _terms_key(d))):
        total = total + Expression._make(groups[den], den)
    return total


def _dot(pairs: Iterable[tuple]) -> Expression:
    """The sum of the products f * g: `_over` of the products as unsorted
    term dicts keyed by their denominators.  The product of two
    polynomials is their term products, with nothing to cancel, rescale
    or divide, so those go straight into the polynomial group; any other
    product goes through `*`, and its numerator into its denominator's
    group."""
    acc = {}
    groups = {_ONE_TERMS: acc}
    for f, g in pairs:
        if f.den == _ONE_TERMS and g.den == _ONE_TERMS:
            _tadd(acc, ((_mon_mul(m1, m2), c1 * c2)
                        for m1, c1 in f.num for m2, c2 in g.num))
        else:
            fg = f * g
            _tadd(groups.setdefault(fg.den, {}), fg.num)
    return _over(groups)


def _lead_product(c, mon, image):
    """The term dict of const(c) times image(a) ** k over the factors
    (a, k) of the monomial whose images are polynomials, and the tuple of
    the other factors, those whose images are rational, in the
    monomial's order.  One-term factors go straight into one monomial and
    coefficient, then the dict is multiplied by each multi-term factor, k
    times for the power k."""
    coeff = c
    powers = {}
    polys = []
    rest = []
    for a, k in mon:
        f = image(a)
        if f.den != _ONE_TERMS:
            rest.append((a, k))
        elif len(f.num) == 1:
            (m, fc), = f.num
            coeff *= fc ** k
            for b, e in m:
                powers[b] = powers.get(b, 0) + e * k
        else:
            polys.extend([f.num] * k)
    acc = {_mk_mon(powers): coeff}
    for p in polys:
        acc = _tmul(acc.items(), p)
    return acc, tuple(rest)


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expression, s: Symbol) -> Expression:
    """Partial derivative treating distinct jet symbols as independent
    coordinates: `_derive` with s sent to one and every other symbol to
    zero.  Each call's partial by s is taken once per process and kept
    on the call (see `Call`), so a later derivation by s, of any
    expression, reads it back."""
    if s.kind == OPAQUE:
        raise ValueError("cannot differentiate with respect to a function symbol")
    if not e.contains(s):
        return _ZERO
    return _derive(e, lambda a: _ONE if a == s else _ZERO, {}, s)


def _derive(e: Expression, dsym, memo: dict, partial: Symbol = None) -> Expression:
    """The derivation D of e with D a = dsym(a) on each symbol a, the one
    routine behind `differentiate` and `jet.total_derivative`.  A call
    takes the chain rule, D f(u) = sum_i f_i(u) * D u_i, with f_i the
    head's derivative in slot i; a polynomial goes through `_diff_poly`,
    and N/M through the quotient rule once, (D N * M - N * D M)/M^2.
    Atom images are kept in memo, which callers may share between
    expressions derived by one dsym.  When D is the partial derivative by
    the symbol `partial`, a call's image is also kept on the call, in
    `Call._partials`, and read from there."""

    def image(a):
        da = memo.get(a)
        if da is None:
            if isinstance(a, Symbol):
                da = dsym(a)
            elif partial is None or (da := a._partials.get(partial)) is None:
                da = _dot((atom_expr(Call(a.head.d(slot), a.args)), darg)
                          for slot, arg in enumerate(a.args)
                          if not (darg := derive(arg)).is_rational_zero())
                if partial is not None:
                    a._partials[partial] = da
            memo[a] = da
        return da

    def derive(x):
        dn = _diff_poly(x.num, image)
        if x.den == _ONE_TERMS:
            return dn
        n = Expression(x.num, _ONE_TERMS)
        d = Expression(x.den, _ONE_TERMS)
        return (dn * d - n * _diff_poly(x.den, image)) / (d * d)

    return derive(e)


def _diff_poly(terms, image) -> Expression:
    """The derivative of a polynomial's terms under the derivation that
    sends each atom a to image(a), equal in value to `_over` of the
    pieces c * k * (mon lowered by a) * image(a).  Lowering one exponent
    of a sorted monomial keeps it sorted, so it is a slice; each piece's
    numerator, the lowered term times that of image(a), goes straight
    into the group of image(a)'s denominator."""
    acc = {}
    groups = {_ONE_TERMS: acc}
    for mon, c in terms:
        for i, (a, k) in enumerate(mon):
            da = image(a)
            if da.is_rational_zero():
                continue
            lowered = (mon[:i] + ((a, k - 1),) + mon[i + 1:] if k > 1
                       else mon[:i] + mon[i + 1:])
            ck = c * k
            if da is _ONE:
                _tadd(acc, ((lowered, ck),))
            else:
                _tadd(groups.setdefault(da.den, {}),
                      ((_mon_mul(lowered, m), ck * cd) for m, cd in da.num))
    return _over(groups)


# ---------------------------------------------------------------------------
# Substitution


def substitute(e: Expression, bindings: Mapping[Symbol, Expression]) -> Expression:
    """Simultaneous substitution of symbols by expressions, then
    renormalization.  Bindings must be acyclic."""
    if not bindings:
        return e
    bindings = {s: Expression._coerce(v) for s, v in bindings.items()}
    _check_acyclic(bindings)
    return _replace(e, bindings)


def _check_acyclic(bindings):
    graph = {}
    for s, v in bindings.items():
        graph[s] = [t for t in bindings if t != s and v.contains(t)]
        if v.contains(s):
            raise CyclicBindingError("binding for %s refers to itself" % s.name)
    state = {}

    def visit(node):
        state[node] = 1
        for nxt in graph[node]:
            if state.get(nxt) == 1:
                raise CyclicBindingError("cyclic binding through %s" % nxt.name)
            if nxt not in state:
                visit(nxt)
        state[node] = 2

    for node in graph:
        if node not in state:
            visit(node)


def replace_atoms(e: Expression,
                  mapping: Mapping[Symbol | Call, Expression]) -> Expression:
    """Replace whole atoms (including opaque calls) by expressions."""
    return _replace(e, mapping)


def _replace(e: Expression, mapping) -> Expression:
    """Map every atom through `mapping` and rebuild e from the images:
    `_over` of its terms' products of images.  Each term splits into the
    product of its polynomial images, a term dict, and the tuple of its
    atoms with rational images (`_lead_product`).  The term dicts of the
    terms with one tuple are summed, and each tuple's sum is multiplied
    through its rational images with `*` once, its numerator going into
    the group of its denominator; the empty tuple's sum is the polynomial
    group itself.  The sum of the groups equals the sum of the terms'
    products in value, and is structurally equal to it when every
    denominator is one monomial (see `_over`).  An atom the mapping
    lacks stands for itself, but an opaque call with a mapped atom in its
    arguments, nested ones included, has them rebuilt the same way.  Each
    atom's image is computed once per call."""
    images = dict(mapping)

    def image(a):
        f = images.get(a)
        if f is None:
            if isinstance(a, Call) and any(b in mapping for g in a.args
                                           for b in g.atoms()):
                f = atom_expr(Call(a.head, tuple(rebuild(arg)
                                                 for arg in a.args)))
            else:
                f = atom_expr(a)
            images[a] = f
        return f

    def poly(terms):
        leads = {}
        for mon, c in terms:
            t, rest = _lead_product(c, mon, image)
            _tadd(leads.setdefault(rest, {}), t.items())
        acc = leads.pop((), {})
        groups = {_ONE_TERMS: acc}
        for rest, lead in leads.items():
            out = Expression._make(lead, _ONE_TERMS)
            for a, k in rest:
                out = out * image(a) ** k
            _tadd(groups.setdefault(out.den, {}), out.num)
        return _over(groups)

    def rebuild(x):
        n = poly(x.num)
        return n if x.den == _ONE_TERMS else n / poly(x.den)

    return rebuild(e)


# ---------------------------------------------------------------------------
# Rewrite rules


@dataclass(frozen=True)
class RewriteRule:
    """Replace every occurrence of a unary opaque head (at its stated or
    any higher derivative order, lifting by differentiation) by an
    expression.  Termination is guaranteed at construction: the
    replacement must not contain the pattern head.

    The rule keeps the lifted replacements it has computed: `lifted(i)`
    is the i-th derivative of the replacement, taken once per rule and
    order by the same chain of `differentiate` calls that would take it
    afresh, so it is the same expression.  It also keeps the names of
    the heads called in the replacement's denominator, nested calls
    included (`_den_heads`, read by `zero_status`)."""

    head: Symbol
    replacement: Expression
    var: Symbol

    def __post_init__(self):
        if self.head.kind != OPAQUE or self.head.arity != 1:
            raise ValueError("rewrite heads must be unary opaque symbols")
        d = self.head.dorders[0]
        for a in self.replacement.atoms():
            if isinstance(a, Call) and a.head.name == self.head.name \
                    and a.head.arity == 1 and a.head.dorders[0] >= d:
                raise ValueError(
                    "replacement for %s contains the pattern head" % self.head.name)
        object.__setattr__(self, "_lifts", [self.replacement])
        object.__setattr__(self, "_den_heads", frozenset(
            a.head.name for a in Expression(self.replacement.den,
                                            _ONE_TERMS).atoms()
            if isinstance(a, Call)))

    def lifted(self, i: int) -> Expression:
        """The replacement differentiated i times by the rule's variable:
        the replacement of the rule head's i-th derivative."""
        lifts = self._lifts
        while len(lifts) <= i:
            lifts.append(differentiate(lifts[-1], self.var))
        return lifts[i]


_MAX_REWRITE_PASSES = 64


def apply_rules(e: Expression, rules: Sequence[RewriteRule]) -> Expression:
    """Apply rules to a fixed point.  Higher derivative orders of a rule
    head are reduced by differentiating the replacement (see
    `RewriteRule.lifted`)."""
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
                    mapping[a] = rule.lifted(k - d)
                    break
        if not mapping:
            return e
        e = replace_atoms(e, mapping)
    raise RuntimeError("rewrite did not reach a fixed point")


# ---------------------------------------------------------------------------
# Coefficient collection


def collect(e: Expression, variables: Sequence[Symbol]) -> dict:
    """Write e as a polynomial in the given symbols; return a map from
    monomial (tuple of (symbol, exponent) pairs) to coefficient."""
    vset = set(variables)
    for a in e.atoms():
        if isinstance(a, Call):
            for arg in a.args:
                for s in variables:
                    if arg.contains(s):
                        raise CollectError("%s occurs inside an opaque "
                                           "argument" % _format_atom(s))
    for mon, _ in e.den:
        for a, _k in mon:
            if isinstance(a, Symbol) and a in vset:
                raise CollectError(
                    "non-polynomial dependence on %s" % _format_atom(a))
    den = Expression(e.den, _ONE_TERMS)
    groups = {}
    for mon, c in e.num:
        # the parts of a sorted monomial are sorted monomials
        var_part = tuple(p for p in mon if p[0] in vset)
        rest = tuple(p for p in mon if p[0] not in vset)
        groups.setdefault(var_part, {})[rest] = c
    out = {}
    for key in sorted(groups, key=_mon_key):
        coeff = Expression._make(groups[key], _ONE_TERMS) / den
        if not coeff.is_rational_zero():
            out[key] = coeff
    return out


def _linear_terms(e: Expression, symbols: Sequence[Symbol]):
    """Split e as sum(c_s * s for s in symbols) + rest, where neither the
    c_s nor rest contain a symbol: return ({s: c_s} over the symbols that
    occur, rest), or None when e is not linear in the symbols.  Raises
    CollectError as `collect` does."""
    coeffs = {}
    rest = _ZERO
    for mon, c in collect(e, symbols).items():
        if not mon:
            rest = c
        elif len(mon) == 1 and mon[0][1] == 1:
            coeffs[mon[0][0]] = c
        else:
            return None
    return coeffs, rest


def monomial_expression(mon) -> Expression:
    """The sorted monomial mon as an expression."""
    return Expression(((mon, 1),), _ONE_TERMS)


def format_monomial(mon) -> str:
    if not mon:
        return "1"
    return format_expression(monomial_expression(mon))


# ---------------------------------------------------------------------------
# Zero testing


class ZeroStatus(enum.Enum):
    SYMBOLIC_ZERO = "symbolic-zero"
    NONZERO = "nonzero"


def zero_status(e: Expression, rules: Sequence[RewriteRule] = ()) -> ZeroStatus:
    """SYMBOLIC_ZERO when e vanishes for every choice of its opaque
    functions that obeys the rules, else NONZERO; exact, since after the
    rules and `_merge_points` every call is a free coordinate.

    First the rules whose replacement's denominator calls no rule head,
    nested calls included, run alone: u'' -> -q u and v'' -> -q v with
    their lifts, for a polynomial q and for a rational one such as
    x/(x+1), but not the Wronskian rule v' -> (1 + u'v)/u.  When they
    leave a rational zero, so does the one-stage test, all the rules on
    e, which then raises nothing.  Proof: a lift's denominator divides a
    power of its rule's, so the denominators the first stage brings in
    call no rule head; no rule rewrites them, and they stay nonzero.
    Rewriting with all the rules is a substitution that gives a call the
    first stage rewrote and that call's image one value (the rules agree
    with one another, as a source equation's do), so it gives e the
    value of the first stage's result, zero.  Otherwise all the rules run
    on e, so the status, or the UndecidedZeroError, is the one-stage
    test's."""
    heads = {rule.head.name for rule in rules}
    first = [rule for rule in rules if heads.isdisjoint(rule._den_heads)]
    r = apply_rules(e, first)
    if not r.is_rational_zero() and len(first) < len(rules):
        r = apply_rules(e, rules)
    if r.is_rational_zero() or _merge_points(r, rules).is_rational_zero():
        return ZeroStatus.SYMBOLIC_ZERO
    return ZeroStatus.NONZERO


def is_zero(e: Expression, rules: Sequence[RewriteRule] = ()) -> bool:
    return zero_status(e, rules) is ZeroStatus.SYMBOLIC_ZERO


def _merge_points(e: Expression, rules: Sequence[RewriteRule]) -> Expression:
    """e with the argument tuples of each base head that are equal as
    rational functions rewritten to one of them, so that every call left
    is a free coordinate.  Raises UndecidedZeroError for a rule head at an
    argument other than its rule's variable.

    Proof.  The jets of an arbitrary smooth function at finitely many
    distinct points are free (Hermite interpolation); the jets a rule
    leaves at its variable are free initial data of its equation.  Calls
    merge innermost first, so by induction on nesting depth every call
    inside a call's arguments is already merged when it is reached; its
    arguments are then rational functions of merged atoms, and two tuples
    are one point iff `is_rational_zero` holds for their differences.
    Afterwards any two tuples of one head differ in some entry by a
    nonzero rational function of the atoms.  Treat the atoms as unknowns
    and pick values where e's numerator, every denominator (the rules'
    too) and these differences are nonzero: the points are distinct, an
    interpolant per head takes the picked jets there, and by the same
    induction each call takes its picked value, so e is nonzero.
    Polynomial tuples, bare symbols among them, are equal only when equal
    in structure, so they need no pairwise test."""
    homes = {rule.head.name: (sym(rule.var),) for rule in rules}
    calls = [a for a in e.atoms() if isinstance(a, Call)]
    for a in calls:
        if a.head.arity == 1 and homes.get(a.head.name, a.args) != a.args:
            raise UndecidedZeroError(
                "%s is constrained by a rewrite rule but called at %s"
                % (a.head.name, format_expression(a.args[0])))
    if all(g.den == _ONE_TERMS for a in calls for g in a.args):
        return e
    points = {}     # base head -> its distinct argument tuples
    images = {}

    def merge(a):
        if a not in images:
            for g in a.args:
                for b in g.atoms():
                    if isinstance(b, Call):
                        merge(b)
            args = tuple(replace_atoms(g, images) for g in a.args)
            seen = points.setdefault(a.head.base(), [])
            same = next((p for p in seen if _same_point(p, args)), None)
            if same is None:
                seen.append(args)
            images[a] = atom_expr(Call(a.head, same or args))

    for a in calls:
        merge(a)
    return replace_atoms(e, images)


def _same_point(p: tuple, q: tuple) -> bool:
    if all(g.den == _ONE_TERMS for g in p + q):
        return p == q
    return all((g - h).is_rational_zero() for g, h in zip(p, q))


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def y_index(name: str):
    """k for a name y<k>, k in ASCII digits, else None."""
    k = name[1:]
    return int(k) if name[:1] == "y" and k.isascii() and k.isdigit() else None


class ParseContext:
    """Resolution of identifiers to symbols.

    Dependent variables are y1..ym; for m == 1 the alias `y` (and `p`
    for y') applies, for m == 2 the aliases `y` and `w`; y<k> reads as
    the k-th variable unless some variable named y<j> is not the j-th.
    Identifiers followed by `(` are opaque functions (arity fixed on
    first use); any other identifier is a parameter.
    """

    def __init__(self, m: int = 1, dep_names: Sequence[str] = None,
                 indep_name: str = "x"):
        self.m = m
        self.dep_names = tuple(default_dep_names(m) if dep_names is None
                               else dep_names)
        self.indep_name = indep_name
        self.func_arities: dict = {}
        self.index = {n: i for i, n in enumerate(self.dep_names, 1)}
        self.y_alias = all(y_index(n) in (None, i)
                           for n, i in self.index.items())

    def resolve(self, name: str, primes: int, pos: int) -> Symbol:
        if name == self.indep_name:
            if primes:
                raise ParseError("the independent variable takes no primes", pos)
            return Symbol(name, INDEP)
        i = self.index.get(name)
        if i is None and self.y_alias:
            k = y_index(name)
            i = k if k and k <= self.m else None
        if i is not None:
            cname = self.dep_names[i - 1]
            return jet(i, primes, name=cname) if primes else dep(i, name=cname)
        if name == "p" and self.m == 1:
            return jet(1, primes + 1, name=self.dep_names[0])
        if primes:
            raise ParseError("unknown primed symbol %r" % name, pos)
        return param(name)

    def resolve_func(self, name: str, primes: int, nargs: int, pos: int) -> Symbol:
        known = self.func_arities.get(name)
        if known is not None and known != nargs:
            raise ParseError("arity mismatch for %s: %d vs %d"
                             % (name, known, nargs), pos)
        self.func_arities[name] = nargs
        if primes and nargs != 1:
            raise ParseError("primes only apply to unary functions", pos)
        ds = tuple(primes if i == 0 else 0 for i in range(nargs))
        return Symbol(name, OPAQUE, arity=nargs, dorders=ds)


_TOKEN_OPS = set("+-*/^(),")
_DIGITS = "0123456789"  # ASCII: int() misreads or refuses other digits
_NAME_CHARS = _DIGITS + "_"

# the most terms that a sum of fractions, a product, a quotient or a power
# in parsed text may expand to, in its numerator or its denominator
MAX_EXPANSION_TERMS = 100

# the most decimal digits of a numerator or denominator, and the most
# characters of a name, in parsed text: Python refuses to print an
# integer of more than 4300 digits, or to read one from a name y<k>
MAX_INTEGER_DIGITS = 1000

# the deepest nesting of parentheses, call arguments and unary signs in
# parsed text; each level costs the recursive-descent parser up to five
# stack frames, and each nested call about ten recursion levels wherever
# the engine compares or rebuilds it, so both stay well inside the
# default recursion limit of 1000
MAX_NESTING_DEPTH = 50


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalpha() or text[j] in _NAME_CHARS):
                j += 1
            if j - i > MAX_INTEGER_DIGITS:
                raise ParseError("name too long", i)
            primes = 0
            while j < n and text[j] == "'":
                primes += 1
                j += 1
            tokens.append(("ident", text[i:j - primes] if primes else text[i:j], i, primes))
            i = j
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx: ParseContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_expansion(self, pos: int, *terms: int):
        """Refuse the operation at pos when one of `terms`, the upper
        bounds on the term counts of its numerator and denominator,
        exceeds MAX_EXPANSION_TERMS."""
        if max(terms) > MAX_EXPANSION_TERMS:
            raise ParseError("expression too large to expand", pos)

    def check_digits(self, pos: int, e: Expression, k: int = 1) -> Expression:
        """e, unless a numerator or denominator of e ** k could have more
        than MAX_INTEGER_DIGITS digits: then refuse the operation at pos."""
        big = max(max(abs(c.numerator), c.denominator)
                  for _m, c in e.num + e.den)
        if abs(k) * math.log10(big) > MAX_INTEGER_DIGITS:
            raise ParseError("integer too large", pos)
        return e

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError("expected %r" % op, tok[2])

    def parse_expr(self) -> Expression:
        e = self.parse_term()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                rhs = self.parse_term()
                if e.den != rhs.den:    # a/b + c/d = (a*d + c*b)/(b*d)
                    self.check_expansion(
                        tok[2],
                        len(e.num) * len(rhs.den) + len(rhs.num) * len(e.den),
                        len(e.den) * len(rhs.den))
                e = self.check_digits(
                    tok[2], e + rhs if tok[1] == "+" else e - rhs)
            else:
                return e

    def parse_term(self) -> Expression:
        e = self.parse_factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "*/":
                self.next()
                rhs = self.parse_factor()
                if tok[1] == "*":
                    self.check_expansion(tok[2], len(e.num) * len(rhs.num),
                                         len(e.den) * len(rhs.den))
                    e = self.check_digits(tok[2], e * rhs)
                else:
                    if rhs.is_rational_zero():
                        raise ParseError("division by zero", tok[2])
                    self.check_expansion(tok[2], len(e.num) * len(rhs.den),
                                         len(e.den) * len(rhs.num))
                    e = self.check_digits(tok[2], e / rhs)
            else:
                return e

    def parse_factor(self) -> Expression:
        """A signed power; every nesting level of the grammar passes
        through here, so here the depth is bounded."""
        tok = self.peek()
        if self.depth == MAX_NESTING_DEPTH:
            raise ParseError("input nested too deeply", tok[2])
        self.depth += 1
        if tok[0] == "op" and tok[1] in "+-":
            self.next()
            e = self.parse_factor()
            if tok[1] == "-":
                e = -e
        else:
            e = self.parse_power()
        self.depth -= 1
        return e

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            sign = 1
            tok2 = self.peek()
            if tok2[0] == "op" and tok2[1] == "-":
                self.next()
                sign = -1
                tok2 = self.peek()
            if tok2[0] != "int":
                raise ParseError("expected an integer exponent", tok2[2])
            self.next()
            k = sign * int(tok2[1])
            if k == 0:
                raise ParseError("zero exponents are not allowed", tok2[2])
            if base.is_rational_zero() and k < 0:
                raise ParseError("zero to a negative power", tok2[2])
            # a t-term base to the k-th power has at most C(|k|+t-1, t-1)
            # terms; capping |k| keeps the binomial small
            t = max(len(base.num), len(base.den))
            self.check_expansion(
                tok[2],
                math.comb(min(abs(k), MAX_EXPANSION_TERMS) + t - 1, t - 1))
            self.check_digits(tok[2], base, k)
            return self.check_digits(tok[2], base ** k)
        return base

    def parse_atom(self) -> Expression:
        tok = self.next()
        if tok[0] == "int":
            if len(tok[1]) > MAX_INTEGER_DIGITS:
                raise ParseError("integer too large", tok[2])
            return const(int(tok[1]))
        if tok[0] == "op" and tok[1] == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if tok[0] == "ident":
            name, start, primes = tok[1], tok[2], tok[3]
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "(":
                self.next()
                args = [self.parse_expr()]
                while True:
                    t = self.peek()
                    if t[0] == "op" and t[1] == ",":
                        self.next()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect_op(")")
                head = self.ctx.resolve_func(name, primes, len(args), start)
                return atom_expr(Call(head, tuple(args)))
            return atom_expr(self.ctx.resolve(name, primes, start))
        raise ParseError("unexpected token %r" % (tok[1],), tok[2])


def parse(text: str, ctx: ParseContext = None) -> Expression:
    """Parse the expression grammar into a normalized Expression."""
    ctx = ctx or ParseContext()
    parser = _Parser(_tokenize(text), ctx)
    e = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError("trailing input %r" % (tok[1],), tok[2])
    return e


# ---------------------------------------------------------------------------
# Printing


def _format_atom(a: Symbol | Call) -> str:
    """The atom's text, made on its first print and kept on the atom."""
    text = a._text
    if text is None:
        text = a.__dict__["_text"] = _atom_text(a)
    return text


def _atom_text(a: Symbol | Call) -> str:
    if isinstance(a, Symbol):
        if a.kind == JET:
            return a.name + "'" * a.order
        return a.name
    head = a.head
    if head.arity == 1:
        name = head.name + "'" * head.dorders[0]
    elif any(head.dorders):
        name = head.name + "_d" + "".join(str(d) for d in head.dorders)
    else:
        name = head.name
    return "%s(%s)" % (name, ", ".join(format_expression(arg) for arg in a.args))


def _format_terms(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for i, (mon, c) in enumerate(terms):
        pieces = []
        mag = abs(c)
        if mag != 1 or not mon:
            pieces.append(str(mag))
        for a, k in mon:
            s = _format_atom(a)
            pieces.append("%s^%d" % (s, k) if k != 1 else s)
        body = "*".join(pieces)
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def format_expression(e: Expression) -> str:
    """Deterministic printing; output re-parses to an equal Expression."""
    ns = _format_terms(e.num)
    if e.den == _ONE_TERMS:
        return ns
    if len(e.num) > 1 or (e.num and e.num[0][1] < 0):
        ns = "(" + ns + ")"
    return "%s/(%s)" % (ns, _format_terms(e.den))
