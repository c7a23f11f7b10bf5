"""Exact linear algebra over rationals, plus helpers for extracting
linear systems in unknown parameters from symbolic identities.

`rank`, `nullspace` and `solve` share one sparse Gauss-Jordan routine,
`_rref`, which keeps each row as a dict of its nonzero entries: the
determining systems it serves are large and mostly zeros.  Most of their
unknowns are zero outright: a row with one entry forces its column to
zero, and striking that column out of the other rows leaves more such
rows.  `_rref` peels those columns first, which changes nothing in the
unique reduced form, and eliminates only the rows that are left.  The
elimination is fraction-free: each row is scaled to integers and reduced
by integer cross-multiplication, and only the reduced form it returns is
divided out into Fractions.  A row is either a dense sequence of ints
and Fractions or a dict {column: value} of its nonzero entries; a
matrix with a dict row needs its column count `ncols`, which a dict does
not carry.  Outputs are dense Fraction vectors.  The reduced row echelon
form is unique, so the bases and solutions do not depend on the order in
which rows are eliminated."""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import Expression, _mon_key

__all__ = ["rank", "nullspace", "solve", "linear_equations_in_params",
           "InconsistentSystemError"]


class InconsistentSystemError(ValueError):
    pass


def _rref(rows) -> dict:
    """Reduced row echelon form as {pivot column: row}, each row a dict
    {column: Fraction} of its nonzero entries.  An incoming row is a
    dense sequence or a dict {column: value}.

    First the peel: a row with one entry c * x_j, c != 0, forces x_j = 0,
    so column j is struck out of every row, which may leave further rows
    with one entry; passes repeat until one finds no new forced column,
    and rows left empty are dropped.  The reduced form is unique, and the
    row space is spanned by the unit rows of the forced columns together
    with the struck rows, so the forced columns get the reduced rows
    {j: 1} and the struck rows are eliminated on their own.

    Each row left is scaled to integers by the lcm of its denominators,
    reduced by the pivot rows so far and divided by the gcd of its
    entries; the earlier pivot rows with an entry in its pivot column are
    then reduced by it.  A reduction is the integer cross-multiplication
    p * row - row[c] * pivot_row, with p the pivot row's entry in its
    pivot column c.  Every pivot row is kept primitive with a positive
    entry in its own pivot column and 0 in the others, so the reductions
    of one row commute and no pivot row gains an entry left of its
    pivot.  Dividing each row by its pivot entry at the end gives the
    reduced form."""
    rows = [{c: v for c, v in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if v}
            for row in rows]
    forced = set()
    new = set()
    while True:
        # strike the columns the last pass forced; the earlier ones are
        # gone already, so a row left with one entry forces a new column
        left = []
        found = set()
        for r in rows:
            if not new.isdisjoint(r):
                r = {c: v for c, v in r.items() if c not in new}
            if len(r) > 1:
                left.append(r)
            elif r:
                found.update(r)
        rows = left
        if not found:
            break
        forced |= found
        new = found
    pivots = {}
    for r in rows:
        den = math.lcm(*[v.denominator for v in r.values()])
        r = {c: v.numerator * (den // v.denominator) for c, v in r.items()}
        for c in pivots.keys() & r.keys():
            prow = pivots[c]
            r = _combine(prow[c], r, -r[c], prow)
        if not r:
            continue
        pc = min(r)
        r = _primitive(r, pc)
        a = r[pc]
        for c, prow in pivots.items():
            f = prow.get(pc)
            if f is not None:
                pivots[c] = _primitive(_combine(a, prow, -f, r), c)
        pivots[pc] = r
    red = {pc: {c: Fraction(v, r[pc]) for c, v in r.items()}
           for pc, r in pivots.items()}
    one = Fraction(1)
    red.update((c, {c: one}) for c in forced)
    return red


def _combine(a: int, row: dict, b: int, other: dict) -> dict:
    """a * row + b * other, dropping the entries that become zero."""
    out = {c: a * v for c, v in row.items()}
    for c, v in other.items():
        t = out.get(c, 0) + b * v
        if t:
            out[c] = t
        else:
            del out[c]
    return out


def _primitive(row: dict, pc: int) -> dict:
    """row divided by the gcd of its entries, with the sign that makes
    its entry in column pc positive."""
    g = math.gcd(*row.values())
    if row[pc] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _ncols(rows, ncols):
    """The column count: ncols if given, else the length of the first
    row, which a dict row does not have."""
    if ncols:
        return ncols
    if isinstance(rows[0], dict):
        raise ValueError("a matrix of dict rows needs ncols")
    return len(rows[0])


def _rref_within(rows, ncols: int = None) -> dict:
    """`_rref`; ValueError on a key other than the int columns below
    ncols (comparing an int with a key that is not one raises TypeError)."""
    try:
        red = _rref(rows)
        if ncols is None or max(map(max, red.values()), default=0) < ncols:
            return red
    except TypeError:
        pass
    raise ValueError("a row has a non-int key or a key past column ncols - 1")


def rank(rows) -> int:
    return len(_rref_within(rows))


def nullspace(rows, ncols: int = None):
    """Basis of the nullspace of the matrix (list of Fraction vectors)."""
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols or 0)]
    ncols = _ncols(rows, ncols)
    red = _rref_within(rows, ncols)
    zero, one = Fraction(0), Fraction(1)
    basis = {fc: [zero] * ncols for fc in range(ncols) if fc not in red}
    for fc, vec in basis.items():
        vec[fc] = one
    # a reduced pivot row has no entry in another pivot column
    for pc, prow in red.items():
        for c, v in prow.items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())


def solve(rows, rhs, ncols: int = None):
    """Solve A x = b exactly; raises if inconsistent, returns one
    solution (free variables set to zero)."""
    if len(rows) != len(rhs):
        raise ValueError("%d rows but %d right-hand sides"
                         % (len(rows), len(rhs)))
    if not rows:
        return [Fraction(0)] * (ncols or 0)
    ncols = _ncols(rows, ncols)
    red = _rref_within(({**r, ncols: b} if isinstance(r, dict)
                        else list(r) + [b] for r, b in zip(rows, rhs)),
                       ncols + 1)
    if ncols in red:
        raise InconsistentSystemError("inconsistent linear system")
    sol = [Fraction(0)] * ncols
    for pc, prow in red.items():
        sol[pc] = prow.get(ncols, Fraction(0))
    return sol


def linear_equations_in_params(e: Expression, params):
    """Write a polynomial identity that is affine in the given parameter
    symbols as a list of scalar equations.

    The numerator's terms are grouped by `_affine_groups`: one equation
    per monomial in everything except the parameters, in the order of
    those monomials' sort keys, each returned as (coefficient map param
    -> coefficient, constant), meaning sum(coeff * param) + constant =
    0.  The values are exact: an int where integral, else a Fraction,
    like the expression's own coefficients.
    """
    groups = _affine_groups(e.num, {p: p for p in params})
    return [(lin, lin.pop(None, 0))
            for lin in map(groups.get, sorted(groups, key=_mon_key))]


def _affine_groups(terms, keys: dict) -> dict:
    """The terms of a polynomial affine in the parameters p keyed in
    `keys`, grouped by the rest of their monomials, in the order they
    come: {rest: {keys[p]: coefficient, None: constant}}.  The monomials
    are distinct, as in an Expression or a term dict, so each key of a
    group is met once.  ValueError on a term that is not affine."""
    groups = {}
    for mon, c in terms:
        key = None
        rest = []
        for a, k in mon:
            if a not in keys:
                rest.append((a, k))
            elif key is None and k == 1:
                key = keys[a]
            else:
                raise ValueError("expression is not affine in the parameters")
        groups.setdefault(tuple(rest), {})[key] = c
    return groups
