"""Exact linear algebra over rationals, plus helpers for extracting
linear systems in unknown parameters from symbolic identities."""

from __future__ import annotations

from fractions import Fraction

from .expr import Expression, Symbol

__all__ = ["rank", "nullspace", "solve", "linear_equations_in_params",
           "InconsistentSystemError"]


class InconsistentSystemError(ValueError):
    pass


def _echelon(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def nullspace(rows, ncols: int = None):
    """Basis of the nullspace of the matrix (list of Fraction vectors)."""
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols or 0)]
    ncols = ncols or len(rows[0])
    red, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly; raises if inconsistent, returns one
    solution (free variables set to zero)."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _echelon(aug)
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            raise InconsistentSystemError("inconsistent linear system")
        sol[pc] = red[r][ncols]
    return sol


def linear_equations_in_params(e: Expression, params):
    """Write a polynomial identity that is affine in the given parameter
    symbols as a list of scalar equations.

    The expression's numerator is expanded; grouping by the monomials in
    everything except the parameters yields one equation per group, each
    returned as (coefficient map param -> Fraction, constant Fraction),
    meaning sum(coeff * param) + constant = 0.
    """
    params = list(params)
    pset = set(params)
    num = Expression(e.num, ((tuple(), Fraction(1)),))
    groups = {}
    for mon, c in num.num:
        pvars = [(a, k) for a, k in mon if isinstance(a, Symbol) and a in pset]
        if sum(k for _, k in pvars) > 1:
            raise ValueError("expression is not affine in the parameters")
        rest = tuple((a, k) for a, k in mon
                     if not (isinstance(a, Symbol) and a in pset))
        lin, cst = groups.setdefault(rest, ({}, [Fraction(0)]))
        if pvars:
            p = pvars[0][0]
            lin[p] = lin.get(p, Fraction(0)) + c
        else:
            cst[0] += c
    out = []
    for rest in sorted(groups, key=lambda m: tuple((a.sort_key(), k) for a, k in m)):
        lin, cst = groups[rest]
        out.append((lin, cst[0]))
    return out

