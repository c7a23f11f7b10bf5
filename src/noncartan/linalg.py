"""Exact linear algebra over rationals, plus helpers for extracting
linear systems in unknown parameters from symbolic identities.

`rank`, `nullspace` and `solve` share one sparse Gauss-Jordan routine,
`_rref`, which keeps each row as a dict of its nonzero entries: the
determining systems it serves are large and mostly zeros.  Inputs are
dense rows of ints and Fractions, outputs dense Fraction vectors.  The
reduced row echelon form is unique, so the bases and solutions do not
depend on the order in which rows are eliminated."""

from __future__ import annotations

from fractions import Fraction

from .expr import Expression, Symbol, _mon_key

__all__ = ["rank", "nullspace", "solve", "linear_equations_in_params",
           "InconsistentSystemError"]


class InconsistentSystemError(ValueError):
    pass


def _rref(rows) -> dict:
    """Reduced row echelon form as {pivot column: row}, each row a dict
    {column: Fraction} of its nonzero entries.

    Each incoming row is reduced by the pivot rows so far, scaled to a
    leading 1, and subtracted from the earlier pivot rows that have an
    entry in its pivot column.  Every pivot row stays 1 in its own pivot
    column and 0 in the others, so the reductions of one row commute and
    no pivot row gains an entry left of its pivot."""
    pivots = {}
    for row in rows:
        r = {c: v for c, v in enumerate(row) if v}
        for c in pivots.keys() & r.keys():
            _axpy(r, -r[c], pivots[c])
        if not r:
            continue
        pc = min(r)
        inv = Fraction(1) / r[pc]
        r = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            f = prow.get(pc)
            if f is not None:
                _axpy(prow, -f, r)
        pivots[pc] = r
    return pivots


def _axpy(target: dict, f, row: dict) -> None:
    """target += f * row, dropping the entries that become zero."""
    for c, v in row.items():
        t = target.get(c, 0) + f * v
        if t:
            target[c] = t
        else:
            del target[c]


def rank(rows) -> int:
    return len(_rref(rows))


def nullspace(rows, ncols: int = None):
    """Basis of the nullspace of the matrix (list of Fraction vectors)."""
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(ncols)]
                for j in range(ncols or 0)]
    ncols = ncols or len(rows[0])
    red = _rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in red.items():
            vec[pc] = -prow.get(fc, Fraction(0))
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly; raises if inconsistent, returns one
    solution (free variables set to zero)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = _rref(list(r) + [b] for r, b in zip(rows, rhs))
    if ncols in red:
        raise InconsistentSystemError("inconsistent linear system")
    sol = [Fraction(0)] * ncols
    for pc, prow in red.items():
        sol[pc] = prow.get(ncols, Fraction(0))
    return sol


def linear_equations_in_params(e: Expression, params):
    """Write a polynomial identity that is affine in the given parameter
    symbols as a list of scalar equations.

    The expression's numerator is expanded; grouping by the monomials in
    everything except the parameters yields one equation per group, each
    returned as (coefficient map param -> coefficient, constant),
    meaning sum(coeff * param) + constant = 0.  The values are exact:
    an int where integral, else a Fraction, like the expression's own
    coefficients.
    """
    params = list(params)
    pset = set(params)
    groups = {}
    for mon, c in e.num:
        pvars = [(a, k) for a, k in mon if isinstance(a, Symbol) and a in pset]
        if sum(k for _, k in pvars) > 1:
            raise ValueError("expression is not affine in the parameters")
        rest = tuple((a, k) for a, k in mon
                     if not (isinstance(a, Symbol) and a in pset))
        lin, cst = groups.setdefault(rest, ({}, [0]))
        if pvars:
            p = pvars[0][0]
            lin[p] = lin.get(p, 0) + c
        else:
            cst[0] += c
    out = []
    for rest in sorted(groups, key=_mon_key):
        lin, cst = groups[rest]
        out.append((lin, cst[0]))
    return out

