import random
from fractions import Fraction

import pytest

from noncartan import (
    Expression, brute_force_non_cartan_search, const, indep, jet, linalg,
    param, sym, zero,
)
from noncartan.expr import _ONE_TERMS, monomial_expression
from noncartan.linalg import (
    InconsistentSystemError, _affine_groups, _rref,
    linear_equations_in_params, nullspace, rank, solve,
)

from helpers import (
    reference_nullspace, reference_rank, reference_rref, reference_solve,
)


def _entry(rng, density):
    if rng.random() >= density:
        return 0
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(rng.choice([-7, -2, -1, 1, 3, 4]), rng.randint(1, 6))


def random_matrix(rng, nrows, ncols):
    """Rows of int and Fraction entries at a random density, with zero
    rows and duplicated (possibly rescaled) rows mixed in."""
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    rows = [[_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        u = rng.random()
        if u < 0.1:
            rows[i] = [0] * ncols
        elif u < 0.25 and i:
            k = rng.choice([1, -1, Fraction(2, 3)])
            rows[i] = [k * v for v in rows[rng.randrange(i)]]
    return rows


def _solve_or_error(fn, rows, rhs):
    try:
        return fn(rows, rhs)
    except InconsistentSystemError:
        return InconsistentSystemError


def _dict_rows(rng, rows):
    """The rows as dicts of their nonzero entries in a shuffled order,
    some with an explicit zero entry."""
    out = []
    for row in rows:
        items = [(c, v) for c, v in enumerate(row) if v]
        zeros = [c for c, v in enumerate(row) if not v]
        if zeros and rng.random() < 0.2:
            items.append((rng.choice(zeros), 0))
        rng.shuffle(items)
        out.append(dict(items))
    return out


def _dense_fraction_vectors(vecs, ncols):
    return all(len(v) == ncols and all(type(c) is Fraction for c in v)
               for v in vecs)


def test_linalg_matches_dense_reference_randomized():
    rng = random.Random(7)
    raised = 0
    for case in range(400):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)    # wide, square and tall shapes
        rows = random_matrix(rng, nrows, ncols)
        assert rank(rows) == reference_rank(rows), case
        basis = nullspace(rows)
        assert basis == reference_nullspace(rows), case
        assert _dense_fraction_vectors(basis, ncols), case
        assert nullspace(rows, ncols=ncols) == basis, case
        # the reduced form is unique: the row order does not matter
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert nullspace(shuffled) == basis, case
        rhs = [_entry(rng, 0.7) for _ in range(nrows)]
        got = _solve_or_error(solve, rows, rhs)
        assert got == _solve_or_error(reference_solve, rows, rhs), case
        if got is InconsistentSystemError:
            raised += 1
        else:
            assert _dense_fraction_vectors([got], ncols), case
        # the same matrix as dict rows
        drows = _dict_rows(rng, rows)
        assert rank(drows) == rank(rows), case
        assert nullspace(drows, ncols=ncols) == basis, case
        assert _solve_or_error(lambda r, b: solve(r, b, ncols=ncols),
                               drows, rhs) == got, case
    assert 20 < raised < 380


def test_dict_rows_need_ncols():
    for rows in ([{0: 1, 2: -1}], [{}], [{0: 1}, [1, 2, 3]]):
        with pytest.raises(ValueError, match="needs ncols"):
            nullspace(rows)
        with pytest.raises(ValueError, match="needs ncols"):
            solve(rows, [1] * len(rows))
    # a dense first row gives the count
    assert nullspace([[1, 2, 3], {0: 1}]) == [[0, Fraction(-3, 2), 1]]
    with pytest.raises(ValueError, match="past column"):
        nullspace([{0: 1, 3: 1}], ncols=3)
    with pytest.raises(ValueError, match="past column"):
        solve([{0: 1, 4: 1}], [1], ncols=3)


def test_a_key_that_is_not_a_column_is_a_value_error():
    # a key that is not an int compares with none of the int columns
    for rows in ([{None: 1, 0: 1}], [{0: 1, "a": 2, 1: 1}], [{None: 1}]):
        with pytest.raises(ValueError, match="non-int key"):
            nullspace(rows, ncols=3)
        with pytest.raises(ValueError, match="non-int key"):
            solve(rows, [1], ncols=3)
    with pytest.raises(ValueError, match="non-int key"):
        rank([{None: 1, 0: 1}])
    with pytest.raises(ValueError, match="non-int key"):
        rank([{0: 1, 1: 1}, {"a": 2, 1: 1}])


def test_rank_refuses_a_negative_or_lone_non_int_key():
    # a lone key is peeled without a comparison, and a negative one is
    # the pivot of its row
    for rows in ([{None: 1}], [{-2: 1, 5: 1}], [{-1: 1}]):
        with pytest.raises(ValueError, match="negative key"):
            rank(rows)


def test_nullspace_refuses_a_negative_key():
    # the pivot -1 once left every column free: three basis vectors
    for rows in ([{-1: 1, 0: 1}], [{0: 1, 1: 1}, {-3: 2, 2: 1}]):
        with pytest.raises(ValueError, match="negative key"):
            nullspace(rows, ncols=3)


def test_solve_refuses_a_negative_key():
    # the pivot -1 once put its entry in the last slot: [0, 0, 1]
    with pytest.raises(ValueError, match="negative key"):
        solve([{-1: 1, 0: 1}], [1], ncols=3)
    with pytest.raises(ValueError, match="negative key"):
        solve([[1, 0, 0], {-1: 1, 2: 1}], [1, 2], ncols=3)


def test_solve_refuses_unequal_lengths():
    # a short or long right-hand side once dropped equations silently
    for rows, rhs in (([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 5]),
                      ([], [1]), ([{0: 1}], [])):
        with pytest.raises(ValueError, match="right-hand sides"):
            solve(rows, rhs, ncols=2)
    with pytest.raises(ValueError, match="right-hand sides"):
        solve([], [1])


def test_linalg_empty_and_degenerate():
    assert rank([]) == 0
    assert nullspace([], ncols=3) == reference_nullspace([], ncols=3)
    assert nullspace([], ncols=0) == []
    assert solve([], []) == []
    assert solve([], [], ncols=3) == [Fraction(0)] * 3
    zero_rows = [[0, 0, 0], [0, 0, 0]]
    assert rank(zero_rows) == 0
    assert nullspace(zero_rows) == reference_nullspace(zero_rows)
    assert solve(zero_rows, [0, 0]) == [Fraction(0)] * 3
    with pytest.raises(InconsistentSystemError):
        solve(zero_rows, [0, 1])
    # a duplicated row with a different right-hand side
    with pytest.raises(InconsistentSystemError):
        solve([[1, 2], [1, 2]], [Fraction(1, 2), 1])
    assert solve([[2, 4], [1, 2]], [2, 1]) == [Fraction(1), Fraction(0)]


def test_linalg_int_rows_give_fraction_vectors():
    """Rows of plain ints, with a shared int zero as the brute-force
    search builds them, still give dense Fraction vectors."""
    rng = random.Random(29)
    for case in range(150):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 10)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(ncols)]
                for _ in range(nrows)]
        basis = nullspace(rows, ncols=ncols)
        assert basis == reference_nullspace(rows), case
        assert _dense_fraction_vectors(basis, ncols), case
        rhs = [rng.randint(-3, 3) for _ in range(nrows)]
        got = _solve_or_error(solve, rows, rhs)
        assert got == _solve_or_error(reference_solve, rows, rhs), case
        if got is not InconsistentSystemError:
            assert _dense_fraction_vectors([got], ncols), case
    assert _dense_fraction_vectors(nullspace([], ncols=3), 3)


def test_linear_equations_in_params_exact():
    """The coefficient maps and constants are ints or Fractions, and
    they rebuild the expression's numerator."""
    rng = random.Random(37)
    x, y, p = sym(indep("x")), sym(jet(1, 0, "y")), sym(jet(1, 1, "y"))
    params = [param("c%d" % i) for i in range(4)]
    kinds = set()
    for case in range(60):
        e = const(0)
        for _ in range(rng.randint(1, 6)):
            term = const(Fraction(rng.randint(-5, 5),
                                  rng.choice((1, 1, 2, 3))))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice((x, y, p))
            if rng.random() < 0.7:
                term = term * sym(rng.choice(params))
            e = e + term
        if rng.random() < 0.3:
            e = e / (x + 1)
        groups = linear_equations_in_params(e, params)
        rests = sorted({tuple((a, k) for a, k in mon if a not in params)
                        for mon, _c in e.num},
                       key=lambda m: tuple((a.sort_key(), k) for a, k in m))
        assert len(rests) == len(groups), case
        rebuilt = const(0)
        for rest, (lin, cst) in zip(rests, groups):
            for c in list(lin.values()) + [cst]:
                assert type(c) in (int, Fraction), (case, type(c))
                kinds.add(type(c))
            part = sum((sym(q) * c for q, c in lin.items()), const(cst))
            rebuilt = rebuilt + part * monomial_expression(rest)
        assert rebuilt == Expression(e.num, _ONE_TERMS), case
    assert kinds == {int, Fraction}


def test_linear_equations_in_params_rejects_nonaffine_terms():
    x = sym(indep("x"))
    p, q = param("p"), param("q")
    assert linear_equations_in_params(3 * sym(p) * x + x, [p, q]) == [
        ({p: 3}, 1)]
    for e in (sym(p) ** 2, x * sym(p) * sym(q), x + sym(q) ** 3 * x ** 2):
        with pytest.raises(ValueError, match="not affine"):
            linear_equations_in_params(e, [p, q])


def test_affine_groups_of_a_term_dict():
    """The one grouping routine takes any terms with distinct
    monomials, here an unsorted term dict, keeps them in the order they
    come, keys each coefficient by its parameter's key and the constant
    by None, and refuses a term that is not affine."""
    x, p, q = indep("x"), param("p"), param("q")
    terms = {((x, 2),): 5, ((x, 1), (p, 1)): 2, ((q, 1),): -1,
             ((x, 2), (q, 1)): Fraction(1, 3), (): 7, ((x, 1),): 4}
    assert list(_affine_groups(terms.items(), {p: 0, q: 1}).items()) == [
        (((x, 2),), {None: 5, 1: Fraction(1, 3)}),
        (((x, 1),), {0: 2, None: 4}),
        ((), {1: -1, None: 7}),
    ]
    for mon in (((p, 2),), ((x, 1), (p, 1), (q, 1)), ((q, 3),)):
        with pytest.raises(ValueError, match="not affine"):
            _affine_groups({mon: 1, (): 1}.items(), {p: 0, q: 1})


def test_linalg_matches_sympy_randomized():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)

    def frac(v):
        return Fraction(int(v.p), int(v.q))

    for case in range(60):
        nrows = rng.randint(1, 9)
        ncols = rng.randint(1, 9)
        rows = random_matrix(rng, nrows, ncols)
        m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                           for v in map(Fraction, row)] for row in rows])
        red, pivots = m.rref()
        ours = _rref(rows)
        assert sorted(ours) == list(pivots), case
        assert [[ours[pc].get(c, 0) for c in range(ncols)]
                for pc in pivots] == [[frac(v) for v in red.row(i)]
                                      for i in range(len(pivots))], case
        assert rank(rows) == len(pivots), case
        assert nullspace(rows) == [[frac(v) for v in vec]
                                   for vec in m.nullspace()], case


def _hostile_row(rng, ncols):
    """Entries with large, mixed denominators and signs, mostly zero."""
    row = []
    for _ in range(ncols):
        u = rng.random()
        if u < 0.45:
            row.append(0)
        elif u < 0.6:
            row.append(rng.randint(-10 ** 12, 10 ** 12))
        else:
            row.append(Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                rng.choice((3, 7, 1024, 999983,
                                            2 ** 61 - 1, 10 ** 15 + 37))))
    return row


def test_integer_rref_matches_fraction_reference():
    """The fraction-free elimination gives the reduced form of the
    Fraction elimination it replaced, entry for entry, on rows with large
    mixed denominators, negative leading entries, zero rows and rank
    deficiency."""
    rng = random.Random(41)
    negative_leads = deficient = 0
    for case in range(250):
        ncols = rng.randint(1, 14)
        rows = [_hostile_row(rng, ncols) for _ in range(rng.randint(1, 10))]
        for i in range(len(rows)):
            u = rng.random()
            if u < 0.1:
                rows[i] = [0] * ncols
            elif u < 0.3 and i:
                # a rational combination of two earlier rows
                j, k = rng.randrange(i), rng.randrange(i)
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 99991))
                rows[i] = [a * v - w for v, w in zip(rows[j], rows[k])]
            elif u < 0.5:
                # a negative leading entry
                lead = rng.randrange(ncols)
                rows[i][:lead] = [0] * lead
                rows[i][lead] = -abs(rows[i][lead]) or -1
        negative_leads += any(next((v for v in r if v), 0) < 0 for r in rows)
        red = _rref(rows)
        assert red == reference_rref(rows), case
        assert all(type(v) is Fraction for r in red.values()
                   for v in r.values()), case
        assert all(r[pc] == 1 for pc, r in red.items()), case
        deficient += len(red) < min(len(rows), ncols)
    assert negative_leads > 100
    assert deficient > 50


def _nonzero(rng):
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(rng.choice([-7, -2, -1, 1, 3, 4]), rng.randint(2, 9))


def _cascade_matrix(rng, ncols):
    """Dense rows whose one-entry rows force a chain of columns in
    cascade: the first chain row has one entry, and each later one an
    entry in its own column and in the column before it, so it is left
    with one entry only after the pass that forced that column.  Rows
    with entries only in chain columns peel to empty; the core rows have
    two or more entries in the other columns, with chain entries mixed
    in.  Returns the rows and the chain."""
    cols = list(range(ncols))
    rng.shuffle(cols)
    chain = cols[:rng.randint(1, ncols - 2)]
    core = cols[len(chain):]
    rows = []
    for i, c in enumerate(chain):
        row = {c: _nonzero(rng)}
        if i:
            row[chain[i - 1]] = _nonzero(rng)
            for d in rng.sample(chain[:i], rng.randint(0, min(i, 2))):
                row[d] = _nonzero(rng)
        rows.append(row)
    if len(chain) > 1:
        for _ in range(rng.randint(1, 3)):
            rows.append({d: _nonzero(rng)
                         for d in rng.sample(chain, rng.randint(2, len(chain)))})
    for _ in range(rng.randint(0, 2 * len(core))):
        row = {d: _nonzero(rng)
               for d in rng.sample(core, rng.randint(2, len(core)))}
        for d in rng.sample(chain, rng.randint(0, len(chain))):
            row[d] = _nonzero(rng)
        rows.append(row)
    rng.shuffle(rows)
    return [[row.get(c, 0) for c in range(ncols)] for row in rows], chain


def test_peeled_rref_matches_reference_on_cascades():
    """Columns forced to zero by one-entry rows, directly or only once an
    earlier pass has struck a column, get the unit reduced row, and the
    whole reduced form equals the reference elimination's, for dense
    rows, dict rows and the rows in any order."""
    rng = random.Random(43)
    deep = 0
    for case in range(200):
        ncols = rng.randint(3, 14)
        rows, chain = _cascade_matrix(rng, ncols)
        ref = reference_rref(rows)
        red = _rref(rows)
        assert red == ref, case
        assert all(red[c] == {c: 1} for c in chain), case
        assert all(type(v) is Fraction for r in red.values()
                   for v in r.values()), case
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert _rref(shuffled) == ref, case
        assert _rref(_dict_rows(rng, shuffled)) == ref, case
        assert rank(rows) == reference_rank(rows), case
        assert nullspace(rows) == reference_nullspace(rows), case
        deep += len(chain) >= 3
    assert deep > 60


def test_solve_raises_on_a_peeled_right_hand_side():
    """An inconsistency that shows only as a one-entry row in the
    right-hand-side column, at once or after a column is struck, still
    raises."""
    cases = [
        # a zero row with a nonzero right-hand side
        ([[1, 2, 0], [0, 0, 0], [0, 1, 1]], [1, 3, 0]),
        # x0 = 0, then 2 x0 = 5 is left with its right-hand side alone
        ([[1, 0, 0], [2, 0, 0], [0, 1, 1]], [0, 5, 1]),
        # x2 = 0 forces x1 = 0, which leaves x1 + x2 = 1/2 inconsistent
        ([[0, 0, 3], [0, 4, Fraction(1, 3)], [0, 1, 1], [1, 1, 0]],
         [0, 0, Fraction(1, 2), 2]),
    ]
    for rows, rhs in cases:
        with pytest.raises(InconsistentSystemError):
            reference_solve(rows, rhs)
        with pytest.raises(InconsistentSystemError):
            solve(rows, rhs)
        drows = [{c: v for c, v in enumerate(r) if v} for r in rows]
        with pytest.raises(InconsistentSystemError):
            solve(drows, rhs, ncols=3)
    # the same rows with right-hand sides that fit solve as the reference
    rows, rhs = cases[2][0], [0, 0, 0, 2]
    assert solve(rows, rhs) == reference_solve(rows, rhs) == [2, 0, 0]


def test_peeled_rref_matches_reference_on_oracle_rows(monkeypatch):
    """The dict rows that `non_cartan_search` sends to the elimination
    for the criterion-9 corpus, at degree caps 1 and 2, reduce as the
    reference elimination reduces them densified."""
    x = sym(indep("x"))
    z = zero()
    captured = []
    real = linalg.nullspace

    def spy(rows, ncols=None):
        captured.append((rows, ncols))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace", spy)
    corpus = [
        (z, z, z), (z, z, const(-2)), (const(1), z, const(2)),
        (x, z, z), (z, const(1), z), (z, z, x ** 2),
        (const(1), const(1), const(1)), (x ** 2, x, const(1)),
        (z, x, z), (2 * x + 1, z, const(3)),
    ]
    for cap in (1, 2):
        for a, b, c in corpus:
            brute_force_non_cartan_search(a, b, c, degree_cap=cap)
    assert len(captured) == 2 * len(corpus)
    for rows, ncols in captured:
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert _rref(rows) == reference_rref(dense)
