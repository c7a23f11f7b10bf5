"""No verdict may depend on what a user named their functions: renaming
the opaque heads of a linear system by an injective map leaves the
`classify_linear_system` verdict unchanged."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from noncartan import (  # noqa: E402
    LinearSystemSpec, call, classify_linear_system, const, func, indep, sym,
    zero,
)

X = indep("x")
NAMES = "ABFGHKLOPRUWXYabfghqrsuvz"
ARGS = (sym(X), sym(X) + 1, 2 * sym(X))

# one term of an entry: (function index, derivative order, argument index,
# coefficient); an entry is a constant plus a sum of terms
TERMS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                           st.integers(0, 2), st.integers(-3, 3)),
                 max_size=2)
ENTRIES = st.tuples(st.integers(-2, 2), TERMS)


def _entry(entry, names):
    c, terms = entry
    e = const(c)
    for f, order, arg, coeff in terms:
        e = e + coeff * call(func(names[f], 1, (order,)), ARGS[arg])
    return e


def _spec(diagonal, perm, off, names):
    """diag(e, e') plus the off-diagonal entries `off` (zero when None),
    where e' is the entry e with its functions permuted by perm."""
    a11 = _entry(diagonal, names)
    a22 = _entry(diagonal, [names[k] for k in perm])
    a12, a21 = (zero(), zero()) if off is None else \
        (_entry(entry, names) for entry in off)
    z = zero()
    return LinearSystemSpec(2, 2, (((z, z), (z, z)), ((a11, a12), (a21, a22))))


@hypothesis.settings(max_examples=60, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(diagonal=ENTRIES, perm=st.permutations(range(3)),
                  off=st.one_of(st.none(), st.tuples(ENTRIES, ENTRIES)),
                  names=st.lists(st.sampled_from(NAMES), min_size=3,
                                 max_size=3, unique=True),
                  renamed=st.lists(st.sampled_from(NAMES), min_size=3,
                                   max_size=3, unique=True))
def test_renaming_functions_keeps_the_verdict(diagonal, perm, off, names,
                                              renamed):
    before = classify_linear_system(_spec(diagonal, perm, off, names))
    after = classify_linear_system(_spec(diagonal, perm, off, renamed))
    assert after.in_canonical_class == before.in_canonical_class
    assert after.reason == before.reason
    assert len(after.witnesses or ()) == len(before.witnesses or ())
