"""Generated systems through `cli.main`: every request ends in exit code
0, 1 or 2, never in an exception."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from noncartan.cli import main  # noqa: E402

ATOMS = ["x", "y", "w", "y'", "p", "q(x)", "f(x,y)", "H(x-y/y')", "2"]


def _expressions():
    def grow(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["(%s%s%s)", "%s%s%s"]), inner,
                      st.sampled_from("+-*/"), inner).map(
                lambda t: t[0] % t[1:]),
            st.tuples(inner, st.integers(-3, 3)).map(
                lambda t: "(%s)^%d" % t),
            inner.map(lambda e: "q(%s)" % e),
            inner.map(lambda e: "H(%s)" % e),
            st.tuples(inner, inner).map(lambda t: "f(%s,%s)" % t))
    return st.recursive(st.sampled_from(ATOMS), grow, max_leaves=6)


def _systems():
    e = _expressions()
    return st.one_of(
        e.map(lambda a: "y''=%s" % a),
        e.map(lambda a: "y''+%s=0" % a),
        st.tuples(e, e).map(lambda t: "y''=%s; w''=%s" % t))


@hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                     database=None)
@hypothesis.given(command=st.sampled_from(["classify", "determining"]),
                  fmt=st.sampled_from(["text", "json"]), system=_systems())
def test_generated_systems_exit_0_1_or_2(command, fmt, system):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--system", system, "--format", fmt])
    assert code in (0, 1, 2)
