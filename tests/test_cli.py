import io
import json
import contextlib

import pytest

from noncartan import (
    JetContext, ParseContext, call, determining_system_2x2,
    dep, format_expression, full_ansatz, func, indep, param, parse,
    restricted_ansatz, sym, zero,
)
from noncartan.cli import format_vector_field, main
from noncartan.io import (
    InputError, parse_ansatz, parse_system, parse_vector_field,
)


def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# input DSL


def test_parse_system_scalar():
    system = parse_system("y''=0")
    assert system.ctx.m == 1
    assert system.ctx.order == 2
    assert system.rhs[0].is_rational_zero()


def test_parse_system_homogeneous_form():
    system = parse_system("y1''+y1+0*y2=0; y2''+2*y1+y2=0")
    assert system.ctx.m == 2
    assert system.ctx.dep_names == ("y1", "y2")


def test_parse_system_named_variables():
    for text, names in (
            ("y''=q(x)*y; w''=q(x)*w", ("y", "w")),
            # a primed function head names no variable
            ("y''=q'(x)*y", ("y",)),
            # the names keep their order of first appearance
            ("w''=y; y''=w", ("w", "y")),
            ("y2''=y1; y1''=0", ("y1", "y2")),
            # the y<k> rule needs every k >= 1
            ("y0''=0", ("y0",)),
            ("y0''=0; y1''=0", ("y0", "y1")),
            ("y0''=y2; y1''=0", ("y0", "y1"))):
        assert parse_system(text).ctx.dep_names == names
    # y<k> aliases the k-th variable only where no y<j> names another
    assert parse_system("y''=y1; w''=y2").rhs == tuple(
        sym(dep(i, name=n)) for i, n in ((1, "y"), (2, "w")))
    assert parse_system("y0''=y2; y1''=0").rhs[0] == sym(param("y2"))


def test_parse_system_parses_each_side_once(monkeypatch):
    """The dependent variables come from the tokens, so each side of
    each equation goes through `parse` once."""
    calls = []

    def counting(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr("noncartan.io.parse", counting)
    parse_system("y''=A(x)*y+B(x)*w; w''=C(x)*y-A(x)*w")
    assert len(calls) == 4


def test_parse_system_errors():
    with pytest.raises(InputError):
        parse_system("y'' = ")
    with pytest.raises(InputError):
        parse_system("x + 1 = 0")
    with pytest.raises(InputError):
        parse_system("y'' = 0; y'' = 1")
    with pytest.raises(InputError):
        parse_system("y''*y'' = 0")


def test_parse_vector_field():
    system = parse_system("y''=0")
    v = parse_vector_field("y*dx", system.ctx)
    assert v.xi == parse("y", ParseContext(1))
    assert v.phi[0].is_rational_zero()
    v2 = parse_vector_field("x*y*dx + y^2*dy", system.ctx)
    assert not v2.phi[0].is_rational_zero()
    with pytest.raises(InputError):
        parse_vector_field("y + x*dx", system.ctx)
    with pytest.raises(InputError):
        parse_vector_field("dx*dy", system.ctx)


def test_vector_field_roundtrip():
    system = parse_system("y''=0")
    for text in ["y*dx", "(x*y)*dx + y^2*dy", "1*dy"]:
        v = parse_vector_field(text, system.ctx)
        again = parse_vector_field(format_vector_field(v), system.ctx)
        assert again.xi == v.xi
        assert again.phi == v.phi


# ---------------------------------------------------------------------------
# commands and exit codes


def test_verify_free_fall():
    code, out = run(["verify", "--system", "y''=0", "--catalog", "free-fall"])
    assert code == 0
    assert "8/8 pass" in out


@pytest.mark.parametrize("system, catalog, m", [
    ("y''=-q(x)*y", "non-cartan", "1"),
    ("y''=-q(x)*y; w''=-q(x)*w", "non-cartan", "2"),
    ("y''=-q(x)*y", "canonical", "1"),
    ("y'''=-4*q(x)*y'-2*q'(x)*y", "canonical", "1"),
])
def test_verify_catalog_under_its_source_rules(system, catalog, m):
    # the catalog fields call u, v with u'' = -q u and v'' = -q v; their
    # residuals vanish only under those rules.  The family takes its
    # shape from the system: m dependent variables and its order n
    code, out = run(["verify", "--system", system, "--catalog", catalog])
    assert code == 0
    assert "FAIL" not in out
    assert "u(x)" in out
    m, n = int(m), system.split("=")[0].count("'")
    size = 2 * m if catalog == "non-cartan" else m * m + n * m + 3
    assert out.splitlines()[-1] == "%d/%d pass" % (size, size)


def test_verify_catalog_pair_named_apart_from_the_input():
    # a system that calls u itself is not rewritten by the pair's rules:
    # the pair is renamed, and y'' = -u y is not its source equation
    code, out = run(["verify", "--system", "y''=-u(x)*y", "--catalog",
                     "non-cartan", "--generator", "v(x)*dy"])
    assert code == 1
    assert out.splitlines() == [
        "C11  FAIL  (y*u_(x))*dx + (y^2*u_'(x))*dy  [non-Cartan]",
        "C12  FAIL  (y*v_(x))*dx + (y^2*v_'(x))*dy  [non-Cartan]",
        "v1   FAIL  v(x)*dy",
        "0/3 pass"]
    # so is a generator that calls it
    code, out = run(["verify", "--system", "y''=-q(x)*y", "--catalog",
                     "non-cartan", "--generator", "u(x)*dy"])
    assert out.startswith("C11  PASS  (y*u_(x))*dx")


def test_verify_failure_exit_code():
    code, out = run(["verify", "--system", "y''=y", "--generator", "y*dx"])
    assert code == 1
    assert "FAIL" in out


def test_verify_counterexample_generator():
    code, out = run(["verify", "--system", "eq14", "--generator", "y*dx"])
    assert code == 0


def test_parser_built_once_keeps_no_state_between_calls():
    # the parser is built once per process; the `append` default of
    # --generator must not collect the first call's generators
    code, out = run(["verify", "--system", "y''=0", "--generator", "dx"])
    assert (code, out.splitlines()) == (0, ["v1   PASS  1*dx", "1/1 pass"])
    code, out = run(["verify", "--system", "y''=0", "--generator", "x*dy"])
    assert (code, out.splitlines()) == (0, ["v1   PASS  x*dy", "1/1 pass"])


def test_help_exits_0():
    for _ in range(2):
        code, out = run(["--help"])
        assert code == 0
        assert out.startswith("usage: noncartan")


def test_usage_error_exit_code():
    code, _ = run(["verify", "--system", "y'' = "])
    assert code == 2
    code2, _ = run(["frobnicate"])
    assert code2 == 2


def test_parenthesised_right_hand_side():
    # `y''` followed by `(` across the `=` is not a function call
    for fmt in ("text", "json"):
        for left, right in (("y''=(x+1)*y", "y''=y*(x+1)"),
                            ("y''=(x+1)*y; w''=(2)*w",
                             "y''=y*(x+1); w''=2*w")):
            expected = run(["classify", "--system", right, "--format", fmt])
            assert expected[0] in (0, 1)
            assert run(["classify", "--system", left,
                        "--format", fmt]) == expected


def test_scan_error_positions_count_from_equation_start():
    for text, pos in (("y''=y+$", 6), ("y''=(x", 6), ("y''=x'", 4)):
        with pytest.raises(InputError, match="position %d\\)" % pos):
            parse_system(text)


def test_determining_non_polynomial_residual_is_usage_error():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(["determining", "--system", "eq14"])
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("error: ")
    assert "non-polynomial" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_determining_first_equations():
    code, out = run(["determining", "--system",
                     "y''=A(x)*y+B(x)*w; w''=C(x)*y-A(x)*w"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("E")]
    assert "xi_d002" in lines[0]
    assert "xi_d011" in lines[1]
    assert "xi_d020" in lines[2]


def test_determining_custom_ansatz():
    code, out = run(["determining", "--system", "y''=0",
                     "--ansatz", "xi=xi(x),phi=phi(x)"])
    assert code == 0
    assert "2 equations" in out
    assert "xi''(x)" in out
    assert "phi''(x)" in out


def test_determining_restricted_unknowns():
    code, out = run(["determining", "--system",
                     "y''=A(x)*y+B(x)*w; w''=C(x)*y-A(x)*w",
                     "--ansatz", "restricted"])
    assert code == 0
    header = out.splitlines()[0]
    for name in ("alpha", "beta", "gamma"):
        assert name in header
    assert "xi" not in header


def test_parse_ansatz_reads_each_name_of_a_component():
    """phi<j>, the variable's own name and its full-ansatz name each
    give the j-th component; a variable's own name wins over another
    component's full-ansatz name."""
    x = sym(indep("x"))
    ctx = JetContext(2, 2)
    for first, second in (("phi1", "phi2"), ("y", "w"), ("eta", "phi")):
        field = parse_ansatz("xi=x, %s=x^2, %s=x^3" % (first, second), ctx)
        assert field.phi == (x ** 2, x ** 3)
    ctx = JetContext(2, 2, dep_names=("y", "eta"))
    assert parse_ansatz("eta=x", ctx).phi == (zero(), x)
    assert parse_ansatz("phi1=x", ctx).phi == (x, zero())
    with pytest.raises(InputError, match="^repeated ansatz component: "
                       "eta and phi2$"):
        parse_ansatz("eta=x, phi2=x", ctx)


def test_parse_ansatz_builds_the_named_ansatze(tmp_path, monkeypatch):
    """`full` and `restricted` resolve in io.NAMED_ANSATZE to the
    builders of `symmetry`, after the stripped text is looked up; a
    builder's refusal is an InputError with its message.  The CLI reads
    a file of the given name first, as it does for a named system."""
    ctx = JetContext(2, 2)
    assert parse_ansatz(" full\n", ctx) == full_ansatz(ctx)
    assert parse_ansatz("restricted", ctx) == restricted_ansatz(ctx)
    with pytest.raises(InputError, match="^the restricted ansatz applies "
                       "to pairs of second-order equations$"):
        parse_ansatz("restricted", JetContext(1, 2))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "full").write_text("xi=xi(x),phi=phi(x)")
    code, out = run(["determining", "--system", "y''=0", "--ansatz", "full"])
    assert code == 0
    assert out.splitlines()[1] == "2 equations"
    assert "xi''(x)" in out


def test_determining_json_matches_library_ansatze():
    # the CLI and determining_system_2x2 build their ansatze in one place
    x = sym(indep())
    a, b, c = (call(func(name), x) for name in "ABC")
    for restricted, ansatz in ((False, "full"), (True, "restricted")):
        code, out = run(["determining", "--system",
                         "y''=A(x)*y+B(x)*w; w''=C(x)*y-A(x)*w",
                         "--ansatz", ansatz, "--format", "json"])
        assert code == 0
        printed = {r["equation"] for r in json.loads(out)["results"]}
        ds = determining_system_2x2(a, b, c, restricted=restricted)
        assert printed == {format_expression(e) for e in ds.equations}


NESTED_SUM = "y''=y*" + "(" * 3000 + "x" + ")" * 3000
NESTED_CALL = "y''=" + "f(" * 200 + "x" + ")" * 200 + "*y"

CLASSIFY_NEEDS = ("error: classification needs a linear normal-form system "
                  "or a scalar second-order equation")

# (arguments, the start of the stderr line that carries the message)
HOSTILE = [
    # verify builds the catalog family in the system's context, so a
    # size beside it has no meaning
    (["verify", "--system", "y''=0", "--catalog", "canonical", "--m", "3"],
     "error: unrecognized arguments: --m 3"),
    (["verify", "--system", "y''=0", "--catalog", "non-cartan", "--m", "2"],
     "error: unrecognized arguments: --m 2"),
    (["verify", "--system", "y''=0; w''=0", "--catalog", "free-fall"],
     "error: catalog 'free-fall' has m = 1"),
    (["verify", "--system", "y'=0", "--catalog", "canonical"],
     "error: catalog 'canonical' needs order 2"),
    (["verify", "--system", "y''=-y", "--catalog", "canonical", "--n", "3"],
     "error: unrecognized arguments: --n 3"),
    # a generator set names a family, not a named system
    (["verify", "--system", "y''=0", "--catalog", "foo"],
     "error: unknown catalog key 'foo'"),
    (["commutators", "--set", "eq14"],
     "error: unknown catalog key 'eq14'"),
    # the parser's depth bound refuses these before the engine recurses
    (["classify", "--system", NESTED_SUM],
     "error: cannot parse \"%s\": input nested too deeply (at position 56)"
     % NESTED_SUM),
    (["classify", "--system", NESTED_CALL],
     "error: cannot parse \"%s\": input nested too deeply (at position 104)"
     % NESTED_CALL),
    (["classify", "--system", "y''=(x+y')^40000"],
     "error: cannot parse \"y''=(x+y')^40000\": expression too large"),
    (["classify", "--system", "y''=3^100000*y"],
     "error: cannot parse \"y''=3^100000*y\": integer too large"),
    (["classify", "--system", "y''=%s*y" % ("9" * 5000)],
     "error: cannot parse \"y''=%s*y\": integer too large (at position 4)"
     % ("9" * 5000)),
    # integers and the digits in names are ASCII: int() refuses the others
    (["classify", "--system", "y''=\u00b2*y"],
     "error: cannot parse \"y''=\u00b2*y\": unexpected character "
     "'\u00b2' (at position 4)"),
    (["classify", "--system", "y\u00b2''=0"],
     "error: cannot parse \"y\u00b2''=0\": unexpected character "
     "'\u00b2' (at position 1)"),
    (["classify", "--system", "y''=y\u00b2"],
     "error: cannot parse \"y''=y\u00b2\": unexpected character "
     "'\u00b2' (at position 5)"),
    # a name y<k> of many digits: refused, or counted before it is built
    (["classify", "--system", "y%s''=0" % ("9" * 5000)],
     "error: cannot parse \"y%s''=0\": name too long (at position 0)"
     % ("9" * 5000)),
    (["classify", "--system", "y''=y%s" % ("9" * 5000)],
     "error: cannot parse \"y''=y%s\": name too long (at position 4)"
     % ("9" * 5000)),
    (["classify", "--system", "y99999999999''=0"],
     "error: expected 99999999999 equations for variables "
     "y1..y99999999999, got 1"),
    # the scalar tests belong to second-order equations
    (["classify", "--system", "y'''=0"], CLASSIFY_NEEDS),
    (["classify", "--system", "y'=y^5"], CLASSIFY_NEEDS),
    (["classify", "--system", "y'=y"], CLASSIFY_NEEDS),
    (["verify", "--system", "y''=0", "--generator", "1 + dx*dy"],
     "error: vector field '1 + dx*dy' has a term without a coordinate"),
    # argparse rejects these
    (["catalog", "canonical", "--m", "0"],
     "error: argument --m: must be at least 1"),
    (["catalog", "canonical", "--n", "1"],
     "error: argument --n: must be at least 2"),
    (["catalog", "normal-form-coeffs", "--n", "1"],
     "error: argument --n: must be at least 2"),
    (["commutators", "--set", "canonical", "--m", "0"],
     "error: argument --m: must be at least 1"),
    # sizes past the bounds, which used to run for tens of seconds
    (["commutators", "--set", "canonical", "--m", "8"],
     "error: catalog 'canonical' takes at most 6 dependent variables, "
     "got 8"),
    (["commutators", "--set", "canonical", "--m", "40"],
     "error: catalog 'canonical' takes at most 6 dependent variables, "
     "got 40"),
    (["catalog", "canonical", "--m", "400"],
     "error: catalog 'canonical' takes at most 6 dependent variables, "
     "got 400"),
    (["commutators", "--set", "non-cartan", "--m", "40"],
     "error: catalog 'non-cartan' takes at most 20 dependent variables, "
     "got 40"),
    (["verify", "--system", "; ".join("y%d''=0" % i for i in range(1, 8)),
      "--catalog", "canonical"],
     "error: catalog 'canonical' takes at most 6 dependent variables, "
     "got 7"),
    # the first dependent variable, in the system's order, that the
    # residual nests in a call
    (["determining", "--system", "y''=H(y'+w'); w''=0"],
     "error: cannot split the invariance condition into determining "
     "equations: y' occurs inside an opaque argument"),
    (["determining", "--system", "y''=1/(y'+1)", "--ansatz",
      "xi=xi(x),phi=phi(x)"],
     "error: cannot split the invariance condition into determining "
     "equations: non-polynomial dependence on y'"),
    (["catalog", "normal-form-coeffs", "--n", "9"],
     "error: argument --n: must be at most 8, got 9"),
    (["verify", "--system", "y" + "'" * 12 + "=0", "--catalog", "canonical"],
     "error: catalog 'canonical' takes order at most 8; the system has "
     "order 12"),
    # systems that solve for no highest derivative, or for one twice
    (["classify", "--system", "y''=0=1"],
     "error: equation \"y''=0=1\" has more than one '='"),
    (["classify", "--system", " ; ; "], "error: empty system"),
    (["classify", "--system", "y''*q(y'')=0"],
     "error: equation \"y''*q(y'')=0\" is not polynomial in the highest "
     "derivatives"),
    (["classify", "--system", "y''+w''=0; w''=0"],
     "error: equation \"y''+w''=0\" contains more than one highest "
     "derivative"),
    (["classify", "--system", "y''=w; w'=0"],
     "error: equation \"w'=0\" contains no highest derivative"),
    (["classify", "--system", "y''=w'; y''=0"],
     "error: two equations solve for the same variable 'y'"),
    # generators and ansatz components that are not point fields
    (["verify", "--system", "y''=0", "--generator", "y*dx+"],
     "error: cannot parse vector field 'y*dx+': unexpected token '' "
     "(at position 5)"),
    (["verify", "--system", "y''=0", "--generator", "y/dx"],
     "error: coordinate markers may not appear in denominators or inside "
     "functions"),
    (["verify", "--system", "y''=0", "--generator", "y'*dx"],
     "error: point vector field components may depend only on x and "
     "zeroth-order jet variables"),
    (["determining", "--system", "y''=0", "--ansatz", "xi"],
     "error: ansatz component 'xi' needs name=expression"),
    (["determining", "--system", "y''=0", "--ansatz", "xi=(x"],
     "error: cannot parse ansatz component 'xi=(x': expected ')' "
     "(at position 2)"),
    (["determining", "--system", "y''=0", "--ansatz", "xi=x,zeta=y"],
     "error: unknown ansatz components: zeta"),
    (["determining", "--system", "y''=0", "--ansatz", "xi=f(x),xi=g(x)"],
     "error: repeated ansatz component: xi"),
    (["determining", "--system", "y''=w; w''=0", "--ansatz",
      "xi=x, phi =y, phi= w"],
     "error: repeated ansatz component: phi"),
    # two names of one component: phi1, y and eta all name the first
    (["determining", "--system", "y''=0; w''=0", "--ansatz",
      "xi=x, phi1=y, eta=w"],
     "error: repeated ansatz component: phi1 and eta"),
    (["determining", "--system", "y''=0; w''=0", "--ansatz",
      "xi=x, y=y, phi1=w"],
     "error: repeated ansatz component: y and phi1"),
    # an empty ansatz is refused whatever its spaces; `full` names the
    # full ansatz
    (["determining", "--system", "y''=0", "--ansatz", ""],
     "error: ansatz component '' needs name=expression"),
    (["determining", "--ansatz", " ", "--system", "y''=0"],
     "error: ansatz component '' needs name=expression"),
    (["determining", "--system", "y''=0", "--ansatz", "xi=y'"],
     "error: point vector field components may depend only on x and "
     "zeroth-order jet variables"),
    (["determining", "--system", "y''=0", "--ansatz", "restricted"],
     "error: the restricted ansatz applies to pairs of second-order "
     "equations"),
    # each command takes only the options it reads
    (["classify", "--system", "y''=0", "--seed", "0"],
     "error: unrecognized arguments: --seed 0"),
    (["classify", "--system", "y''=0", "--m", "3"],
     "error: unrecognized arguments: --m 3"),
    (["determining", "--system", "y''=0", "--n", "3"],
     "error: unrecognized arguments: --n 3"),
    (["catalog", "commutators", "--set", "free-fall"],
     "error: unrecognized arguments: --set free-fall"),
    (["verify", "--system", "y''=0", "--generator", "dx", "--m", "4"],
     "error: unrecognized arguments: --m 4"),
    # each catalog key takes only the sizes its family reads
    (["catalog", "free-fall", "--m", "5", "--n", "7"],
     "error: catalog 'free-fall' takes no --m"),
    (["catalog", "eq14", "--m", "4", "--n", "6"],
     "error: catalog 'eq14' takes no --m"),
    (["catalog", "non-cartan", "--n", "6"],
     "error: catalog 'non-cartan' takes no --n"),
    (["commutators", "--set", "free-fall", "--m", "3"],
     "error: catalog 'free-fall' takes no --m"),
    (["catalog", "normal-form-coeffs", "--m", "3"],
     "error: catalog 'normal-form-coeffs' takes no --m"),
]


@pytest.mark.parametrize("args, message", HOSTILE,
                         ids=[" ".join(a)[:60] for a, _ in HOSTILE])
def test_hostile_input_exits_2_with_message(args, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(args)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err.getvalue()
    last = err.getvalue().splitlines()[-1]
    assert last.startswith(message)
    assert err.getvalue() == last + "\n"


def test_system_read_from_a_file(tmp_path):
    """--system names a file when one exists at that path: the request
    prints what the inline request prints."""
    system = "y''+q(x)*y=0; w''+q(x)*w=0"
    path = tmp_path / "system.txt"
    path.write_text(system, encoding="utf-8")
    for command in (["classify"], ["determining"],
                    ["verify", "--catalog", "canonical"]):
        inline = run(command + ["--system", system])
        assert inline[0] == 0
        assert run(command + ["--system", str(path)]) == inline


def test_classify_linear_not_in_class():
    code, out = run(["classify", "--system",
                     "y1''+y1+0*y2=0; y2''+2*y1+y2=0"])
    assert code == 1
    assert "no" in out


@pytest.mark.parametrize("system", ["y''=A(x)*y; w''=O(x)*w",
                                    "y''=A(x+1)*y; w''=O(x+1)*w"])
def test_classify_distinct_functions_not_in_class(system):
    # A and O once shared a sampled test function and read as equal
    code, out = run(["classify", "--system", system])
    assert code == 1
    assert out.endswith("in canonical class: no\n"
                        "  non-isotropic at entry (1,1)\n"
                        "  non-isotropic at entry (2,2)\n")


def test_classify_isotropic():
    code, out = run(["classify", "--system", "y''+q(x)*y=0; w''+q(x)*w=0"])
    assert code == 0
    assert "witnesses (4)" in out


def test_classify_counterexample():
    code, out = run(["classify", "--system", "eq14"])
    assert code == 1
    assert "non-Cartan" in out
    assert "NOT linearizable (not a polynomial in p)" in out


def test_catalog_non_cartan():
    code, out = run(["catalog", "non-cartan", "--m", "2"])
    assert code == 0
    assert out.count("non-Cartan") == 4


def test_catalog_normal_form_coeffs():
    code, out = run(["catalog", "normal-form-coeffs", "--n", "3"])
    assert code == 0
    assert "A_3^2 = 4*q(x)" in out
    assert "A_3^3 = 2*q'(x)" in out


def test_catalog_unknown_key():
    code, _ = run(["catalog", "nonsense"])
    assert code == 2


def test_commutators_free_fall():
    code, out = run(["commutators", "--set", "free-fall"])
    assert code == 0
    assert "[C1, C2] = 0" in out
    assert "abelian: False" in out


def test_commutators_non_cartan_abelian():
    code, out = run(["commutators", "--set", "non-cartan", "--m", "2"])
    assert code == 0
    assert "abelian: True" in out


# ---------------------------------------------------------------------------
# reports


def test_json_byte_stability():
    args = ["classify", "--system", "eq14", "--format", "json"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 1
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "classify"
    assert doc["engine-info"] == {"zero-test-modes": ["symbolic"]}


def test_report_expressions_reparse():
    code, out = run(["verify", "--system", "y''=0",
                     "--catalog", "free-fall", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    ctx = ParseContext(1)
    for entry in doc["inputs"]["system"]:
        assert format_expression(parse(entry, ctx)) == entry
