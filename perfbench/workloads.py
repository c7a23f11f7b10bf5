"""The three workloads: seeded input generators, the timed item, the printed
result, and the known-answer checks.

Inputs are generated in blocks.  Block b of a workload is a pure function
of (workload, seed, b), so the same seed gives the same inputs in every
run, and a run always measures whole blocks, which keeps the mix of item
kinds identical from run to run.  Generators produce plain Python data;
`build` turns that data into noncartan objects outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# oracle-2x2: trace-free normal forms y'' = A y + B w, w'' = C y - A w

# Degrees of (A, B, C) in one block, -1 meaning the zero polynomial.  Two of
# the nine triples are all zero, so 2/9 of the items admit non-Cartan
# symmetries.  The shapes cost increasingly more, so the median item is the
# fifth shape, and the slowest shape comes twice, so the tail latency (ten
# items above it) falls inside one shape rather than between two.
ORACLE_SHAPES = [(-1, -1, -1), (-1, -1, -1), (0, -1, -1), (-1, 1, -1),
                 (-1, -1, 2), (1, 0, 0), (0, 1, 1), (2, 1, 0), (2, 1, 0)]
# Smallest cap at which the brute-force ansatz contains every witness of
# the trivial system: the generator y*x d/dx + y^2 d/dy needs alpha = x.
DEGREE_CAP = 1
_NONZERO = (-3, -2, -1, 1, 2, 3)


def oracle_block(seed: int, block: int) -> list:
    rng = random.Random("oracle-2x2:%d:%d" % (seed, block))
    shapes = list(ORACLE_SHAPES)
    rng.shuffle(shapes)
    items = []
    for i, shape in enumerate(shapes):
        polys = tuple(tuple(rng.choice(_NONZERO) for _ in range(deg + 1))
                      for deg in shape)
        items.append({"id": "%d.%d" % (block, i), "kind": "oracle",
                      "polys": polys,
                      "truth": not any(polys)})
    return items


def _int_poly(lib, coeffs):
    x = lib.expr.sym(lib.expr.indep("x"))
    out = lib.expr.zero()
    for k, c in enumerate(coeffs):
        out = out + c * x ** k
    return out


def oracle_build(lib, item):
    return tuple(_int_poly(lib, p) for p in item["polys"])


def oracle_run(lib, inputs):
    a, b, c = inputs
    verdict = lib.classify.non_cartan_existence_2x2(a, b, c)
    found = lib.classify.brute_force_non_cartan_search(
        a, b, c, degree_cap=DEGREE_CAP)
    return verdict, found


def oracle_print(lib, item, result) -> str:
    verdict, found = result
    fmt = lib.expr.format_expression
    lines = ["non-cartan: %s" % verdict.in_canonical_class,
             "brute-force: %s" % found]
    lines += ["reason: %s" % r for r in verdict.reason]
    for w in verdict.witnesses or ():
        lines.append("witness: " + " ; ".join(fmt(c) for c in w.components()))
    return "\n".join(lines)


def oracle_check(item, result) -> list:
    verdict, found = result
    truth = item["truth"]
    problems = []
    if verdict.in_canonical_class != truth:
        problems.append("decision says %s, generator says %s"
                        % (verdict.in_canonical_class, truth))
    if found != truth:
        problems.append("brute-force search says %s, generator says %s"
                        % (found, truth))
    if truth and len(verdict.witnesses or ()) != 4:
        problems.append("expected 4 witnesses")
    expected = tuple("%s is nonzero" % name
                     for name, p in zip("ABC", item["polys"]) if p)
    if verdict.reason != expected and not truth:
        problems.append("reasons %r, expected %r" % (verdict.reason, expected))
    return problems


# ---------------------------------------------------------------------------
# brackets: antisymmetry and Jacobi identity of random polynomial fields

BRACKETS_BLOCK = 64
BRACKETS_SYMPY_PER_BLOCK = 2
# A quarter of the items act on one dependent variable and the rest on two;
# with equal shares the median latency would fall in the gap between the
# two groups and jump between them from run to run.
BRACKETS_M = [1] * (BRACKETS_BLOCK // 4) + [2] * (3 * BRACKETS_BLOCK // 4)


def _monomials(nvars: int, degree: int) -> list:
    out = [()]
    for _ in range(nvars):
        out = [m + (k,) for m in out for k in range(degree + 1)]
    return sorted(m for m in out if sum(m) <= degree)


def _random_field(rng, m: int) -> tuple:
    """Components with one constant, one linear and one quadratic term in
    the point coordinates, each with a random nonzero coefficient."""
    by_degree = [[mon for mon in _monomials(m + 1, 2) if sum(mon) == d]
                 for d in range(3)]
    return tuple(tuple((rng.choice(_NONZERO), rng.choice(mons))
                       for mons in by_degree)
                 for _ in range(m + 1))


def brackets_block(seed: int, block: int) -> list:
    rng = random.Random("brackets:%d:%d" % (seed, block))
    ms = list(BRACKETS_M)
    rng.shuffle(ms)
    sampled = set(rng.sample(range(BRACKETS_BLOCK), BRACKETS_SYMPY_PER_BLOCK))
    return [{"id": "%d.%d" % (block, i), "kind": "bracket-m%d" % m, "m": m,
             "fields": tuple(_random_field(rng, m) for _ in range(3)),
             "sympy": i in sampled}
            for i, m in enumerate(ms)]


def bracket_context(lib, m: int):
    names = ("y",) if m == 1 else ("y", "w")
    return lib.jet.JetContext(m, 2, dep_names=names)


def brackets_build(lib, item):
    ctx = bracket_context(lib, item["m"])
    coords = [lib.expr.sym(s) for s in ctx.point_symbols()]
    fields = []
    for comps in item["fields"]:
        exprs = []
        for terms in comps:
            e = lib.expr.zero()
            for c, mon in terms:
                piece = lib.expr.const(c)
                for coord, k in zip(coords, mon):
                    if k:
                        piece = piece * coord ** k
                e = e + piece
            exprs.append(e)
        fields.append(lib.jet.VectorField(exprs[0], tuple(exprs[1:]), ctx))
    return tuple(fields)


def brackets_run(lib, fields):
    a, b, c = fields
    commutator = lib.symmetry.commutator
    ab, bc, ca = commutator(a, b), commutator(b, c), commutator(c, a)
    antisymmetry = ab + commutator(b, a)
    jacobi = commutator(ab, c) + commutator(bc, a) + commutator(ca, b)
    return ab, bc, ca, antisymmetry, jacobi


def brackets_print(lib, item, result) -> str:
    fmt = lib.expr.format_expression
    return "\n".join(" ; ".join(fmt(comp) for comp in v.components())
                     for v in result[:3])


def brackets_check(item, result) -> list:
    problems = []
    for label, v in (("[a,b] + [b,a]", result[3]),
                     ("Jacobi sum", result[4])):
        if not all(comp.is_rational_zero() for comp in v.components()):
            problems.append("%s is not exactly zero" % label)
    return problems


# ---------------------------------------------------------------------------
# source-rules: CLI requests and library calls over opaque coefficients

DETERMINING_SYSTEM = "y''=A(x)*y+B(x)*w; w''=C(x)*y-A(x)*w"

# One block: 21 requests in a seeded order.  The counts place nine cheap
# requests below the three determining/library requests of similar cost,
# and nine dearer ones above them, so the median falls inside that group;
# the two dearest kinds come twice, so the tail falls inside them.
SOURCE_KINDS = [
    ("classify-noniso", 2), ("classify-noniso", 2), ("classify-noniso", 3),
    ("classify-noniso", 3), ("verify", "free-fall"), ("verify", "free-fall"),
    ("commutators", "free-fall"), ("commutators", "non-cartan"),
    ("catalog", 3),
    ("determining", "full"), ("determining", "restricted"),
    ("library", "isotropic"),
    ("classify-iso", 2), ("classify-iso", 2), ("classify-iso", 2),
    ("library", "defect"), ("commutators", "canonical"),
    ("classify-iso", 3), ("classify-iso", 3), ("catalog", 4), ("catalog", 4),
]

# classify_linear_system(diag(q, q + q'), source rules) answers "in class"
# with no reasons: the numeric zero test instantiates q, u and v by name.
# The item counts as failed, in `failed` and `ok_ratio`; `correct` stays
# true when this is an item's only problem, so that any other wrong answer,
# on this item too, still shows.
KNOWN_DEFECT = ("known defect: diag(q, q + q') answered in the canonical "
                "class with no reasons")

EXPECTED_COEFFS = {3: ["4*q(x)", "2*q'(x)"],
                   4: ["10*q(x)", "10*q'(x)", "9*q(x)^2 + 3*q''(x)"]}
EXPECTED_UNKNOWNS = {"full": ["xi", "eta", "phi"],
                     "restricted": ["alpha", "beta", "gamma", "b1", "b2",
                                    "s1", "s2"]}
FREE_FALL_LABELS = ["S1", "S2", "Fz", "Fm", "Fp", "H", "C1", "C2"]


def _classify_iso(rng, m):
    f = rng.choice("qkgh")
    coeff = "(%d*%s(x)+%d)" % (rng.randint(2, 9), f, rng.randint(1, 9))
    eqs = ["y%d''+%s*y%d=0" % (i, coeff, i) for i in range(1, m + 1)]
    return {"argv": ["classify", "--system", "; ".join(eqs)],
            "code": 0, "witnesses": 2 * m}


def _classify_noniso(rng, m):
    mat = [[rng.randint(2, 9) for _ in range(m)] for _ in range(m)]
    eqs = ["y%d''+%s=0" % (i + 1, "+".join("%d*y%d" % (mat[i][j], j + 1)
                                           for j in range(m)))
           for i in range(m)]
    mean = Fraction(sum(mat[i][i] for i in range(m)), m)
    reasons = ["non-isotropic at entry (%d,%d)" % (i + 1, j + 1)
               for i in range(m) for j in range(m)
               if mat[i][j] - (mean if i == j else 0) != 0]
    return {"argv": ["classify", "--system", "; ".join(eqs)],
            "code": 1, "reasons": reasons}


def source_block(seed: int, block: int) -> list:
    rng = random.Random("source-rules:%d:%d" % (seed, block))
    kinds = list(SOURCE_KINDS)
    rng.shuffle(kinds)
    items = []
    for i, (kind, arg) in enumerate(kinds):
        item = {"id": "%d.%d" % (block, i), "kind": "%s-%s" % (kind, arg)}
        if kind == "classify-iso":
            item.update(_classify_iso(rng, arg))
        elif kind == "classify-noniso":
            item.update(_classify_noniso(rng, arg))
        elif kind == "determining":
            item["argv"] = ["determining", "--system", DETERMINING_SYSTEM,
                            "--ansatz", arg]
        elif kind == "catalog":
            item["argv"] = ["catalog", "normal-form-coeffs", "--n", str(arg)]
        elif kind == "commutators":
            # text format: the JSON report omits the independence and
            # abelian flags that are checked
            item["argv"] = ["commutators", "--set", arg]
        elif kind == "verify":
            item["argv"] = ["verify", "--system", "y''=0", "--catalog", arg]
        else:
            item["library"] = arg
        if "argv" in item and kind != "commutators":
            item["argv"] = item["argv"] + ["--format", "json"]
        items.append(item)
    return items


def source_build(lib, item):
    if "argv" in item:
        return item["argv"]
    e = lib.expr
    x = e.indep("x")
    src = lib.catalog.SourceEquation.symbolic()
    q = e.call(e.func("q"), e.sym(x))
    second = q if item["library"] == "isotropic" else q + e.differentiate(q, x)
    z = e.zero()
    spec = lib.classify.LinearSystemSpec(2, 2, (((z, z), (z, z)),
                                                ((q, z), (z, second))))
    return spec, src.rules


def source_run(lib, inputs):
    if isinstance(inputs, list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(inputs)
        return code, buf.getvalue()
    spec, rules = inputs
    return lib.classify.classify_linear_system(spec, rules)


def source_print(lib, item, result) -> str:
    if "argv" in item:
        return result[1]
    fmt = lib.expr.format_expression
    lines = ["in-canonical-class: %s" % result.in_canonical_class]
    lines += ["reason: %s" % r for r in result.reason]
    for w in result.witnesses or ():
        lines.append("witness: " + " ; ".join(fmt(c) for c in w.components()))
    return "\n".join(lines)


def source_check(item, result) -> list:
    """Checks that need no SymPy; the rest are deferred (`source_deferred`)."""
    kind = item["kind"]
    if kind.startswith("library"):
        if kind == "library-isotropic":
            if not result.in_canonical_class or len(result.witnesses) != 4:
                return ["diag(q, q) should be in the class with 4 witnesses"]
            return []
        expected = ("non-isotropic at entry (1,1)",
                    "non-isotropic at entry (2,2)")
        if result.in_canonical_class and not result.reason:
            return [KNOWN_DEFECT]
        if result.in_canonical_class or result.reason != expected:
            return ["diag(q, q + q') should be outside the class with "
                    "reasons %r; got in-class=%s reasons=%r"
                    % (expected, result.in_canonical_class, result.reason)]
        return []
    code, text = result
    if kind.startswith("commutators"):
        return [] if code == 0 else ["exit code %d" % code]
    try:
        report = json.loads(text)
    except ValueError:
        return ["output is not JSON (exit code %d)" % code]
    results = report.get("results", [])
    if kind.startswith("classify"):
        if code != item["code"]:
            return ["exit code %d, expected %d" % (code, item["code"])]
        res = results[0]
        if kind.startswith("classify-iso"):
            if not res["in-canonical-class"] or res["reason"] \
                    or len(res["witnesses"]) != item["witnesses"]:
                return ["expected the canonical class with %d witnesses"
                        % item["witnesses"]]
        elif res["in-canonical-class"] or res["reason"] != item["reasons"] \
                or res["witnesses"]:
            return ["expected reasons %r, got %r"
                    % (item["reasons"], res["reason"])]
        return []
    if code != 0:
        return ["exit code %d" % code]
    if kind.startswith("determining"):
        ansatz = kind.split("-", 1)[1]
        if report["inputs"]["unknowns"] != EXPECTED_UNKNOWNS[ansatz]:
            return ["unknowns %r" % report["inputs"]["unknowns"]]
        return []
    if kind.startswith("verify"):
        labels = [r["label"] for r in results]
        flagged = [r["label"] for r in results if r["non-cartan"]]
        ok = (labels == FREE_FALL_LABELS and flagged == ["C1", "C2"]
              and all(r["pass"] and set(r["residual-status"])
                      == {"symbolic-zero"} for r in results))
        return [] if ok else ["free-fall verification report differs"]
    return []


def source_deferred(item):
    """Key of the SymPy check an item's printed output needs, or None."""
    kind = item["kind"]
    if kind.startswith(("determining", "catalog", "commutators")):
        return kind
    return None


class Workload:
    def __init__(self, name, block, build, run, print_, check,
                 deferred=None):
        self.name = name
        self.block = block
        self.build = build
        self.run = run
        self.print = print_
        self.check = check
        self.deferred = deferred or (lambda item: None)


WORKLOADS = {
    "oracle-2x2": Workload("oracle-2x2", oracle_block, oracle_build,
                           oracle_run, oracle_print, oracle_check),
    "brackets": Workload("brackets", brackets_block, brackets_build,
                         brackets_run, brackets_print, brackets_check,
                         lambda item: "bracket" if item["sympy"] else None),
    "source-rules": Workload("source-rules", source_block, source_build,
                             source_run, source_print, source_check,
                             source_deferred),
}
