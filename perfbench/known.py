"""Known answers computed without noncartan: SymPy re-derivations and
hand-written expectations for the outputs that need algebra to check.

`check(key, item, printed)` returns a list of problems with one printed
result.  Printed noncartan expressions are read into SymPy by treating
each opaque call, with its derivative marks and arguments, as one symbol;
that is exact for the polynomial identities checked here.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

import sympy

from workloads import EXPECTED_COEFFS, FREE_FALL_LABELS

_CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)('*)\(([^()]*)\)")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def to_sympy(text: str):
    """A printed noncartan expression as a SymPy expression."""
    def atom(match):
        name, primes, args = match.groups()
        return "F_%s_%d_%s" % (name, len(primes), re.sub(r"\W", "", args))

    body = _CALL.sub(atom, text).replace("^", "**")
    names = {n: sympy.Symbol(n) for n in _IDENT.findall(body)}
    return sympy.sympify(body, locals=names)


def proportional(a, b) -> bool:
    if a == 0 or b == 0:
        return a == 0 and b == 0
    if a.free_symbols != b.free_symbols:
        return False
    ratio = sympy.cancel(a / b)
    return ratio.is_number and ratio != 0


# ---------------------------------------------------------------------------
# Criterion 8: structural equations of the 2x2 determining systems


def _d(name, dx=0, dy=0, dw=0):
    if dx == dy == dw == 0:
        return "%s(x, y, w)" % name
    return "%s_d%d%d%d(x, y, w)" % (name, dx, dy, dw)


def _full_targets():
    d = _d
    return [
        d("xi", 0, 0, 2), d("xi", 0, 1, 1), d("xi", 0, 2, 0),
        d("eta", 0, 0, 2), d("phi", 0, 2, 0),
        "%s - 2*%s" % (d("phi", 0, 0, 2), d("xi", 1, 0, 1)),
        "2*%s - 2*%s" % (d("eta", 0, 1, 1), d("xi", 1, 0, 1)),
        "%s - 2*%s" % (d("eta", 0, 2, 0), d("xi", 1, 1, 0)),
        "-2*%s + 2*%s" % (d("xi", 1, 1, 0), d("phi", 0, 1, 1)),
        "2*{e101} - 2*B(x)*w*{x001} - 2*A(x)*y*{x001}".format(
            e101=d("eta", 1, 0, 1), x001=d("xi", 0, 0, 1)),
        "2*A(x)*w*{x010} - 2*C(x)*y*{x010} + 2*{p110}".format(
            x010=d("xi", 0, 1, 0), p110=d("phi", 1, 1, 0)),
        ("-A(x)*{eta} - B(x)*{phi} - y*{xi}*A'(x) - w*{xi}*B'(x)"
         " - A(x)*w*{e001} + C(x)*y*{e001} + B(x)*w*{e010} + A(x)*y*{e010}"
         " - 2*B(x)*w*{x100} - 2*A(x)*y*{x100} + {e200}").format(
            eta=d("eta"), phi=d("phi"), xi=d("xi"), e001=d("eta", 0, 0, 1),
            e010=d("eta", 0, 1, 0), x100=d("xi", 1, 0, 0),
            e200=d("eta", 2, 0, 0)),
        ("3*A(x)*w*{x001} - 3*C(x)*y*{x001} - B(x)*w*{x010}"
         " - A(x)*y*{x010} - {x200} + 2*{p101}").format(
            x001=d("xi", 0, 0, 1), x010=d("xi", 0, 1, 0),
            x200=d("xi", 2, 0, 0), p101=d("phi", 1, 0, 1)),
        ("A(x)*w*{x001} - C(x)*y*{x001} - 3*B(x)*w*{x010}"
         " - 3*A(x)*y*{x010} + 2*{e110} - {x200}").format(
            x001=d("xi", 0, 0, 1), x010=d("xi", 0, 1, 0),
            e110=d("eta", 1, 1, 0), x200=d("xi", 2, 0, 0)),
        ("-C(x)*{eta} + A(x)*{phi} + w*{xi}*A'(x) - y*{xi}*C'(x)"
         " + 2*A(x)*w*{x100} - 2*C(x)*y*{x100} - A(x)*w*{p001}"
         " + C(x)*y*{p001} + B(x)*w*{p010} + A(x)*y*{p010}"
         " + {p200}").format(
            eta=d("eta"), phi=d("phi"), xi=d("xi"), x100=d("xi", 1, 0, 0),
            p001=d("phi", 0, 0, 1), p010=d("phi", 0, 1, 0),
            p200=d("phi", 2, 0, 0)),
    ]


DETERMINING_TARGETS = {
    "full": _full_targets(),
    "restricted": ["-2*C(x)*y*alpha(x) + 2*w*(A(x)*alpha(x) + alpha''(x))"],
}


def _check_determining(ansatz, printed):
    equations = [to_sympy(r["equation"])
                 for r in json.loads(printed)["results"]]
    problems = []
    for target in DETERMINING_TARGETS[ansatz]:
        t = sympy.expand(to_sympy(target))
        if not any(proportional(eq, t) for eq in equations):
            problems.append("no equation proportional to %s" % target)
    return problems


def _check_catalog(n, printed):
    got = [r["coefficient"] for r in json.loads(printed)["results"]]
    want = EXPECTED_COEFFS[n]
    if len(got) != len(want) or any(
            sympy.expand(to_sympy(g) - to_sympy(w)) != 0
            for g, w in zip(got, want)):
        return ["normal-form coefficients %r, expected %r" % (got, want)]
    return []


# ---------------------------------------------------------------------------
# Bracket tables of the catalog bases, re-derived for the trivial source
# (q = 0, u = 1, v = x).  The structure constants of each basis are
# rational constants that do not depend on q, so this specialization gives
# the table the CLI must print for the symbolic source.

X, Y, W = sympy.symbols("x y w")
Y1, Y2 = sympy.symbols("y1 y2")


def _free_fall():
    x, y = X, Y
    return (x, y), FREE_FALL_LABELS, [
        (0, 1), (0, x), (2 * x, y), (1, 0), (x ** 2, x * y), (0, y),
        (y, 0), (x * y, y ** 2)]


def _non_cartan():
    x, ys = X, (Y1, Y2)
    fields, labels = [], []
    for i, yi in enumerate(ys):
        for k, (uk, ukp) in enumerate(((1, 0), (x, 1))):
            labels.append("C%d%d" % (i + 1, k + 1))
            fields.append((yi * uk,) + tuple(yi * yj * ukp for yj in ys))
    return (x,) + ys, labels, fields


def _canonical():
    x, ys = X, (Y1, Y2)
    u, v, up, vp = sympy.Integer(1), x, 0, 1
    fields = []
    for i in range(2):
        for j in range(2):
            fields.append((0,) + tuple(ys[i] if t == j else 0
                                       for t in range(2)))
    for s in (u, v):
        for j in range(2):
            fields.append((0,) + tuple(s if t == j else 0 for t in range(2)))
    fields.append((v ** 2,) + tuple(v * vp * yt for yt in ys))
    fields.append((-u ** 2,) + tuple(-u * up * yt for yt in ys))
    fields.append((2 * u * v,) + tuple((u * vp + up * v) * yt for yt in ys))
    labels = ["G%d" % (i + 1) for i in range(len(fields))]
    return (x,) + ys, labels, fields


BASES = {"free-fall": (_free_fall, 2), "non-cartan": (_non_cartan, 4),
         "canonical": (_canonical, 0)}


def _apply(field, f, coords):
    return sum(c * sympy.diff(f, z) for c, z in zip(field, coords))


def bracket(v, w, coords) -> tuple:
    return tuple(sympy.expand(_apply(v, wk, coords) - _apply(w, vk, coords))
                 for vk, wk in zip(v, w))


def _vector(field, coords, keys):
    out = {}
    for slot, comp in enumerate(field):
        for mon, c in sympy.Poly(sympy.expand(comp), *coords).terms():
            out[(slot, mon)] = c
            keys.add((slot, mon))
    return out


@functools.lru_cache(maxsize=None)
def expected_table(name):
    """(labels, independent, {(i, j): {label: Fraction}}) for a basis."""
    make, _ = BASES[name]
    coords, labels, fields = make()
    fields = [tuple(sympy.sympify(c) for c in f) for f in fields]
    keys = set()
    vecs = [_vector(f, coords, keys) for f in fields]
    brackets = {}
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            brackets[(i, j)] = _vector(bracket(fields[i], fields[j], coords),
                                       coords, keys)
    keys = sorted(keys)
    basis = sympy.Matrix([[vec.get(k, 0) for vec in vecs] for k in keys])
    independent = basis.rank() == len(fields)
    table = {}
    for (i, j), vec in brackets.items():
        rhs = sympy.Matrix([vec.get(k, 0) for k in keys])
        sol, params = basis.gauss_jordan_solve(rhs)
        sol = sol.subs({p: 0 for p in params})
        table[(i, j)] = {labels[k]: Fraction(int(c.p), int(c.q))
                         for k, c in enumerate(sol) if c != 0}
    return labels, independent, table


def _parse_combination(text):
    if text == "0":
        return {}
    out = {}
    for part in text.split(" + "):
        coeff, _, label = part.rpartition("*")
        out[label] = Fraction(coeff) if coeff else Fraction(1)
    return out


def _check_commutators(name, printed):
    labels, independent, table = expected_table(name)
    lines = printed.splitlines()
    flags = dict(line.split(": ", 1) for line in lines[:4])
    problems = []
    abelian = all(not row for row in table.values())
    expected_flags = {"basis": ", ".join(labels),
                      "independent over rationals": str(independent),
                      "abelian": str(abelian),
                      "non-Cartan generators": str(BASES[name][1])}
    if flags != expected_flags:
        problems.append("flags %r, expected %r" % (flags, expected_flags))
    rows = {}
    for line in lines[4:]:
        pair, _, rhs = line.partition(" = ")
        rows[pair] = rhs
    for (i, j), want in table.items():
        pair = "[%s, %s]" % (labels[i], labels[j])
        text = rows.get(pair)
        if text is None or text == "outside rational span" \
                or _parse_combination(text) != want:
            problems.append("%s = %s, expected %r" % (pair, text, want))
    return problems


# ---------------------------------------------------------------------------
# Random brackets, re-derived from the generator's data


def _field_to_sympy(comps, coords):
    return tuple(sum(c * sympy.prod([z ** k for z, k in zip(coords, mon)])
                     for c, mon in terms) for terms in comps)


def _check_bracket(item, printed):
    coords = (X, Y) if item["m"] == 1 else (X, Y, W)
    a, b, c = (_field_to_sympy(f, coords) for f in item["fields"])
    problems = []
    for label, (v, w), line in zip(("[a,b]", "[b,c]", "[c,a]"),
                                   ((a, b), (b, c), (c, a)),
                                   printed.splitlines()):
        got = [to_sympy(t) for t in line.split(" ; ")]
        want = bracket(v, w, coords)
        if len(got) != len(want) or any(sympy.expand(g - h) != 0
                                        for g, h in zip(got, want)):
            problems.append("%s differs from SymPy" % label)
    return problems


def check(key: str, item, printed: str) -> list:
    if key == "bracket":
        return _check_bracket(item, printed)
    kind, _, arg = key.partition("-")
    if kind == "determining":
        return _check_determining(arg, printed)
    if kind == "catalog":
        return _check_catalog(int(arg), printed)
    if kind == "commutators":
        return _check_commutators(arg, printed)
    raise ValueError("unknown check %r" % key)
