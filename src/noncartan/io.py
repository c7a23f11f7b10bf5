"""Text input: systems of ODEs, point vector fields and symmetry ansatze
typed as strings, the named catalog systems that stand in for a typed
system, and the named ansatze (`full`, `restricted`) that stand in for
a typed ansatz."""

from __future__ import annotations

from .expr import (
    CollectError, ParseContext, ParseError, _linear_terms, _tokenize,
    param, parse, substitute, y_index, zero,
)
from .jet import JetContext, VectorField
from .symmetry import (
    OdeSystem, _component_names, full_ansatz, restricted_ansatz,
)
from .catalog import (
    non_cartan_family, nonlinear_counterexample, scalar_context,
)

__all__ = ["InputError", "NAMED_SYSTEMS", "NAMED_ANSATZE", "parse_system",
           "parse_vector_field", "parse_ansatz"]


class InputError(Exception):
    """Input that cannot be read: a parse error, an ill-formed system or
    vector field, or a bad command-line request."""


NAMED_SYSTEMS = {
    "free-fall": lambda: OdeSystem(scalar_context(), (zero(),)),
    "family": non_cartan_family,
    "eq13": non_cartan_family,
    "counterexample": nonlinear_counterexample,
    "eq14": nonlinear_counterexample,
}

NAMED_ANSATZE = {"full": full_ansatz, "restricted": restricted_ansatz}


def _parse_equation(eq: str, pctx: ParseContext):
    """The residual lhs - rhs of `lhs = rhs`, or the expression itself;
    each side is parsed on its own, and error positions count from the
    start of the equation."""
    sides = eq.split("=")
    if len(sides) > 2:
        raise InputError("equation %r has more than one '='" % eq)
    try:
        e = parse(sides[0], pctx)
        if len(sides) == 2:
            e = e - parse(" " * (len(sides[0]) + 1) + sides[1], pctx)
    except ParseError as exc:
        raise InputError("cannot parse %r: %s" % (eq, exc))
    return e


def parse_system(text: str) -> OdeSystem:
    """Parse a semicolon-separated system of ODEs in solved or
    homogeneous form, or look up a named catalog system.  The dependent
    variables are the primed identifiers that are not function heads,
    in order of first appearance; when all of them read y<k> with
    k >= 1, they are y1..ym for the largest k."""
    text = text.strip()
    if text in NAMED_SYSTEMS:
        return NAMED_SYSTEMS[text]()
    equations = [part.strip() for part in text.split(";") if part.strip()]
    if not equations:
        raise InputError("empty system")
    orders = {}
    for eq in equations:
        try:       # '=' read as ',' keeps each token and its position
            tokens = _tokenize(eq.replace("=", ","))
        except ParseError as exc:
            raise InputError("cannot parse %r: %s" % (eq, exc))
        for tok, nxt in zip(tokens, tokens[1:]):
            if (tok[0] == "ident" and tok[3] and tok[1] != "x"
                    and nxt[:2] != ("op", "(")):
                orders[tok[1]] = max(orders.get(tok[1], 0), tok[3])
    names = tuple(orders)
    ks = [y_index(n) for n in names]
    m = max(ks) if ks and all(ks) else len(names)   # all y<k>, k >= 1
    # y1..ym, unless there are more of them than equations and names
    if ks and all(ks) and m <= max(len(equations), len(names)):
        names = tuple("y%d" % k for k in range(1, m + 1))
    pctx = ParseContext(len(names), dep_names=names)
    residuals = [_parse_equation(eq, pctx) for eq in equations]
    if not names:
        raise InputError("no differentiated variable found in the system")
    if len(equations) != m:
        shown = ", ".join(names) if m == len(names) else "y1..y%d" % m
        raise InputError("expected %d equations for variables %s, got %d"
                         % (m, shown, len(equations)))
    ctx = JetContext(m, max(orders.values()), dep_names=names)
    top = [ctx.jet(j, ctx.order) for j in range(1, m + 1)]
    solved = [None] * m
    for eq, residual in zip(equations, residuals):
        try:
            terms = _linear_terms(residual, top)
        except CollectError:
            raise InputError("equation %r is not polynomial in the highest "
                             "derivatives" % eq)
        if terms is None:
            raise InputError("equation %r is nonlinear in the highest "
                             "derivatives" % eq)
        coeffs, rest = terms
        if len(coeffs) != 1:
            raise InputError("equation %r contains %s highest derivative"
                             % (eq, "more than one" if coeffs else "no"))
        (s, coeff), = coeffs.items()
        if solved[s.index - 1] is not None:
            raise InputError("two equations solve for the same variable %r"
                             % names[s.index - 1])
        solved[s.index - 1] = -rest / coeff
    if any(r is None for r in solved):
        raise InputError("system does not determine every variable")
    return OdeSystem(ctx, tuple(solved))


def parse_vector_field(text: str, ctx: JetContext) -> VectorField:
    """Parse `expr*dx + expr*dy + ...` where the markers are d followed
    by a coordinate name."""
    markers = [param("d" + ctx.indep_name)]
    markers += [param("d" + name) for name in ctx.dep_names]
    pctx = ParseContext(ctx.m, dep_names=ctx.dep_names,
                        indep_name=ctx.indep_name)
    try:
        e = parse(text, pctx)
    except ParseError as exc:
        raise InputError("cannot parse vector field %r: %s" % (text, exc))
    try:
        terms = _linear_terms(e, markers)
    except CollectError:
        raise InputError("coordinate markers may not appear in denominators "
                         "or inside functions")
    rest = (terms[1] if terms is not None
            else substitute(e, dict.fromkeys(markers, zero())))
    if not rest.is_rational_zero():
        raise InputError("vector field %r has a term without a coordinate "
                         "marker" % text)
    if terms is None:
        raise InputError("vector field %r mixes coordinate markers" % text)
    comps = {s.name: c for s, c in terms[0].items()}
    xi = comps.pop("d" + ctx.indep_name, zero())
    phi = tuple(comps.pop("d" + name, zero()) for name in ctx.dep_names)
    if comps:
        raise InputError("unknown coordinate markers: %s"
                         % ", ".join(sorted(comps)))
    try:
        return VectorField(xi, phi, ctx)
    except ValueError as exc:
        raise InputError(str(exc))


def _split_top_level(text: str):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def parse_ansatz(spec: str, ctx: JetContext) -> VectorField:
    """Parse an ansatz `name=expr, ...`, or build a named ansatz in ctx:
    `xi` is the d/dx component, and the component of the j-th dependent
    variable is `phi<j>`, the variable's own name (m > 1) or its name in
    the full ansatz, in that order of precedence.  InputError names an
    unknown component or one given twice, under one name or two."""
    build = NAMED_ANSATZE.get(spec.strip())
    if build is not None:
        try:
            return build(ctx)
        except ValueError as exc:
            raise InputError(str(exc))
    pctx = ParseContext(ctx.m, dep_names=ctx.dep_names,
                        indep_name=ctx.indep_name)
    owner = {"xi": 0}      # each name -> the index of its component
    for names in (["phi%d" % j for j in range(1, ctx.m + 1)],
                  ctx.dep_names if ctx.m > 1 else (), _component_names(ctx.m)):
        for j, name in enumerate(names, start=1):
            owner.setdefault(name, j)
    comps, given = {}, {}
    for part in _split_top_level(spec):
        if "=" not in part:
            raise InputError("ansatz component %r needs name=expression"
                             % part)
        name, _, body = part.partition("=")
        name = name.strip()
        key = owner.get(name, name)
        if key in given:
            raise InputError("repeated ansatz component: %s" % " and ".join(
                dict.fromkeys((given[key], name))))
        given[key] = name
        try:
            comps[key] = parse(body, pctx)
        except ParseError as exc:
            raise InputError("cannot parse ansatz component %r: %s"
                             % (part, exc))
    xi, *phi = (comps.pop(j, zero()) for j in range(ctx.m + 1))
    if comps:
        raise InputError("unknown ansatz components: %s"
                         % ", ".join(sorted(comps)))
    try:
        return VectorField(xi, tuple(phi), ctx)
    except ValueError as exc:
        raise InputError(str(exc))
