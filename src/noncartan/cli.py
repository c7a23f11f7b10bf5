"""Command-line surface: parse systems and vector fields from inline
strings or files, run verification, determining-system, classification,
and catalog commands, and emit deterministic text or JSON reports."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .expr import (
    CollectError, Expression, OpaqueArgumentError, ParseContext, ParseError,
    ZeroStatus, collect, format_expression, format_monomial, param, parse,
    zero, zero_status,
)
from .jet import JetContext, VectorField
from .symmetry import (
    OdeSystem, algebra_report, determining_equations, invariance_residual,
    is_non_cartan,
)
from .catalog import (
    SourceEquation, canonical_basis, free_fall_symmetries,
    non_cartan_family, non_cartan_generators, nonlinear_counterexample,
    normal_form_coeffs, scalar_context, scalar_non_cartan,
)
from . import classify as _classify

__all__ = ["main", "parse_system", "parse_vector_field",
           "format_vector_field", "CliError"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or parse error; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Input parsing


def _read_source(value: str) -> str:
    if value is not None and os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


_SYSTEM_KEYS = {
    "free-fall": lambda: OdeSystem(scalar_context(), (zero(),)),
    "family": non_cartan_family,
    "eq13": non_cartan_family,
    "counterexample": nonlinear_counterexample,
    "eq14": nonlinear_counterexample,
}


def _scan_dependents(equations):
    """Infer the dependent-variable names and the system order from the
    raw equation strings."""
    from .expr import _tokenize
    primed = []
    orders = {}
    for text in equations:
        # each side on its own, so that `y''=(x+1)*y` does not read as a
        # call of y''; every side's list ends in an "end" token, and the
        # padding keeps error positions relative to the whole equation
        tokens = []
        start = 0
        for side in text.split("="):
            try:
                tokens += _tokenize(" " * start + side)
            except ParseError as exc:
                raise CliError("cannot read equation %r: %s" % (text, exc))
            start += len(side) + 1
        for i, tok in enumerate(tokens):
            if tok[0] != "ident":
                continue
            name, primes = tok[1], tok[3]
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt[:2] == ("op", "("):
                continue            # opaque function application
            if name == "x":
                continue
            if primes > 0:
                if name not in primed:
                    primed.append(name)
                orders[name] = max(orders.get(name, 0), primes)
    if not primed:
        raise CliError("no differentiated variable found in the system")
    if all(n[0] == "y" and n[1:].isdigit() for n in primed):
        m = max(int(n[1:]) for n in primed)
        names = tuple("y%d" % i for i in range(1, m + 1))
    else:
        names = tuple(primed)
    order = max(orders.values())
    if order < 1:
        raise CliError("system must contain derivatives")
    return names, order


def parse_system(text: str) -> OdeSystem:
    """Parse a semicolon-separated system of ODEs in solved or
    homogeneous form, or look up a named catalog system."""
    text = text.strip()
    if text in _SYSTEM_KEYS:
        return _SYSTEM_KEYS[text]()
    equations = [part.strip() for part in text.split(";") if part.strip()]
    if not equations:
        raise CliError("empty system")
    names, order = _scan_dependents(equations)
    m = len(names)
    if len(equations) != m:
        raise CliError("expected %d equations for variables %s, got %d"
                       % (m, ", ".join(names), len(equations)))
    ctx = JetContext(m, order, dep_names=names)
    pctx = ParseContext(m, dep_names=names)
    residuals = []
    for eq in equations:
        sides = eq.split("=")
        if len(sides) == 1:
            try:
                residuals.append(parse(sides[0], pctx))
            except ParseError as exc:
                raise CliError("cannot parse %r: %s" % (eq, exc))
        elif len(sides) == 2:
            try:
                lhs = parse(sides[0], pctx)
                rhs = parse(sides[1], pctx)
            except ParseError as exc:
                raise CliError("cannot parse %r: %s" % (eq, exc))
            residuals.append(lhs - rhs)
        else:
            raise CliError("equation %r has more than one '='" % eq)
    top = [ctx.jet(j, order) for j in range(1, m + 1)]
    solved = [None] * m
    for eq_text, res in zip(equations, residuals):
        try:
            groups = collect(res, top)
        except CollectError:
            raise CliError("equation %r is not polynomial in the "
                           "highest derivatives" % eq_text)
        found = None
        rest = zero()
        for mon, coeff in groups.items():
            if not mon:
                rest = rest + coeff
                continue
            if len(mon) != 1 or mon[0][1] != 1:
                raise CliError("equation %r is nonlinear in the highest "
                               "derivatives" % eq_text)
            if found is not None:
                raise CliError("equation %r contains more than one highest "
                               "derivative" % eq_text)
            found = (mon[0][0], coeff)
        if found is None:
            raise CliError("equation %r contains no highest derivative"
                           % eq_text)
        s, coeff = found
        j = s.index
        if solved[j - 1] is not None:
            raise CliError("two equations solve for the same variable %r"
                           % ctx.dep_names[j - 1])
        solved[j - 1] = -rest / coeff
    if any(r is None for r in solved):
        raise CliError("system does not determine every variable")
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
        raise CliError("cannot parse vector field %r: %s" % (text, exc))
    try:
        groups = collect(e, markers)
    except CollectError:
        raise CliError("coordinate markers may not appear in denominators "
                       "or inside functions")
    comps = {}
    for mon, coeff in groups.items():
        if not mon:
            if not coeff.is_rational_zero():
                raise CliError("vector field %r has a term without a "
                               "coordinate marker" % text)
            continue
        if len(mon) != 1 or mon[0][1] != 1:
            raise CliError("vector field %r mixes coordinate markers" % text)
        comps[mon[0][0].name] = coeff
    xi = comps.pop("d" + ctx.indep_name, zero())
    phi = tuple(comps.pop("d" + name, zero()) for name in ctx.dep_names)
    if comps:
        raise CliError("unknown coordinate markers: %s"
                       % ", ".join(sorted(comps)))
    try:
        return VectorField(xi, phi, ctx)
    except ValueError as exc:
        raise CliError(str(exc))


def format_vector_field(v: VectorField) -> str:
    parts = []
    names = [v.context.indep_name] + list(v.context.dep_names)
    for comp, name in zip(v.components(), names):
        if comp.is_rational_zero():
            continue
        text = format_expression(comp)
        if any(op in text for op in "+-*/ "):
            text = "(%s)" % text
        parts.append("%s*d%s" % (text, name))
    return " + ".join(parts) if parts else "0"


def _generator_set(key: str, ctx: JetContext, m: int = None, n: int = None):
    """Named families of vector fields, built in the given context, which
    must have the family's number m of dependent variables, or else in a
    fresh context of the requested shape."""
    if key not in ("free-fall", "non-cartan", "canonical"):
        raise CliError("unknown catalog key %r" % key)
    if ctx is not None:
        want = 1 if key == "free-fall" else m
        if want is not None and want != ctx.m:
            raise CliError("catalog %r has m = %d, the system has m = %d"
                           % (key, want, ctx.m))
        if key == "canonical" and n is None and ctx.order < 2:
            raise CliError("catalog 'canonical' needs order 2 or more; "
                           "the system has order %d" % ctx.order)
    if key == "free-fall":
        return ["S1", "S2", "Fz", "Fm", "Fp", "H", "C1", "C2"], \
            free_fall_symmetries(ctx if ctx is not None else scalar_context())
    mm = m if m is not None else (ctx.m if ctx is not None else 2)
    src = SourceEquation.symbolic()
    if key == "non-cartan":
        cc = ctx if ctx is not None else JetContext(mm, 2)
        labels = ["C%d%d" % (i, k) for i in range(1, mm + 1) for k in (1, 2)]
        return labels, list(non_cartan_generators(mm, src, cc))
    nn = n if n is not None else (ctx.order if ctx is not None else 2)
    cc = ctx if ctx is not None else JetContext(mm, nn)
    fields = canonical_basis(mm, nn, src, cc)
    return ["G%d" % (i + 1) for i in range(len(fields))], list(fields)


# ---------------------------------------------------------------------------
# Reports


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.write("\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(args) -> int:
    system = parse_system(_read_source(args.system))
    ctx = system.ctx
    labels = []
    fields = []
    if args.catalog:
        labels, fields = _generator_set(args.catalog, ctx, args.m, args.n)
    if args.generator:
        for i, text in enumerate(args.generator):
            fields.append(parse_vector_field(_read_source(text), ctx))
            labels.append("v%d" % (i + 1))
    if not fields:
        raise CliError("no generators given; use --generator or --catalog")
    results = []
    lines = []
    all_pass = True
    for label, v in zip(labels, fields):
        residuals = invariance_residual(v, system)
        statuses = [zero_status(r, system.rules, args.seed)
                    for r in residuals]
        ok = all(st is not ZeroStatus.NONZERO for st in statuses)
        all_pass = all_pass and ok
        results.append({
            "generator": format_vector_field(v),
            "label": label,
            "non-cartan": is_non_cartan(v),
            "residual-status": [st.value for st in statuses],
            "pass": ok,
        })
        lines.append("%-4s %s  %s%s" % (
            label, "PASS" if ok else "FAIL",
            format_vector_field(v),
            "  [non-Cartan]" if is_non_cartan(v) else ""))
    npass = sum(1 for r in results if r["pass"])
    lines.append("%d/%d pass" % (npass, len(results)))
    report = {
        "command": "verify",
        "inputs": {
            "system": [format_expression(r) for r in system.rhs],
            "order": system.ctx.order,
            "variables": list(system.ctx.dep_names),
        },
        "results": results,
        "engine-info": _engine_info(args, results),
    }
    _emit(report, args.format, lines)
    return EXIT_OK if all_pass else EXIT_FAIL


def _engine_info(args, results) -> dict:
    modes = set()
    for r in results:
        for st in r.get("residual-status", []):
            modes.add("numeric" if st == "numeric-zero" else "symbolic")
    return {"seed": args.seed,
            "zero-test-modes": sorted(modes) if modes else ["symbolic"]}


def _split_top_level(text: str):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _custom_ansatz(spec: str, ctx: JetContext) -> VectorField:
    pctx = ParseContext(ctx.m, dep_names=ctx.dep_names,
                        indep_name=ctx.indep_name)
    comps = {}
    for part in _split_top_level(spec):
        if "=" not in part:
            raise CliError("ansatz component %r needs name=expression" % part)
        name, _, body = part.partition("=")
        try:
            comps[name.strip()] = parse(body, pctx)
        except ParseError as exc:
            raise CliError("cannot parse ansatz component %r: %s"
                           % (part, exc))
    xi = comps.pop("xi", zero())
    phi = []
    names = _classify._component_names(ctx.m)
    # component j is phi<j>, its variable's name (m > 1) or its name in
    # the full ansatz
    for j, dname in enumerate(ctx.dep_names, start=1):
        for key in ("phi%d" % j, dname if ctx.m > 1 else None, names[j - 1]):
            if key is not None and key in comps:
                phi.append(comps.pop(key))
                break
        else:
            phi.append(zero())
    if comps:
        raise CliError("unknown ansatz components: %s"
                       % ", ".join(sorted(comps)))
    try:
        return VectorField(xi, tuple(phi), ctx)
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_determining(args) -> int:
    system = parse_system(_read_source(args.system))
    ctx = system.ctx
    spec = (args.ansatz or "full").strip()
    if spec == "full":
        ansatz = _classify._full_ansatz(ctx)
    elif spec == "restricted":
        try:
            ansatz = _classify._restricted_ansatz(ctx)
        except ValueError as exc:
            raise CliError(str(exc))
    else:
        ansatz = _custom_ansatz(_read_source(spec), ctx)
    try:
        ds = determining_equations(system, ansatz)
    except CollectError as exc:
        raise CliError("cannot split the invariance condition into "
                       "determining equations: %s" % exc)
    # print in the order: per equation slice, highest-degree monomials
    # first, so the purely structural constraints lead
    entries = sorted(
        (nu, -sum(k for _a, k in mon), format_monomial(mon), pos)
        for (nu, mon), pos in ds.monomial_index.items())
    printed = []
    seen = set()
    for nu, _neg_degree, mon, pos in entries:
        if pos not in seen:
            seen.add(pos)
            printed.append((nu, mon, pos))
    lines = ["unknowns: %s" % ", ".join(u.name for u in ds.unknowns),
             "%d equations" % len(ds.equations)]
    results = []
    for rank, (nu, mon, pos) in enumerate(printed, start=1):
        eq = format_expression(ds.equations[pos])
        lines.append("E%-3d [slice %d, coeff of %s]  %s = 0"
                     % (rank, nu, mon, eq))
        results.append({"equation": eq, "slice": nu, "monomial": mon})
    report = {
        "command": "determining",
        "inputs": {
            "system": [format_expression(r) for r in system.rhs],
            "ansatz": spec,
            "unknowns": [u.name for u in ds.unknowns],
        },
        "results": results,
        "engine-info": _engine_info(args, []),
    }
    _emit(report, args.format, lines)
    return EXIT_OK


def _linear_normal_form(system: OdeSystem):
    """Extract the coefficient matrix M of y'' = M y when the system is
    linear homogeneous in normal form; None otherwise."""
    ctx = system.ctx
    if ctx.order != 2:
        return None
    deps = [ctx.y(j) for j in range(1, ctx.m + 1)]
    firsts = [ctx.jet(j, 1) for j in range(1, ctx.m + 1)]
    matrix = []
    for f in system.rhs:
        if any(f.contains(s) for s in firsts):
            return None
        try:
            groups = collect(f, deps)
        except CollectError:
            return None
        row = [zero()] * ctx.m
        for mon, coeff in groups.items():
            if not mon:
                if not coeff.is_rational_zero():
                    return None
                continue
            if len(mon) != 1 or mon[0][1] != 1:
                return None
            if any(coeff.contains(s) for s in deps):
                return None
            row[mon[0][0].index - 1] = coeff
        matrix.append(tuple(row))
    return tuple(matrix)


def cmd_classify(args) -> int:
    system = parse_system(_read_source(args.system))
    ctx = system.ctx
    matrix = _linear_normal_form(system)
    if matrix is not None:
        m = ctx.m
        a0 = tuple(tuple(-matrix[i][j] for j in range(m)) for i in range(m))
        zrow = tuple(tuple(zero() for _ in range(m)) for _ in range(m))
        spec = _classify.LinearSystemSpec(m, 2, (zrow, a0), ctx=ctx)
        verdict = _classify.classify_linear_system(spec, seed=args.seed)
        results = [{
            "kind": "linear",
            "in-canonical-class": verdict.in_canonical_class,
            "reason": list(verdict.reason),
            "witnesses": [format_vector_field(w)
                          for w in (verdict.witnesses or ())],
        }]
        lines = ["linear system in normal form"]
        if verdict.in_canonical_class:
            lines.append("in canonical class: yes")
            lines.append("witnesses (%d):" % len(verdict.witnesses))
            for w in verdict.witnesses:
                lines.append("  " + format_vector_field(w))
        else:
            lines.append("in canonical class: no")
            for r in verdict.reason:
                lines.append("  " + r)
        code = EXIT_OK if verdict.in_canonical_class else EXIT_FAIL
    elif ctx.m == 1:
        f = system.rhs[0]
        p = ctx.jet(1, 1)
        try:
            cubic = _classify.cubic_in_p_test(f, p)
            cubic_note = None
        except OpaqueArgumentError as exc:
            cubic = None
            cubic_note = str(exc)
        admitted = []
        labels = ["C1", "C2"]
        for label, v in zip(labels, scalar_non_cartan(SourceEquation.trivial(),
                                                      ctx)):
            residuals = invariance_residual(v, system)
            sts = [zero_status(r, system.rules, args.seed) for r in residuals]
            if all(st is not ZeroStatus.NONZERO for st in sts):
                admitted.append(label)
        degree = _p_degree(f, p)
        results = [{
            "kind": "scalar",
            "cubic-in-p": cubic,
            "cubic-note": cubic_note,
            "p-degree": degree,
            "admits-non-cartan": admitted,
        }]
        lines = []
        if admitted:
            lines.append("admits non-Cartan symmetries %s"
                         % ", ".join(admitted))
        else:
            lines.append("admits no catalog non-Cartan symmetry")
        if cubic is None:
            lines.append("cubic test inapplicable: %s" % cubic_note)
            code = EXIT_FAIL
        elif cubic:
            lines.append("polynomial of degree at most 3 in p: "
                         "necessary linearization condition holds")
            code = EXIT_OK
        else:
            lines.append("NOT linearizable (degree-%d in p)" % degree)
            code = EXIT_FAIL
    else:
        raise CliError("classification needs a linear normal-form system "
                       "or a scalar second-order equation")
    report = {
        "command": "classify",
        "inputs": {
            "system": [format_expression(r) for r in system.rhs],
            "order": ctx.order,
            "variables": list(ctx.dep_names),
        },
        "results": results,
        "engine-info": _engine_info(args, []),
    }
    _emit(report, args.format, lines)
    return code


def _p_degree(f: Expression, p) -> int:
    deg = 0
    for mon, _ in f.num:
        d = sum(k for a, k in mon if a == p)
        deg = max(deg, d)
    return deg


def cmd_catalog(args) -> int:
    key = args.key
    if key == "commutators":
        return cmd_commutators(args)
    inputs = {"key": key}
    lines = []
    results = []
    if key in ("free-fall", "non-cartan", "canonical"):
        labels, fields = _generator_set(key, None, args.m, args.n)
        for label, v in zip(labels, fields):
            text = format_vector_field(v)
            lines.append("%-4s %s%s" % (label, text,
                                        "  [non-Cartan]"
                                        if is_non_cartan(v) else ""))
            results.append({"label": label, "field": text,
                            "non-cartan": is_non_cartan(v)})
    elif key == "normal-form-coeffs":
        n = inputs["n"] = args.n if args.n is not None else 3
        nf = normal_form_coeffs(SourceEquation.symbolic(), n)
        for j in range(2, n + 1):
            text = format_expression(nf.coefficient(j))
            lines.append("A_%d^%d = %s" % (n, j, text))
            results.append({"n": n, "j": j, "coefficient": text})
    elif key in _SYSTEM_KEYS:
        system = _SYSTEM_KEYS[key]()
        for j, f in enumerate(system.rhs, start=1):
            name = system.ctx.dep_names[j - 1]
            lines.append("%s%s = %s" % (name, "'" * system.ctx.order,
                                        format_expression(f)))
        results.append({"system": [format_expression(f) for f in system.rhs]})
    else:
        raise CliError("unknown catalog key %r" % key)
    report = {"command": "catalog", "inputs": inputs, "results": results,
              "engine-info": _engine_info(args, [])}
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_commutators(args) -> int:
    key = getattr(args, "set", None) or "free-fall"
    labels, fields = _generator_set(key, None, args.m, args.n)
    rules = SourceEquation.symbolic().rules if key != "free-fall" else ()
    report_obj = algebra_report(fields, rules)
    lines = ["basis: %s" % ", ".join(labels),
             "independent over rationals: %s" % report_obj.independent,
             "abelian: %s" % report_obj.abelian,
             "non-Cartan generators: %d" % report_obj.non_cartan_count]
    results = []
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            row = report_obj.structure_constants[(i, j)]
            if row is None:
                text = "outside rational span"
            else:
                parts = []
                for k, c in enumerate(row):
                    if c != 0:
                        parts.append(("%s*%s" % (c, labels[k]))
                                     if c != 1 else labels[k])
                text = " + ".join(parts) if parts else "0"
            lines.append("[%s, %s] = %s" % (labels[i], labels[j], text))
            results.append({"pair": [labels[i], labels[j]], "bracket": text})
    report = {"command": "commutators",
              "inputs": {"set": key},
              "results": results,
              "engine-info": _engine_info(args, [])}
    _emit(report, args.format, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Dispatch


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        return value
    convert.__name__ = "int"    # argparse names it in "invalid int value"
    return convert


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="noncartan",
        description="Lie point symmetry toolkit for ODE systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--m", type=_int_at_least(1), default=None)
        p.add_argument("--n", type=_int_at_least(2), default=None)

    pv = sub.add_parser("verify", help="check invariance of generators")
    pv.add_argument("--system", required=True)
    pv.add_argument("--generator", action="append", default=[])
    pv.add_argument("--catalog", default=None)
    common(pv)
    pv.set_defaults(run=cmd_verify)

    pd = sub.add_parser("determining", help="print the determining system")
    pd.add_argument("--system", required=True)
    pd.add_argument("--ansatz", default="full")
    common(pd)
    pd.set_defaults(run=cmd_determining)

    pc = sub.add_parser("classify", help="canonical-class / linearizability")
    pc.add_argument("--system", required=True)
    common(pc)
    pc.set_defaults(run=cmd_classify)

    pk = sub.add_parser("catalog", help="print catalog objects")
    pk.add_argument("key")
    pk.add_argument("--set", default=None)
    common(pk)
    pk.set_defaults(run=cmd_catalog)

    pm = sub.add_parser("commutators", help="bracket table for a basis")
    pm.add_argument("--set", default="free-fall")
    common(pm)
    pm.set_defaults(run=cmd_commutators)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
