"""Command-line surface: read systems, vector fields and ansatze from
inline strings or files (parsed by `noncartan.io`), dispatch the
verification, determining-system, classification, catalog and commutator
commands, and print deterministic text or JSON reports.  Each command
takes only the options it reads and returns its exit code, inputs,
results and text lines; `main` alone builds the report and prints it.
`classify` only formats the verdict of `classify.classify_system`."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .expr import (
    Call, CollectError, UndecidedZeroError, ZeroStatus,
    format_expression, format_monomial, zero_status,
)
from .jet import JetContext, VectorField
from .symmetry import (
    algebra_report, determining_equations, invariance_residual, is_non_cartan,
)
from .catalog import (
    SourceEquation, canonical_basis, free_fall_symmetries,
    non_cartan_generators, normal_form_coeffs,
)
from . import classify as _classify
from .io import (
    NAMED_SYSTEMS, InputError, parse_ansatz, parse_system, parse_vector_field,
)

__all__ = ["main", "format_vector_field"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the largest number of dependent variables each family is built with,
# and the largest order (--n, and the order of a system given --catalog
# canonical), so that no request runs for long: the bracket table has
# one entry per pair of fields, of which the canonical basis has
# m^2 + n m + 3 and the non-Cartan family 2 m, and the normal-form
# recursion, its recheck and the prolongations grow quickly with the order
MAX_M = {"canonical": 6, "non-cartan": 20}
MAX_N = 8

# the report's `engine-info`: every zero test is symbolic
ENGINE_INFO = {"zero-test-modes": ["symbolic"]}


# ---------------------------------------------------------------------------
# Input


def _read_source(value: str) -> str:
    if value is not None and os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


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


def _generator_set(key: str, ctx: JetContext, avoid=()):
    """Named families of vector fields, built in ctx, whose number m of
    dependent variables (and, for the canonical basis, order n) is the
    family's shape.  Returns the labels, the fields and the source
    equation whose solution pair the fields call (None for free-fall);
    the pair is named apart from the function names in `avoid`."""
    if key not in ("free-fall", "non-cartan", "canonical"):
        raise InputError("unknown catalog key %r" % key)
    if key == "free-fall":
        if ctx.m != 1:
            raise InputError("catalog 'free-fall' has m = 1, the system "
                             "has m = %d" % ctx.m)
        return ["S1", "S2", "Fz", "Fm", "Fp", "H", "C1", "C2"], \
            free_fall_symmetries(ctx), None
    if key == "canonical" and ctx.order < 2:
        raise InputError("catalog 'canonical' needs order 2 or more; "
                         "the system has order %d" % ctx.order)
    if key == "canonical" and ctx.order > MAX_N:
        raise InputError("catalog 'canonical' takes order at most %d; "
                         "the system has order %d" % (MAX_N, ctx.order))
    if ctx.m > MAX_M[key]:
        raise InputError("catalog %r takes at most %d dependent variables, "
                         "got %d" % (key, MAX_M[key], ctx.m))
    src = SourceEquation.symbolic(avoid)
    if key == "non-cartan":
        labels = ["C%d%d" % (i, k) for i in range(1, ctx.m + 1)
                  for k in (1, 2)]
        return labels, non_cartan_generators(src, ctx), src
    fields = canonical_basis(src, ctx)
    return ["G%d" % (i + 1) for i in range(len(fields))], fields, src


# the sizes of its family that each catalog key reads: m, the number of
# dependent variables (--m), and n, the order (--n); a named system
# reads neither
SIZES = {"free-fall": "", "non-cartan": "m", "canonical": "mn",
         "normal-form-coeffs": "n"}


def _family_context(key: str, args) -> JetContext:
    """The context that shapes the family of a catalog key: --m
    dependent variables and order --n where the key reads them, by
    default 2 and 2 (3 for the normal-form coefficients), else 1 and 2.
    A size the key does not read is refused."""
    if key not in SIZES and key not in NAMED_SYSTEMS:
        raise InputError("unknown catalog key %r" % key)
    reads = SIZES.get(key, "")
    for name in "mn":
        if getattr(args, name) is not None and name not in reads:
            raise InputError("catalog %r takes no --%s" % (key, name))
    return JetContext(args.m or (2 if "m" in reads else 1),
                      args.n or (3 if key == "normal-form-coeffs" else 2))


def _called_names(exprs) -> set:
    """The names of the functions that the expressions call."""
    return {a.head.name for e in exprs for a in e.atoms()
            if isinstance(a, Call)}


def _system_inputs(system) -> dict:
    """The inputs that `verify` and `classify` report."""
    return {"system": [format_expression(r) for r in system.rhs],
            "order": system.ctx.order,
            "variables": list(system.ctx.dep_names)}


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, inputs, results, text lines)


def cmd_verify(args) -> tuple:
    system = parse_system(_read_source(args.system))
    ctx = system.ctx
    given = [parse_vector_field(_read_source(text), ctx)
             for text in args.generator]
    labels = []
    fields = []
    rules = system.rules
    if args.catalog:
        # the catalog's fields call the solution pair of its source
        # equation, so they are tested under that equation's rules too,
        # with the pair named apart from every function the input calls
        avoid = _called_names(list(system.rhs) + [c for v in given
                                                  for c in v.components()])
        labels, fields, src = _generator_set(args.catalog, ctx, avoid)
        if src is not None:
            rules = rules + src.rules
    fields += given
    labels += ["v%d" % (i + 1) for i in range(len(given))]
    if not fields:
        raise InputError("no generators given; use --generator or --catalog")
    results = []
    lines = []
    all_pass = True
    for label, v in zip(labels, fields):
        residuals = invariance_residual(v, system)
        statuses = [zero_status(r, rules) for r in residuals]
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
    return (EXIT_OK if all_pass else EXIT_FAIL, _system_inputs(system),
            results, lines)


def cmd_determining(args) -> tuple:
    system = parse_system(_read_source(args.system))
    spec = args.ansatz.strip()
    ansatz = parse_ansatz(_read_source(spec), system.ctx)
    try:
        ds = determining_equations(system, ansatz)
    except CollectError as exc:
        raise InputError("cannot split the invariance condition into "
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
    inputs = {"system": [format_expression(r) for r in system.rhs],
              "ansatz": spec,
              "unknowns": [u.name for u in ds.unknowns]}
    return EXIT_OK, inputs, results, lines


def cmd_classify(args) -> tuple:
    system = parse_system(_read_source(args.system))
    verdict = _classify.classify_system(system)
    if verdict.kind == "linear":
        in_class = verdict.in_canonical_class
        result = {"kind": "linear", "in-canonical-class": in_class,
                  "reason": list(verdict.reason),
                  "witnesses": [format_vector_field(w)
                                for w in verdict.witnesses or ()]}
        lines = ["linear system in normal form",
                 "in canonical class: %s" % ("yes" if in_class else "no")]
        if in_class:
            lines.append("witnesses (%d):" % len(verdict.witnesses))
        lines += ["  " + t for t in result["witnesses"] + result["reason"]]
        code = EXIT_OK if in_class else EXIT_FAIL
    else:
        result = {"kind": "scalar", **verdict.facts}
        admitted, cubic = result["admits-non-cartan"], result["cubic-in-p"]
        lines = ["admits non-Cartan symmetries %s" % ", ".join(admitted)
                 if admitted else "admits no catalog non-Cartan symmetry"]
        if cubic is None:
            lines.append("cubic test inapplicable: %s" % result["cubic-note"])
        elif cubic:
            lines.append("polynomial of degree at most 3 in p: "
                         "necessary linearization condition holds")
        else:
            lines.append("NOT linearizable (%s)" % (
                "not a polynomial in p" if result["p-degree"] is None
                else "degree-%d in p" % result["p-degree"]))
        code = EXIT_OK if cubic else EXIT_FAIL
    return code, _system_inputs(system), [result], lines


def cmd_catalog(args) -> tuple:
    key = args.key
    ctx = _family_context(key, args)
    inputs = {"key": key}
    lines = []
    results = []
    if key in ("free-fall", "non-cartan", "canonical"):
        labels, fields, _src = _generator_set(key, ctx)
        for label, v in zip(labels, fields):
            text = format_vector_field(v)
            lines.append("%-4s %s%s" % (label, text,
                                        "  [non-Cartan]"
                                        if is_non_cartan(v) else ""))
            results.append({"label": label, "field": text,
                            "non-cartan": is_non_cartan(v)})
    elif key == "normal-form-coeffs":
        n = inputs["n"] = ctx.order
        nf = normal_form_coeffs(SourceEquation.symbolic(), n)
        for j in range(2, n + 1):
            text = format_expression(nf.coefficient(j))
            lines.append("A_%d^%d = %s" % (n, j, text))
            results.append({"n": n, "j": j, "coefficient": text})
    else:
        system = NAMED_SYSTEMS[key]()
        for j, f in enumerate(system.rhs, start=1):
            name = system.ctx.dep_names[j - 1]
            lines.append("%s%s = %s" % (name, "'" * system.ctx.order,
                                        format_expression(f)))
        results.append({"system": [format_expression(f) for f in system.rhs]})
    return EXIT_OK, inputs, results, lines


def cmd_commutators(args) -> tuple:
    key = args.set
    labels, fields, src = _generator_set(key, _family_context(key, args))
    rules = src.rules if src is not None else ()
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
    return EXIT_OK, {"set": key}, results, lines


# ---------------------------------------------------------------------------
# Dispatch


def _int_within(low: int, high: int = None):
    """argparse type: an integer from low to high (if given)."""
    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d, got %d"
                                             % (high, value))
        return value
    convert.__name__ = "int"    # argparse names it in "invalid int value"
    return convert


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a rejected command line as every other bad input is
    reported: one `error: ...` line and exit code 2."""

    def error(self, message):
        raise InputError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: `parse_args` keeps no state in it."""
    ap = _ArgumentParser(
        prog="noncartan",
        description="Lie point symmetry toolkit for ODE systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, shape):
        # --m and --n size the catalog family that catalog and
        # commutators build; verify builds it in the system's context
        p.add_argument("--format", choices=("text", "json"), default="text")
        if shape:
            p.add_argument("--m", type=_int_within(1), default=None)
            p.add_argument("--n", type=_int_within(2, MAX_N), default=None)
        p.set_defaults(run=run)

    pv = sub.add_parser("verify", help="check invariance of generators")
    pv.add_argument("--system", required=True)
    pv.add_argument("--generator", action="append", default=[])
    pv.add_argument("--catalog", default=None)
    common(pv, cmd_verify, shape=False)

    pd = sub.add_parser("determining", help="print the determining system")
    pd.add_argument("--system", required=True)
    pd.add_argument("--ansatz", default="full")
    common(pd, cmd_determining, shape=False)

    pc = sub.add_parser("classify", help="canonical-class / linearizability")
    pc.add_argument("--system", required=True)
    common(pc, cmd_classify, shape=False)

    pk = sub.add_parser("catalog", help="print catalog objects")
    pk.add_argument("key")
    common(pk, cmd_catalog, shape=True)

    pm = sub.add_parser("commutators", help="bracket table for a basis")
    pm.add_argument("--set", default="free-fall")
    common(pm, cmd_commutators, shape=True)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, inputs, results, lines = args.run(args)
    except SystemExit as exc:   # --help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (InputError, UndecidedZeroError,
            _classify.NotInNormalFormError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return EXIT_USAGE
    if args.format == "json":
        lines = [json.dumps({"command": args.command, "inputs": inputs,
                             "results": results,
                             "engine-info": ENGINE_INFO},
                            sort_keys=True, indent=2)]
    for line in lines:
        sys.stdout.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
