"""Span tracing of noncartan's public functions, installed from outside the
package.

`Tracer.install` replaces each traced function at every module or class
attribute that holds it (so `from .expr import substitute` in
`noncartan.symmetry` is wrapped as well as `noncartan.expr.substitute`),
and `Tracer.uninstall` puts every original back.  Spans and counts are
recorded only while an item is active (`Tracer.item` is not None), so input
generation and output checking between items leave no trace.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "noncartan"
MARK = "__perfbench_wrapper__"

# (module, attribute path) of every function that records a span
SPANNED = [
    ("expr", "differentiate"), ("expr", "substitute"),
    ("expr", "apply_rules"), ("expr", "replace_atoms"),
    ("expr", "collect"), ("expr", "zero_status"), ("expr", "parse"),
    ("expr", "format_expression"),
    ("jet", "prolong"), ("jet", "total_derivative"),
    ("jet", "VectorField.apply_to"),
    ("symmetry", "OdeSystem.on_shell"), ("symmetry", "invariance_residual"),
    ("symmetry", "determining_equations"), ("symmetry", "commutator"),
    ("symmetry", "algebra_report"),
    ("linalg", "nullspace"), ("linalg", "solve"), ("linalg", "rank"),
    ("linalg", "linear_equations_in_params"),
    ("catalog", "normal_form_coeffs"),
    ("classify", "non_cartan_existence_2x2"),
    ("classify", "brute_force_non_cartan_search"),
    ("classify", "classify_linear_system"), ("classify", "isotropy_test"),
    ("classify", "determining_system_2x2"), ("classify", "cubic_in_p_test"),
    ("classify", "trace_free_reduce"),
    ("cli", "main"),
]

# Expression operators that are only counted: they run hundreds of times
# per item, and a span each would cost more than the operation.
COUNTED = {
    "expr.Expression.add": "__add__",
    "expr.Expression.mul": "__mul__",
    "expr.Expression.div": "__truediv__",
}

# the module list that per-module self time is reported for
MODULES = ("expr", "jet", "symmetry", "linalg", "catalog", "classify", "cli")


def _terms(e) -> int:
    return len(e.num) + len(e.den)


def _hook_terms(stats, name, args, kwargs, result):
    stats[name + ".terms_sum"] += _terms(result)


def _hook_differentiate(stats, name, args, kwargs, result):
    stats[name + ".terms_sum"] += _terms(result)
    if not result.num:
        stats[name + ".zero"] += 1


def _hook_apply_rules(stats, name, args, kwargs, result):
    stats[name + ".terms_sum"] += _terms(result)
    e = args[0]
    if result is not e and result != e:
        stats[name + ".fired"] += 1


def _hook_prolong(stats, name, args, kwargs, result):
    stats[name + ".terms_sum"] += sum(_terms(c)
                                      for c in result.coefficients.values())


def _hook_zero_status(stats, name, args, kwargs, result):
    stats["%s.%s" % (name, result.name.split("_")[0].lower())] += 1


def _hook_nullspace(stats, name, args, kwargs, result):
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if not rows:
        return
    ncols = ncols or len(rows[0])
    nnz = sum(1 for row in rows for v in row if v)
    stats[name + ".density_sum"] += nnz / (len(rows) * ncols)
    stats[name + ".rank_ratio_sum"] += (ncols - len(result)) / ncols
    stats[name + ".matrices"] += 1


def _hook_determining(stats, name, args, kwargs, result):
    if result.monomial_index:
        stats[name + ".dedup_sum"] += (
            1 - len(result.equations) / len(result.monomial_index))
        stats[name + ".systems"] += 1


HOOKS = {
    "expr.differentiate": _hook_differentiate,
    "expr.substitute": _hook_terms,
    "expr.apply_rules": _hook_apply_rules,
    "jet.prolong": _hook_prolong,
    "expr.zero_status": _hook_zero_status,
    "linalg.nullspace": _hook_nullspace,
    "symmetry.determining_equations": _hook_determining,
}


def package_modules() -> list:
    """Every loaded module of the package, the package itself first."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_wrappers(modules) -> list:
    """(owner, attribute) of every wrapper still installed in the modules
    or in the classes they define."""
    found = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append((mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if getattr(cvalue, MARK, False):
                        found.append(("%s.%s" % (mod.__name__, attr), cattr))
    return found


class Tracer:
    """Installs wrappers, records spans and counts, and restores the
    package on `uninstall`."""

    def __init__(self):
        self.names = []          # span name table; spans refer to it by index
        self.spans = []          # (name index, start, end, parent, item)
        self.stack = []
        self.item = None
        self.counts = Counter()  # calls of the counted operators
        self.stats = defaultdict(float)
        self._patches = []       # (owner, attribute, original)

    # -- installation -------------------------------------------------

    def _patch_everywhere(self, original, wrapper, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for modname, path in SPANNED:
            mod = by_name["%s.%s" % (PACKAGE, modname)]
            name = "%s.%s" % (modname, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                owners = [cls]
            else:
                original = getattr(mod, path)
                owners = modules
            wrapper = self._span_wrapper(original, name, HOOKS.get(name))
            self._patch_everywhere(original, wrapper, owners)
        expression = by_name[PACKAGE + ".expr"].Expression
        for name, meth in COUNTED.items():
            original = vars(expression)[meth]
            # also catches the reflected aliases, e.g. __radd__ = __add__
            self._patch_everywhere(original,
                                   self._count_wrapper(original, name),
                                   [expression])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        tracer = self
        spans = self.spans
        stack = self.stack
        stats = self.stats
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = tracer.item
            if item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, item)
            if hook is not None:
                hook(stats, name, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.item is not None:
                counts[name] += 1
            return fn(*args)

        setattr(wrapper, MARK, True)
        return wrapper


# ---------------------------------------------------------------------------
# Reduction


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  `spans` are (name, start, end, parent,
    item) tuples; parent is the index of the enclosing span or -1."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _item) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(idx, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(names, spans, counts, stats, items: int,
                  scale=None) -> dict:
    """Per-layer metrics, as name -> (value, unit).  Calls, self time and
    operator counts are per traced item; size and ratio metrics are per
    call of the function they describe.  `scale[i]`, when given, multiplies
    the self times of item i (run.py's host-speed scaling)."""
    counts = Counter(counts)
    stats = defaultdict(float, stats)
    calls = Counter()
    self_s = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        name = names[span[0]]
        calls[name] += 1
        self_s[name] += st * (scale[span[4]] if scale else 1.0)
    out = {}
    for modname, path in SPANNED:
        name = "%s.%s" % (modname, path)
        out[name + ".calls"] = (calls[name] / items, "count/item")
        out[name + ".self_s"] = (self_s[name] / items, "s/item")
    for modname in MODULES:
        total = sum(v for k, v in self_s.items()
                    if k.startswith(modname + "."))
        out[modname + ".self_s"] = (total / items, "s/item")
    for name in COUNTED:
        out[name + ".calls"] = (counts[name] / items, "count/item")
    for name in ("expr.substitute", "expr.apply_rules", "expr.differentiate",
                 "jet.prolong"):
        out[name + ".terms_out"] = (
            _ratio(stats[name + ".terms_sum"], calls[name]), "terms/call")
    for result in ("symbolic", "numeric", "nonzero"):
        out["expr.zero_status." + result] = (
            stats["expr.zero_status." + result] / items, "count/item")
    out["expr.apply_rules.fired_ratio"] = (
        _ratio(stats["expr.apply_rules.fired"], calls["expr.apply_rules"]),
        "ratio")
    out["expr.differentiate.zero_ratio"] = (
        _ratio(stats["expr.differentiate.zero"], calls["expr.differentiate"]),
        "ratio")
    matrices = stats["linalg.nullspace.matrices"]
    out["linalg.nullspace.density"] = (
        _ratio(stats["linalg.nullspace.density_sum"], matrices), "ratio")
    out["linalg.nullspace.rank_ratio"] = (
        _ratio(stats["linalg.nullspace.rank_ratio_sum"], matrices), "ratio")
    out["symmetry.determining_equations.dedup_ratio"] = (
        _ratio(stats["symmetry.determining_equations.dedup_sum"],
               stats["symmetry.determining_equations.systems"]), "ratio")
    return out
