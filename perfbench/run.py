"""Run one benchmark workload against the noncartan sources in ./src.

    python3 perfbench/run.py --workload oracle-2x2 --seed 1 --seconds 20 \
        --trace 0

Run it from the repository root.  A closed loop with one client issues the
workload's items one after another until they have taken --seconds at the
nominal host speed (see `reference`), finishing the block in progress.
Every output is checked against a known answer after its timer stops.
The last line of standard output is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  Each run also writes
the SHA-256 digest of every item's printed output to perfbench/out/ (see
compare.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = tracing.PACKAGE
SUBMODULES = ("expr", "jet", "symmetry", "linalg", "catalog", "classify",
              "cli")
SETUP_REPEATS = 5
TAIL_ITEMS = 10     # items that must lie above the reported tail latency
REFERENCE_NOMINAL_S = 1e-3
REFERENCE_ELASTICITY = 0.7
_REFERENCE_STEPS = 7000
WALL_LIMIT = 1.8    # a loop stops at this multiple of --seconds of wall time


def reference():
    """Fixed pure-Python work: integer arithmetic, tuple and list churn and
    a keyed sort.  It takes about REFERENCE_NOMINAL_S on an unloaded x86-64
    core under CPython 3.11.

    On a host whose cores are shared, the speed of the CPU drifts by up to
    2x within a minute, and the process's CPU time drifts with it.  Every
    time is therefore scaled by speed_factor of this routine's times,
    sampled between the items of the same block, which reports it at the
    nominal speed; the raw times are printed alongside.  The engine does
    not slow exactly as this routine does: fitted over 55 blocks of
    oracle-2x2 items and 223 blocks of brackets items, item time grew as
    the 0.6th to 0.8th power of the routine's time, while brackets items
    and set-up followed it about one to one between two sets of runs 25
    minutes apart.  REFERENCE_ELASTICITY = 0.7 is a compromise between
    them.  Of the routines tried (this one, Fraction sums in dicts, a
    sparse polynomial product, a large dict sort and small record churn)
    this one tracked the engine best."""
    acc = 0
    pairs = []
    for i in range(_REFERENCE_STEPS):
        acc += (i * 7) % 13
        pairs.append((i, acc))
    pairs.sort(key=_second)
    return acc


def _second(pair):
    return pair[1]


def _time_reference() -> float:
    # with the collector off, so that the garbage the last item left does
    # not land in the sample
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        gc.enable()


def speed_factor(samples) -> float:
    """Factor that turns times measured alongside these reference samples
    into times at the nominal speed."""
    return (REFERENCE_NOMINAL_S
            / statistics.median(samples)) ** REFERENCE_ELASTICITY


class Lib:
    """The imported noncartan modules; the benchmark reaches every function
    through these module objects, so the tracer's wrappers see the calls."""

    def __init__(self):
        self.package = importlib.import_module(PACKAGE)
        for name in SUBMODULES:
            setattr(self, name,
                    importlib.import_module("%s.%s" % (PACKAGE, name)))


def _purge():
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup(workload, seed):
    """Import noncartan and build the first block, SETUP_REPEATS times from
    a cold module cache; returns the last Lib, its block, and the raw and
    scaled times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _purge()
        start = perf_counter()
        lib = Lib()
        block = [(item, workload.build(lib, item))
                 for item in workload.block(seed, 0)]
        elapsed = perf_counter() - start
        factor = speed_factor([_time_reference() for _ in range(5)])
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    return lib, block, raw, scaled


def guarded(check, *args) -> list:
    """The problems `check` finds, or the exception it raises as one: a
    program output that a check cannot read fails its item instead of
    ending the run."""
    try:
        return check(*args)
    except Exception as exc:
        return ["check raised %s: %s" % (type(exc).__name__, exc)]


class Run:
    """Latencies, digests and check results of the items of one loop."""

    def __init__(self, workload, lib):
        self.workload = workload
        self.lib = lib
        self.raw = []              # item latencies, seconds
        self.latencies = []        # the same, scaled to the nominal speed
        self.reference = []        # reference times, seconds
        self.digests = []          # (item id, sha256 of printed output)
        self.problems = {}         # item id -> list of problems
        self.kinds = {}            # item id -> item kind
        # (check key, digest) -> (item, printed output, ids of the items
        # that printed it)
        self.deferred = {}
        self.block0_bytes = 0
        self.block0_items = 0

    def record(self, item, result, error, block_no):
        w = self.workload
        if error is None:
            try:
                printed = w.print(self.lib, item, result)
            except Exception as exc:      # counted as a failed item
                error = exc
        if error is None:
            problems = guarded(w.check, item, result)
        else:
            printed = "error: %s: %s" % (type(error).__name__, error)
            problems = ["raised " + printed]
        data = printed.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        if block_no == 0:
            self.block0_bytes += len(data)
            self.block0_items += 1
        self.digests.append((item["id"], digest))
        self.kinds[item["id"]] = item["kind"]
        self.problems[item["id"]] = problems
        key = w.deferred(item) if error is None else None
        if key is not None:
            self.deferred.setdefault((key, digest),
                                     (item, printed, []))[2].append(item["id"])

    def end_block(self, raw, refs):
        factor = speed_factor(refs)
        self.raw += raw
        self.latencies += [t * factor for t in raw]
        self.reference += refs

    def run_deferred(self):
        import known
        for (key, _), (item, printed, ids) in self.deferred.items():
            problems = guarded(known.check, key, item, printed)
            for item_id in ids:
                self.problems[item_id] += problems

    def failures(self):
        return {i: p for i, p in self.problems.items() if p}


def loop(workload, lib, seed, seconds, first_block, run, tracer=None,
         max_items=None):
    """Closed loop over whole blocks until the scaled item time reaches
    `seconds` (or the wall time reaches WALL_LIMIT times that), or until
    `max_items` items are done.  Only the program call is timed; a
    reference sample follows each item.

    Bounding the scaled time rather than the wall time keeps the number of
    blocks, and so the rank of the median and tail items among the item
    kinds, the same whether the host runs fast or slow."""
    start_wall = perf_counter()
    scaled_start = sum(run.latencies)
    block_no, block = 0, first_block
    done = 0
    while True:
        raw, refs = [], []
        for item, inputs in block:
            if max_items is not None and done >= max_items:
                break
            if tracer is not None:
                tracer.item = done
            error = result = None
            start = perf_counter()
            try:
                result = workload.run(lib, inputs)
            except Exception as exc:      # counted as a failed item
                error = exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.item = None
            raw.append(elapsed)
            refs.append(_time_reference())
            run.record(item, result, error, block_no)
            done += 1
        if raw:
            run.end_block(raw, refs)
        if (sum(run.latencies) - scaled_start >= seconds
                or perf_counter() - start_wall >= WALL_LIMIT * seconds
                or (max_items is not None and done >= max_items)):
            return
        block_no += 1
        block = [(item, workload.build(lib, item))
                 for item in workload.block(seed, block_no)]


def tail(latencies):
    """(value, percentile): the highest percentile of the latencies that
    still leaves TAIL_ITEMS items above it; the maximum when there are too
    few items."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_ITEMS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ITEMS - 1], 100.0 * (n - TAIL_ITEMS) / n


def unexpected_failures(failures) -> dict:
    """The failures that make a run incorrect: all but the items whose only
    problem is the known defect."""
    return {i: p for i, p in failures.items()
            if p != [workloads.KNOWN_DEFECT]}


def write_digests(path, workload, seed, trace, digests):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "items": digests}, fh)
        fh.write("\n")


def _unpatched():
    return not tracing.find_wrappers(tracing.package_modules())


def end_to_end(args, workload, lib, first_block, setup_times):
    raw_setup, scaled_setup = setup_times
    run = Run(workload, lib)
    loop(workload, lib, args.seed, args.seconds, first_block, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.run_deferred()
    n = len(run.latencies)
    failures = run.failures()
    tail_s, tail_pct = tail(run.latencies)
    metrics = {
        "items_per_s": (n / sum(run.latencies), "1/s"),
        "item_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_bytes": (run.block0_bytes, "bytes"),
        "setup_s": (statistics.median(scaled_setup), "s"),
    }
    notes = {
        "items_per_s": "raw %.4g" % (n / sum(run.raw)),
        "item_p50_ms": "raw %.4g" % (statistics.median(run.raw) * 1e3),
        "item_tail_ms": "p%.1f of %d items, raw %.4g"
                        % (tail_pct, n, tail(run.raw)[0] * 1e3),
        "output_bytes": "block 0, %d items" % run.block0_items,
        "setup_s": "median of %d, raw %.4g"
                   % (len(scaled_setup), statistics.median(raw_setup)),
    }
    return run, metrics, notes, failures


def write_spans(path, tracer):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# name\tstart_s\tend_s\tparent\titem\n")
        for name_id, start, end, parent, item in tracer.spans:
            fh.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                     % (tracer.names[name_id], start, end, parent, item))


def traced(args, workload, lib, first_block):
    """An untraced pass, then a traced pass over the same items, each for
    half the time; per-layer metrics come from the traced pass, and the
    two passes give the tracing overhead."""
    plain = Run(workload, lib)
    loop(workload, lib, args.seed, args.seconds / 2.0, first_block, plain)
    t = tracing.Tracer()
    t.install()
    try:
        rebuilt = [(item, workload.build(lib, item))
                   for item in workload.block(args.seed, 0)]
        run = Run(workload, lib)
        loop(workload, lib, args.seed, args.seconds / 2.0, rebuilt, run,
             tracer=t, max_items=len(plain.latencies))
    finally:
        t.uninstall()
    if not _unpatched():
        raise RuntimeError("tracer left wrappers installed")
    run.run_deferred()
    n = len(run.latencies)
    failures = run.failures()
    for (item_id, a), (_, b) in zip(plain.digests, run.digests):
        if a != b:
            failures.setdefault(item_id, []).append(
                "traced output differs from untraced output")
    metrics = tracing.layer_metrics(
        t.names, t.spans, t.counts, t.stats, n,
        scale=[s / r for s, r in zip(run.latencies, run.raw)])
    untraced_rate = n / sum(plain.latencies[:n])
    traced_rate = n / sum(run.latencies)
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_items_per_s"] = (traced_rate, "1/s")
    metrics["trace.slowdown"] = (untraced_rate / traced_rate, "x")
    spans_path = os.path.join(
        args.out, "%s-seed%d.spans.tsv" % (args.workload, args.seed))
    write_spans(spans_path, t)
    notes = {"trace.slowdown": "over the first %d items" % n,
             "spans": "%d spans written to %s" % (len(t.spans), spans_path)}
    return run, metrics, notes, failures


def reported(metrics, trace):
    """The metrics BENCHMARK.json names for this mode, in its order; all of
    them when the file is absent."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.isfile(path):
        return metrics
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {name: metrics[name] for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for digests and spans")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        sys.stderr.write("error: no %s sources under %s; run from the "
                         "repository root\n" % (PACKAGE, src))
        return 2
    sys.path.insert(0, src)
    os.makedirs(args.out, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]
    lib, first_block, raw_setup, scaled_setup = setup(workload, args.seed)
    if not os.path.abspath(lib.package.__file__).startswith(src + os.sep):
        sys.stderr.write("error: imported %s from %s, not from %s\n"
                         % (PACKAGE, lib.package.__file__, src))
        return 2
    if args.trace:
        run, metrics, notes, failures = traced(args, workload, lib,
                                               first_block)
    else:
        run, metrics, notes, failures = end_to_end(
            args, workload, lib, first_block, (raw_setup, scaled_setup))
        if not _unpatched():
            raise RuntimeError("untraced run found wrappers installed")
    digest_path = os.path.join(args.out, "%s-seed%d-trace%d.digests.json"
                               % (args.workload, args.seed, args.trace))
    write_digests(digest_path, args.workload, args.seed, args.trace,
                  run.digests)

    attempted = len(run.latencies)
    unexpected = unexpected_failures(failures)
    print("workload %s  seed %d  seconds %g  trace %d  reference %.4g ms"
          % (args.workload, args.seed, args.seconds, args.trace,
             statistics.median(run.reference) * 1e3))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-48s %14.6g %-10s%s" % (name, value, unit,
                                         "  (%s)" % note if note else ""))
    print("%-48s %14.6g %-10s  (%d of %d items)"
          % ("fail_ratio", len(failures) / attempted, "ratio",
             len(failures), attempted))
    for item_id, problems in sorted(failures.items())[:20]:
        print("FAILED %s [%s]: %s" % (item_id, run.kinds[item_id],
                                      "; ".join(problems)))
    if "spans" in notes:
        print(notes["spans"])
    print("digests written to %s" % digest_path)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit)
                    in reported(metrics, args.trace).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
