"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, so
    # they cover [1, 6]) and c [8, 9]; a has a child d [2, 3].
    spans = [
        (0, 0.0, 10.0, -1, 0),   # root
        (1, 1.0, 4.0, 0, 0),     # a
        (2, 3.0, 6.0, 0, 0),     # b
        (3, 8.0, 9.0, 0, 0),     # c
        (4, 2.0, 3.0, 1, 0),     # d, child of a
        (0, 20.0, 21.5, -1, 1),  # a second root, no children
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [10 - 5 - 1, 3 - 1, 3, 1, 1, 1.5])


def test_layer_metrics_reduce_per_item():
    names = ["expr.differentiate", "linalg.nullspace"]
    spans = [(1, 0.0, 4.0, -1, 0), (0, 1.0, 2.0, 0, 0),
             (0, 5.0, 6.0, -1, 1)]
    m = tracer.layer_metrics(names, spans, {"expr.Expression.add": 6}, {},
                             items=2)
    assert m["linalg.nullspace.calls"] == (0.5, "count/item")
    assert m["linalg.nullspace.self_s"][0] == pytest.approx(1.5)
    assert m["expr.differentiate.self_s"][0] == pytest.approx(1.0)
    assert m["expr.self_s"][0] == pytest.approx(1.0)
    assert m["expr.Expression.add.calls"] == (3.0, "count/item")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.block(7, 0) == w.block(7, 0)
    assert w.block(7, 3) == w.block(7, 3)
    assert w.block(7, 0) != w.block(7, 1)
    assert w.block(7, 0) != w.block(8, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_built_inputs(name):
    lib = run.Lib()
    w = workloads.WORKLOADS[name]
    first = [w.build(lib, item) for item in w.block(5, 0)]
    second = [w.build(lib, item) for item in w.block(5, 0)]
    assert first == second


def _attribute_snapshot():
    snap = {}
    for mod in tracer.package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = cvalue
    return snap


def test_every_wrapper_is_removed_after_a_traced_run():
    lib = run.Lib()
    before = _attribute_snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.find_wrappers(tracer.package_modules())
        # a re-exported name is wrapped where its callers look it up
        assert getattr(lib.symmetry.substitute, tracer.MARK, False)
        assert getattr(lib.package.substitute, tracer.MARK, False)
        assert lib.symmetry.substitute is lib.expr.substitute
        w = workloads.WORKLOADS["brackets"]
        item = w.block(1, 0)[0]
        fields = w.build(lib, item)
        t.item = 0
        w.run(lib, fields)
        t.item = None
    finally:
        t.uninstall()
    assert tracer.find_wrappers(tracer.package_modules()) == []
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {t.names[s[0]] for s in t.spans}
    assert {"symmetry.commutator", "jet.VectorField.apply_to",
            "expr.differentiate"} <= names
    assert t.counts["expr.Expression.add"] > 0


def test_spans_are_recorded_only_inside_items():
    lib = run.Lib()
    t = tracer.Tracer()
    t.install()
    try:
        x = lib.expr.indep("x")
        lib.expr.differentiate(lib.expr.sym(x) ** 2, x)
    finally:
        t.uninstall()
    assert t.spans == [] and not t.counts


def test_tail_leaves_ten_items_above():
    lat = list(range(1, 101))
    value, pct = run.tail(lat)
    assert sum(1 for v in lat if v > value) == 10
    assert pct == 90.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_compare_reports_differing_items():
    a = {"workload": "w", "seed": 1, "items": [["0.0", "aa"], ["0.1", "bb"]]}
    b = {"workload": "w", "seed": 1, "items": [["0.0", "aa"], ["0.1", "cc"],
                                               ["0.2", "dd"]]}
    assert compare.differing(a, b) == ["0.1"]
    assert compare.differing(a, a) == []


def test_known_answers_reject_a_wrong_bracket():
    item = workloads.brackets_block(3, 0)[0]
    lib = run.Lib()
    w = workloads.WORKLOADS["brackets"]
    result = w.run(lib, w.build(lib, item))
    printed = w.print(lib, item, result)
    assert known.check("bracket", item, printed) == []
    lines = printed.splitlines()
    lines[0] = lines[0] + " + x"
    assert known.check("bracket", item, "\n".join(lines))


def test_known_answers_reject_a_wrong_coefficient():
    good = ('{"results": [{"coefficient": "4*q(x)"},'
            ' {"coefficient": "2*q\'(x)"}]}')
    bad = ('{"results": [{"coefficient": "4*q(x)"},'
           ' {"coefficient": "q\'(x)"}]}')
    assert known.check("catalog-3", {}, good) == []
    assert known.check("catalog-3", {}, bad)


def test_known_bracket_tables():
    labels, independent, table = known.expected_table("free-fall")
    assert independent and labels == workloads.FREE_FALL_LABELS
    assert table[(0, 6)] == {"Fm": 1}            # [S1, C1] = Fm
    _, independent, table = known.expected_table("non-cartan")
    assert independent and all(not row for row in table.values())


def _source_item(kind):
    return next(item for item in workloads.source_block(1, 0)
                if item["kind"] == kind)


@pytest.mark.parametrize("kind, result", [
    ("determining-full", (0, "not json")),
    ("catalog-4", (0, '{"results": [{"coefficient": "10*q(x"}]}')),
    ("classify-iso-2", (0, '{"results": []}')),
    ("commutators-canonical", (0, "basis G1\nunexpected line")),
])
def test_unreadable_output_fails_its_item(kind, result):
    r = run.Run(workloads.WORKLOADS["source-rules"], run.Lib())
    item = _source_item(kind)
    r.record(item, result, None, 0)
    r.run_deferred()
    assert r.failures()[item["id"]]
    assert run.unexpected_failures(r.failures())


class _Verdict:
    def __init__(self, in_class, reason):
        self.in_canonical_class = in_class
        self.reason = reason
        self.witnesses = ()


def test_only_the_known_defect_is_excused():
    item = _source_item("library-defect")
    known_wrong = workloads.source_check(item, _Verdict(True, ()))
    assert known_wrong == [workloads.KNOWN_DEFECT]
    assert run.unexpected_failures({item["id"]: known_wrong}) == {}
    other = workloads.source_check(item, _Verdict(True, ("odd",)))
    assert other and run.unexpected_failures({item["id"]: other})
    raised = ["raised ValueError: boom"]
    assert run.unexpected_failures({item["id"]: raised})
    both = known_wrong + ["traced output differs from untraced output"]
    assert run.unexpected_failures({item["id"]: both})
