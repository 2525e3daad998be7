"""Tests of the benchmark's trace harness.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import circflat as cf  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install  # noqa: E402


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    tr = Tracer(clock=scripted_clock(0, 1, 3, 4, 5, 10, 12, 13))
    tr.begin("a")  # 0
    tr.begin("b")  # 1
    tr.end()  # 3: b lasted 2
    tr.begin("c")  # 4
    tr.end()  # 5: c lasted 1
    tr.end()  # 10: a lasted 10, 3 of it in children
    tr.begin("d")  # 12
    tr.end()  # 13
    assert tr.stats == {
        "a": [1, 10, 7],
        "b": [1, 2, 2],
        "c": [1, 1, 1],
        "d": [1, 1, 1],
    }
    assert tr.root_s == 11


def test_recursive_span_counts_inclusive_time_once():
    tr = Tracer(clock=scripted_clock(0, 2, 5, 9))
    tr.begin("f")
    tr.begin("f")
    tr.end()  # inner: 3
    tr.end()  # outer: 9, self 6
    assert tr.calls("f") == 2
    assert tr.self_s("f") == 9
    assert tr.total_s("f") == 9


def test_span_coverage_excludes_bench_glue():
    tr = Tracer(clock=scripted_clock(0, 1, 9, 10))
    tr.begin("bench.verify")
    tr.begin("verify.random_equiv")
    tr.end()
    tr.end()
    metrics = spans.layer_metrics(tr, total_s=10, kept_pool=0)
    assert metrics["trace.span_coverage"] == (0.8, "frac")
    assert metrics["verify.random_equiv.self_s"] == (8, "s")


def snapshot():
    """Identity of every attribute of every loaded circflat module and of
    every circflat class defined there."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "circflat" or name.startswith("circflat.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("circflat"):
                for key, member in vars(value).items():
                    snap[(name, attr, key)] = member
    return snap


def assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_traced_run_reaches_every_copy_and_restores_originals():
    before = snapshot()
    original_balance = sys.modules["circflat.balance"].balance
    tr = Tracer()
    with install(tr):
        # the package attribute and depth_reduce's copy are both wrapped
        assert cf.balance is not original_balance
        assert sys.modules["circflat.depth_reduce"].balance is not original_balance
        c = cf.random_multilinear(40, 6, seed=0)
        layered, _ = cf.reduce_depth_delta(c, 3)
        assert cf.random_equiv(c, layered, trials=4).equivalent
    assert_same(before, snapshot())
    assert sys.modules["circflat.balance"].balance is original_balance
    for name in (
        "balance.balance",  # through depth_reduce's copy
        "balance.check_balanced",
        "quotient.decomposition_terms",  # through balance's copy
        "quotient.quotient_values_batch",
        "analysis.compute_var",
        "depth_reduce.reduce_depth4",
        "depth_reduce.extract_subcircuit",
        "expand.CircuitExpander.expand",
        "verify.random_equiv",
    ):
        assert tr.calls(name) > 0, name


def test_repeat_frac_counts_reevaluation_of_equal_programs():
    c = cf.random_multilinear(40, 6, seed=0)
    pts = cf.backends.random_point_batch(0, 3, c.n, c.field.p)
    tr = Tracer()
    with install(tr):
        for _ in range(2):
            tr.new_op()
            for _ in range(2):  # distinct Circuit objects, equal programs
                run.fresh(cf, c).eval_table(pts)
    metrics = spans.layer_metrics(tr, total_s=1.0, kept_pool=0)
    assert metrics["backends.eval_program.calls"] == (4, "count")
    assert metrics["backends.eval_program.repeat_frac"] == (0.5, "frac")


def test_originals_restored_when_the_traced_block_raises():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with install(Tracer()):
            raise RuntimeError("boom")
    assert_same(before, snapshot())


def test_end_to_end_takes_each_ops_median_pass():
    def rows(*flatten):
        return [
            run.Row("c", d, flatten_s=f, op_s=2 * f, out_size=10)
            for d, f in zip((2, 3), flatten)
        ]

    passes = [
        run.Pass(False, rows(1.0, 4.0), 9.0),
        run.Pass(False, rows(3.0, 2.0), 9.0),
        run.Pass(False, rows(2.0, 9.0), 9.0),
    ]
    e2e = run.end_to_end(passes)
    assert e2e["flatten_s"] == 2.0 + 4.0
    assert e2e["total_s"] == 4.0 + 8.0
    assert e2e["out_size"] == 20
    assert run.stage_times(passes, min)["flatten_s"] == 1.0 + 2.0


def test_op_times_cover_the_whole_pass():
    circuits = [(cf.full_multilinear(6), (2, 3)), (cf.random_multilinear(40, 6, seed=0), (2,))]
    rows, total_s = run.run_pass(cf, 1 << 10, Tracer(), circuits, trials=4, seed=0)
    assert all(r.status == "ok" and not r.wrong for r in rows)
    op_s = sum(r.op_s for r in rows)
    assert 0.9 * total_s < op_s <= total_s
    assert sum(r.flatten_s + r.verify_s + r.report_s for r in rows) < op_s


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [
        {"name": w, "why": workloads.WORKLOADS[w].why} for w in workloads.TIMED
    ]
    emitted = spans.layer_metrics(Tracer(), total_s=1.0, kept_pool=0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted) + ["trace.overhead_s"]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, u in run.UNITS.items())
    assert all(units[k] == u for k, (_, u) in emitted.items())
