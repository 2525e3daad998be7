"""Pipeline benchmark for circflat: normalize -> balance -> reduce -> verify.

Run from the repository root:

    python3 perfbench/run.py --workload depth_sweep --seed 0 --seconds 60 --trace 0

An op is one (circuit, Delta) pair.  Each circuit is normalized and balanced
once; each Delta then reduces a fresh copy of the balanced circuit and the
result is verified, reported on and digested.  The run repeats whole passes
over the workload's ops for --seconds and times each op by its median pass
(README.md, "Timing").  It prints one row per op of the first pass, then as
its last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(passes then alternate untraced and traced, the traced ones wrapping
circflat's functions as listed in spans.py).

Exit codes: 0 when every output checks out, 1 on a wrong output (printed
with "correct": false), 2 when circflat cannot be imported from this
checkout's src/.
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROOF_TREE_CAP = 1 << 14


@dataclass
class Row:
    """One op.  The first op of a circuit also carries the circuit's
    normalize + balance time (flatten_s), its input report (report_s) and
    the rest of the circuit's set-up (op_s)."""

    circuit: str
    delta: int
    status: str = "ok"
    t: int = 0
    out_size: int = 0
    top_fanin: int = 0
    flatten_s: float = 0.0
    verify_s: float = 0.0
    report_s: float = 0.0
    op_s: float = 0.0  # the op's whole wall time, digests and glue included
    balanced_sha: str = "-"
    layered_sha: str = "-"
    kept_pool: int = 0
    wrong: str = ""

    def fixed_part(self):
        """Everything except timings: must repeat exactly across passes."""
        return (
            self.circuit,
            self.delta,
            self.status,
            self.t,
            self.out_size,
            self.top_fanin,
            self.balanced_sha,
            self.layered_sha,
            self.wrong,
        )


@dataclass
class Pass:
    traced: bool
    rows: list
    total_s: float
    layer: dict = None  # per-layer metrics of a traced pass


@contextmanager
def timed(tr, name, row, attr):
    """Span ``name`` on the tracer, adding its duration to ``row.attr``."""
    tr.begin(name)
    try:
        yield
    finally:
        setattr(row, attr, getattr(row, attr) + tr.end())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh(cf, c):
    """A new Circuit instance over the same gates: no analysis caches
    (Var tables, quotient tables, zero values, kernel program) carry over."""
    return cf.Circuit(c.n, c.gates, c.output, field=c.field, name=c.name)


def bottom_polys(cf, layered) -> int:
    """Sparse polynomials in the pools of a layered result, nested ones too."""
    count, stack, seen = 0, [layered], set()
    while stack:
        lay = stack.pop()
        if id(lay) in seen:
            continue
        seen.add(id(lay))
        for entry in lay.pool:
            if isinstance(entry, cf.LayeredCircuit):
                stack.append(entry)
            else:
                count += 1
    return count


def verify(cf, budget, inp, layered, trials, seed) -> str:
    """Checks of one op's result; returns "" or what was wrong."""
    res = cf.random_equiv(inp, layered, trials=trials, seed=seed)
    if not res.equivalent:
        return f"random_equiv {res.verdict} at {res.witness}"
    if cf.expansion_bound(inp, inp.output) <= budget:
        oracle = cf.brute_force_expand(inp, budget)
        if layered.expand(budget) != oracle:
            return "oracle mismatch"
        if cf.count_proof_trees(inp, inp.output) <= PROOF_TREE_CAP:
            if cf.proof_tree_sum(inp, inp.output, cap=PROOF_TREE_CAP) != oracle:
                return "proof-tree mismatch"
    flat = layered.flatten(name=inp.name + "_flat")
    if not cf.parse(flat.serialize(), field=flat.field).structurally_equal(flat):
        return "serialize/parse round trip differs"
    return ""


def run_circuit(cf, budget, tr, circuit, deltas, trials, seeds):
    """All ops of one circuit: normalize + balance once, then each Delta."""
    tr.new_op()
    last = time.perf_counter()
    inp = fresh(cf, circuit)
    rows = [Row(circuit.name, d) for d in deltas]
    try:
        with timed(tr, "bench.flatten", rows[0], "flatten_s"):
            bal, _ = cf.balance(cf.normalized(inp))
        with timed(tr, "bench.report", rows[0], "report_s"):
            before = cf.structural_report(inp, budget)
    except cf.CircflatError as e:
        for row in rows:
            row.status = type(e).__name__
        rows[0].op_s = time.perf_counter() - last
        return rows
    with tr.span("bench.digest"):
        bal_sha = sha256(bal.serialize())
    for row, seed in zip(rows, seeds):
        row.balanced_sha = bal_sha
        try:
            with timed(tr, "bench.flatten", row, "flatten_s"):
                layered, rep = cf.reduce_depth_delta(fresh(cf, bal), row.delta)
            with timed(tr, "bench.verify", row, "verify_s"):
                row.wrong = verify(cf, budget, inp, layered, trials, seed)
            with timed(tr, "bench.report", row, "report_s"):
                after = cf.structural_report(layered, budget)
                schedule = cf.choose_t(rep.n, rep.k, rep.s, row.delta)
                cf.check_bounds(before, after, schedule)
            with tr.span("bench.digest"):
                row.layered_sha = sha256(
                    json.dumps(layered.to_json_dict(), sort_keys=True)
                )
            row.t, row.out_size, row.top_fanin = rep.t, rep.out_size, rep.top_fanin
            row.kept_pool = bottom_polys(cf, layered)
        except cf.CircflatError as e:
            row.status = type(e).__name__
        now = time.perf_counter()
        row.op_s, last = now - last, now
    return rows


def run_pass(cf, budget, tr, circuits, trials, seed):
    """One pass over every op; returns (rows, wall seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    rows = []
    for c, deltas in circuits:
        # disjoint random_equiv point streams: stream keys are seed + trial
        seeds = [(seed * 1000 + len(rows) + j) * trials for j in range(len(deltas))]
        rows.extend(run_circuit(cf, budget, tr, c, deltas, trials, seeds))
    return rows, time.perf_counter() - t0


def stage_times(passes, pick) -> dict:
    """Each stage's time per op, taken over the passes by ``pick``, summed
    over the ops.  ``total_s`` sums whole ops, so it covers the pass."""
    ops = list(zip(*(p.rows for p in passes)))
    return {
        name: sum(pick([getattr(r, attr) for r in op]) for op in ops)
        for name, attr in (
            ("flatten_s", "flatten_s"),
            ("verify_s", "verify_s"),
            ("report_s", "report_s"),
            ("total_s", "op_s"),
        )
    }


def end_to_end(passes) -> dict:
    """Stage times take each op's median pass, so a stall that hits one op
    in some passes does not move them (README.md, "Timing")."""
    ok = [r for r in passes[0].rows if r.status == "ok"]
    return {
        **stage_times(passes, statistics.median),
        "ops_ok_frac": len(ok) / len(passes[0].rows),
        "out_size": sum(r.out_size for r in ok),
    }


UNITS = {
    "flatten_s": "s",
    "verify_s": "s",
    "report_s": "s",
    "total_s": "s",
    "ops_ok_frac": "frac",
    "out_size": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment(cf) -> dict:
    import numpy  # loaded by circflat already, after the thread pins

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": cf.active_backend(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def print_rows(rows):
    print(
        f"{'circuit':<30} {'D':>1} {'t':>3} {'out_size':>8} {'top_fanin':>9} {'status':<17} "
        f"{'flatten_s':>9} {'verify_s':>8} {'report_s':>8}  balanced_sha256 layered_sha256"
    )
    for r in rows:
        print(
            f"{r.circuit:<30} {r.delta:>1} {r.t:>3} {r.out_size:>8} {r.top_fanin:>9} "
            f"{r.status:<17} {r.flatten_s:>9.4f} {r.verify_s:>8.4f} {r.report_s:>8.4f}  "
            f"{r.balanced_sha} {r.layered_sha}"
        )
        if r.wrong:
            print(f"  WRONG: {r.wrong}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="circflat pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    t_import = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import circflat as cf
    except ImportError as e:
        print(f"cannot import circflat from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(cf.__file__).resolve().is_relative_to(src):
        print(f"circflat resolved outside {src}: {cf.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads
    import_s = time.perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]
    budget = work.budget
    print("environment:", json.dumps(environment(cf)))
    print(f"workload {work.name}: {work.why}")

    # set-up: build the inputs and run a small warm-up op per prime, repeated
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        circuits = workloads.build(work, args.seed)
        for p in sorted({c.field.p for c, _ in circuits}):
            warm = cf.random_multilinear(40, 6, seed=0, field=cf.FieldSpec(p))
            run_circuit(cf, budget, spans.Tracer(), warm, (2,), work.trials, [0])
        setup_runs.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_runs)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = spans.Tracer()
        if traced:
            with spans.install(tr):
                rows, total_s = run_pass(cf, budget, tr, circuits, work.trials, args.seed)
            kept = sum(r.kept_pool for r in rows)
            passes.append(Pass(True, rows, total_s, spans.layer_metrics(tr, total_s, kept)))
        else:
            rows, total_s = run_pass(cf, budget, tr, circuits, work.trials, args.seed)
            passes.append(Pass(False, rows, total_s))
        # stop when one more pass, as long as the longest so far, would end
        # past --seconds: runs then last --seconds, not up to a pass more
        longest = max(p.total_s for p in passes)
        if time.perf_counter() - start + longest > args.seconds and (
            not args.trace or len(passes) >= 2
        ):
            break

    first_rows = passes[0].rows
    print_rows(first_rows)
    for i, p in enumerate(passes):
        print(
            f"pass {i} {'traced' if p.traced else 'untraced'}: total {p.total_s:.3f}s "
            + " ".join(
                f"{a} {sum(getattr(r, a) for r in p.rows):.3f}s"
                for a in ("flatten_s", "verify_s", "report_s")
            )
        )

    wrong = [r for p in passes for r in p.rows if r.wrong]
    fixed = [r.fixed_part() for r in first_rows]
    drifted = [i for i, p in enumerate(passes) if [r.fixed_part() for r in p.rows] != fixed]
    if drifted:
        print(f"WRONG: outputs of passes {drifted} differ from pass 0")
    correct = not wrong and not drifted

    untraced = [p for p in passes if not p.traced]
    e2e = end_to_end(untraced)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["setup_s"] = setup_s
    attempted = sum(len(p.rows) for p in passes)
    failed = sum(1 for p in passes for r in p.rows if r.status != "ok")
    print(
        f"ops: {attempted} attempted over {len(passes)} passes, {failed} failed, "
        f"ops_failed_frac {failed / attempted:.4f}"
    )
    for r in first_rows:
        if r.status != "ok":
            print(f"  failing op: {r.circuit} Delta={r.delta} {r.status}")
    fastest = stage_times(untraced, min)
    print(f"end-to-end (median of {len(untraced)} untraced passes per op; fastest in brackets):")
    for name, value in e2e.items():
        best = f"  ({fastest[name]:.6f})" if name in fastest else ""
        print(f"  {name:<12} {value:>14.6f} {UNITS[name]}{best}")

    if args.trace:
        traced_layers = [p.layer for p in passes if p.traced]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in traced_layers), "unit": unit}
            for name, (_, unit) in traced_layers[0].items()
        }
        overhead = statistics.median(
            p.total_s for p in passes if p.traced
        ) - statistics.median(p.total_s for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"per-layer (median of {len(traced_layers)} traced passes):")
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:>16.6f} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
