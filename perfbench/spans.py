"""Span tracing for the pipeline benchmark.

A ``Tracer`` keeps one aggregate per span name (calls, inclusive seconds,
self seconds) plus named work counters.  The benchmark is single-threaded,
so spans nest strictly: a span's self time is its duration minus the
durations of the spans directly inside it.  Only the aggregates and the
stack of open spans are held, so memory does not grow with the call count.

``install`` wraps the circflat functions and methods named in ``TARGETS``
for the duration of a ``with`` block and puts the originals back on exit.
Modules are fetched from ``sys.modules`` because the package rebinds some
submodule names (``circflat.balance`` is the function, not the module).
Every ``from .x import y`` copy of a wrapped function, in any loaded
circflat module, is rebound too, so a call reaches the wrapper whichever
name it goes through.  Methods are wrapped on their classes.
"""

import functools
import hashlib
import sys
import time
from contextlib import contextmanager

HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}
        self.root_s = 0.0  # time covered by outermost spans
        self._stack = []  # open spans: [name, start, child_s]
        self._open = {}  # name -> number of open spans of that name
        self._seen = set()  # eval_program inputs already evaluated in this op

    def begin(self, name):
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def end(self) -> float:
        name, start, child_s = self._stack.pop()
        dur = self.clock() - start
        self._open[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - child_s
        if not self._open[name]:
            # inclusive time counts the outermost of recursive calls only
            st[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        return dur

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def is_open(self, name) -> bool:
        return self._open.get(name, 0) > 0

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def new_op(self):
        """Start a new repeat window for ``backends.eval_program``."""
        self._seen.clear()

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


# -- work counters ------------------------------------------------------------


def _var_cached(args, kwargs):
    return "_var_table" in args[0].__dict__


def _count_var_build(tr, args, result, dur, cached):
    if not cached:
        tr.add("analysis.compute_var.builds")


def _count_eval(tr, args, result, dur, pre):
    kinds, payload, offs, children, points, p = args
    tr.add("backends.eval_program.gate_points", kinds.shape[0] * points.shape[0])
    h = hashlib.blake2b(digest_size=16)
    for arr in (kinds, payload, offs, children, points):
        h.update(arr.tobytes())
    h.update(str(int(p)).encode())
    key = h.digest()
    if key in tr._seen:
        tr.add("backends.eval_program.repeats")
    tr._seen.add(key)
    if tr.is_open("balance._Balancer.base_node"):
        tr.add("balance.base_node.eval_calls")


def _count_terms(tr, args, result, dur, pre):
    tr.add("quotient.decomposition_terms.terms", len(result))


def _count_pairs(tr, args, result, dur, pre):
    tr.add("backends.mul_packed.pairs", args[0].shape[0] * args[2].shape[0])


def _count_merge(tr, args, result, dur, pre):
    tr.add("backends.merge_packed.terms_in", args[0].shape[0])


def _count_pool_expand(tr, args, result, dur, pre):
    if tr.is_open("depth_reduce.reduce_depth_delta"):
        tr.add("depth_reduce.pool_expanded")


def _count_hidden_expand(tr, args, result, dur, pre):
    if tr.is_open("verify.structural_report"):
        tr.add("verify.structural_report.hidden_expand_s", dur)


# (module, qualified attribute, before hook, after hook).  The before hook
# runs outside every span and must be cheap; the after hook runs in its own
# span so its cost is charged to tracing, not to the caller.
TARGETS = [
    ("circflat.normalize", "normalized", None, None),
    ("circflat.analysis", "compute_var", _var_cached, _count_var_build),
    ("circflat.balance", "balance", None, None),
    ("circflat.balance", "check_balanced", None, None),
    ("circflat.balance", "_Balancer.base_node", None, None),
    ("circflat.quotient", "QuotientTable.__init__", None, None),
    ("circflat.quotient", "decomposition_terms", None, _count_terms),
    ("circflat.quotient", "quotient_values_batch", None, None),
    ("circflat.field", "lagrange_interpolate", None, None),
    ("circflat.backends", "eval_program", None, _count_eval),
    ("circflat.backends", "mul_packed", None, _count_pairs),
    ("circflat.backends", "merge_packed", None, _count_merge),
    ("circflat.depth_reduce", "reduce_depth_delta", None, None),
    ("circflat.depth_reduce", "reduce_depth4", None, None),
    ("circflat.depth_reduce", "extract_subcircuit", None, None),
    ("circflat.depth_reduce", "LayeredCircuit.flatten", None, None),
    ("circflat.depth_reduce", "LayeredCircuit.evaluate_batch", None, None),
    ("circflat.depth_reduce", "LayeredCircuit.expand", None, None),
    ("circflat.depth_reduce", "LayeredCircuit.to_json_dict", None, None),
    ("circflat.expand", "CircuitExpander.expand", None, _count_pool_expand),
    ("circflat.expand", "brute_force_expand", None, _count_hidden_expand),
    ("circflat.verify", "random_equiv", None, None),
    ("circflat.verify", "structural_report", None, None),
    ("circflat.verify", "proof_tree_sum", None, None),
    ("circflat.circuit", "Circuit.evaluate", None, None),
    ("circflat.circuit", "Circuit.serialize", None, None),
    ("circflat.circuit", "parse", None, None),
    ("circflat.sparse", "SparsePolynomial.evaluate_batch", None, None),
]


def span_name(module: str, qualname: str) -> str:
    return module.split(".", 1)[1] + "." + qualname


def _wrap(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args, kwargs) if before is not None else None
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.end()
        if after is not None:
            tracer.begin(HOOK_SPAN)
            try:
                after(tracer, args, result, dur, pre)
            finally:
                tracer.end()
        return result

    return wrapper


def _circflat_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "circflat" or name.startswith("circflat."))
    ]


@contextmanager
def install(tracer):
    """Wrap every target for the duration of the block; always restore."""
    undo = []  # (owner, attribute, original)
    try:
        for modname, qualname, before, after in TARGETS:
            module = sys.modules[modname]
            name = span_name(modname, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                undo.append((cls, attr, orig))
                setattr(cls, attr, _wrap(tracer, name, orig, before, after))
                continue
            orig = getattr(module, qualname)
            wrapper = _wrap(tracer, name, orig, before, after)
            for mod in _circflat_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# -- per-layer metrics ----------------------------------------------------------

SPANS = [span_name(m, q) for m, q, _, _ in TARGETS]

# The benchmark's own stage spans.  Their self time is glue (copies, digests,
# comparisons) that no library span covers.
BENCH_STAGES = ["bench.flatten", "bench.verify", "bench.report", "bench.digest"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, total_s: float, kept_pool: int) -> dict:
    """Per-layer metrics of one traced pass, by name.  ``kept_pool`` is the
    number of bottom polynomials in the results the pass returned."""
    out = {}
    for name in SPANS:
        out[name + ".calls"] = (tr.calls(name), "count")
        out[name + ".self_s"] = (tr.self_s(name), "s")
    c = tr.counts
    evals = tr.calls("backends.eval_program")
    out.update(
        {
            "backends.eval_program.gate_points": (
                c.get("backends.eval_program.gate_points", 0),
                "count",
            ),
            "backends.eval_program.repeat_frac": (
                _ratio(c.get("backends.eval_program.repeats", 0), evals),
                "frac",
            ),
            "balance.eval_calls_per_base_key": (
                _ratio(
                    c.get("balance.base_node.eval_calls", 0),
                    tr.calls("balance._Balancer.base_node"),
                ),
                "calls/key",
            ),
            "quotient.quotient_table.builds": (
                tr.calls("quotient.QuotientTable.__init__"),
                "count",
            ),
            "quotient.decomposition_terms.terms": (
                c.get("quotient.decomposition_terms.terms", 0),
                "count",
            ),
            "analysis.compute_var.builds": (
                c.get("analysis.compute_var.builds", 0),
                "count",
            ),
            "backends.mul_packed.pairs": (c.get("backends.mul_packed.pairs", 0), "count"),
            "backends.merge_packed.terms_in": (
                c.get("backends.merge_packed.terms_in", 0),
                "count",
            ),
            "depth_reduce.pool_kept_frac": (
                _ratio(kept_pool, c.get("depth_reduce.pool_expanded", 0)),
                "frac",
            ),
            "verify.structural_report.hidden_expand_s": (
                c.get("verify.structural_report.hidden_expand_s", 0.0),
                "s",
            ),
            "expand.brute_force_expand.total_s": (
                tr.total_s("expand.brute_force_expand"),
                "s",
            ),
            "trace.hooks.self_s": (tr.self_s(HOOK_SPAN), "s"),
            "trace.span_coverage": (
                _ratio(
                    tr.root_s
                    - sum(tr.self_s(s) for s in BENCH_STAGES)
                    - tr.self_s(HOOK_SPAN),
                    total_s,
                ),
                "frac",
            ),
        }
    )
    return out
