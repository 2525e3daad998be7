"""Reduction of balanced circuits to small product depth.

A balanced circuit lets every gate g be written as a sum of products of at
most five factors, each factor again a gate of the circuit with at most
half of g's potential.  Repeatedly substituting that form into the factor
of largest |Var| drives every factor below a threshold t, yielding a
depth-4 shape: a top sum over products whose factors are polynomials on
at most t variable-degree units.

The recursion tree is explored as a DAG: product nodes are multisets of
factor gates (constant factors fold into a per-node scalar), identical
multisets are merged with their path counts, and every expansion step is
checked against the termination measure: either the node's total |Var|
drops by at least t/4, or the number of factors with |Var| >= t/16 grows.
A step that breaks the measure raises NotBalanced.  The measure bounds the
tree depth by 20 * kn / t.

Every level runs that exploration and then builds its pool from the
factor gates: at Delta = 2 each is expanded into its monomials, at
Delta > 2 each gate's cone is reduced to product depth Delta - 1 by the
same level step with a smaller threshold.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import backends
from .analysis import compute_var, inferred_k
from .balance import balance, check_balanced
from .circuit import ADD, CONST, MUL, Builder, Circuit, Gate
from .errors import ExpansionTooLarge, InvalidParams, NotBalanced
from .expand import DEFAULT_BUDGET, CircuitExpander, brute_force_expand
from .normalize import normalized
from .sparse import SparsePolynomial

MAX_PRODUCTS = 1 << 18


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass
class Schedule:
    """Input statistics plus the threshold t driving one reduction run."""

    n: int
    k: int
    s: int
    delta: int
    t_value: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def _threshold(potential: int, s: int, delta: int) -> int:
    """t for one reduction level with the given potential budget: the
    sqrt(P log2 s) rule at depth 4 and P / (P / log2 s)^(1/Delta) deeper,
    clamped to [1, P].  A potential of 0 (a constant circuit, n = 0) gives
    t = 1: nothing is over it, so the level is one summand with no factors."""
    if potential < 1:
        return 1
    logs = math.log2(s)
    if delta == 2:
        raw = math.sqrt(potential * logs)
    else:
        raw = potential / (potential / logs) ** (1.0 / delta)
    t = math.ceil(raw - 1e-9)
    return min(max(t, 1), potential)


def choose_t(n: int, k: int, s: int, delta: int) -> Schedule:
    """Threshold schedule: t = ceil(sqrt(kn log2 s)) for depth 4, and
    t = ceil(kn / (kn / log2 s)^(1/Delta)) for deeper targets, clamped to
    [1, kn]."""
    if n < 1 or k < 1 or s < 2 or delta < 2:
        raise InvalidParams(
            f"need n,k >= 1, s >= 2, delta >= 2; got n={n} k={k} s={s} delta={delta}"
        )
    return Schedule(n=n, k=k, s=s, delta=delta, t_value=_threshold(k * n, s, delta))


# ---------------------------------------------------------------------------
# layered circuits
# ---------------------------------------------------------------------------


@dataclass
class Summand:
    """One top-level product: pool references plus the aggregated field
    coefficient of all recursion paths that produced this factor multiset.
    ``count`` records how many paths merged here (the un-deduplicated top
    fan-in contribution); the coefficient already accounts for them."""

    count: int
    coeff: int
    factors: Tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"count": self.count, "coeff": self.coeff, "factors": list(self.factors)}


class LayeredCircuit:
    """Explicit (Sigma Pi)^Delta form: a top sum of products over a pool of
    either sparse polynomials (Delta = 2) or nested layered circuits.
    Immutable: the flattened circuit is built once and cached."""

    def __init__(self, n, field, delta, pool, products):
        self.n = n
        self.field = field
        self.delta = delta
        self.pool: Tuple[Union[SparsePolynomial, "LayeredCircuit"], ...] = tuple(pool)
        self.products: Tuple[Summand, ...] = tuple(products)
        self._flat: Optional[Circuit] = None

    # -- accounting ------------------------------------------------------

    def top_fanin(self) -> int:
        return sum(sm.count for sm in self.products)

    def per_var_degrees(self) -> tuple:
        """Largest degree of each variable in any product, a product's
        degrees being the sums of its factors' own."""
        degs = [0] * self.n
        for sm in self.products:
            acc = [0] * self.n
            for r in sm.factors:
                acc = [a + b for a, b in zip(acc, self.pool[r].per_var_degrees())]
            degs = [max(a, b) for a, b in zip(degs, acc)]
        return tuple(degs)

    def max_var_coordinate(self) -> int:
        """The k this layered circuit realizes (max degree of any variable
        in any product of any layer)."""
        best = max(self.per_var_degrees(), default=0)
        for entry in self.pool:
            if isinstance(entry, LayeredCircuit):
                best = max(best, entry.max_var_coordinate())
        return best

    def bottom_var_masses(self) -> List[int]:
        """|Var| of every bottom polynomial (Delta = 2 pools), or of the
        nested circuits' bottoms."""
        out = []
        for entry in self.pool:
            if isinstance(entry, SparsePolynomial):
                out.append(entry.var_mass())
            else:
                out.extend(entry.bottom_var_masses())
        return out

    def product_depth(self) -> int:
        if all(isinstance(e, SparsePolynomial) for e in self.pool):
            return 2
        return 1 + max(
            (e.product_depth() for e in self.pool if isinstance(e, LayeredCircuit)),
            default=1,
        )

    # -- evaluation --------------------------------------------------------

    def evaluate_batch(self, points: np.ndarray):
        """Values at each row of points, of ``backends.field_dtype(p)``:
        the flattened circuit's batch evaluation."""
        return self.flatten().evaluate_batch(points)

    def evaluate(self, point) -> int:
        p = self.field.p
        pts = np.asarray([[int(x) % p for x in point]], dtype=backends.field_dtype(p))
        return int(self.evaluate_batch(pts)[0])

    # -- exact expansion ----------------------------------------------------

    def expand(self, budget: int = DEFAULT_BUDGET) -> SparsePolynomial:
        """Exact polynomial of the whole layered circuit: the oracle's
        expansion of its flattened form, refused when that form's monomial
        bound exceeds the budget."""
        return brute_force_expand(self.flatten(), budget)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        def factor_json(entry):
            if isinstance(entry, SparsePolynomial):
                return {"monomials": entry.to_json_dict()["monomials"]}
            return entry.to_json_dict()

        return {
            "delta": self.delta,
            "n": self.n,
            "modulus": self.field.p,
            "summands": [
                {
                    "count": sm.count,
                    "coeff": sm.coeff,
                    "factors": [factor_json(self.pool[r]) for r in sm.factors],
                }
                for sm in self.products
            ],
        }

    # -- flattening -----------------------------------------------------------

    def flatten(self, name: str = "layered") -> Circuit:
        """Rewrite as a generic circuit (layers become gates).  The circuit
        is built on the first call and cached; another name gives a renamed
        circuit over the same gates tuple."""
        if self._flat is None:
            b = Builder(self.n, self.field)
            out = self._flatten_into(b)
            self._flat = Circuit(self.n, b.gates, out, field=self.field, name="layered")
        flat = self._flat
        if name == flat.name:
            return flat
        return Circuit(flat.n, flat.gates, flat.output, field=flat.field, name=name)

    def _flatten_into(self, b: Builder) -> int:
        factor_ids = [
            b.polynomial(entry) if isinstance(entry, SparsePolynomial) else entry._flatten_into(b)
            for entry in self.pool
        ]
        summand_ids = []
        for sm in self.products:
            parts = [b.const(sm.coeff)] if sm.coeff != 1 or not sm.factors else []
            parts.extend(factor_ids[r] for r in sm.factors)
            summand_ids.append(b.product(parts))
        if not summand_ids:
            return b.const(0)
        return b.summation(summand_ids)

    def structural_report(self, degree_budget: int = DEFAULT_BUDGET):
        from .verify import _circuit_report

        rep = _circuit_report(self.flatten(), degree_budget)
        rep.kind = "layered"
        rep.top_fanin = self.top_fanin()
        # report the representation's own alternation structure; the scan of
        # the flattened circuit would contract degenerate fan-in-1 layers
        rep.product_depth = self.product_depth()
        rep.depth = 2 * self.delta
        return rep

    def __repr__(self):
        return (
            f"LayeredCircuit(delta={self.delta}, products={len(self.products)}, "
            f"pool={len(self.pool)}, n={self.n})"
        )


# ---------------------------------------------------------------------------
# expansion report
# ---------------------------------------------------------------------------


@dataclass
class ExpansionReport:
    """Statistics of one reduction level.  ``out_size`` and ``bound_ratio``
    read the result's cached flattening, so a nested level whose report is
    discarded never flattens."""

    top_fanin: int
    distinct_products: int
    tree_depth: int
    t: int
    n: int
    k: int
    s: int
    delta: int
    depth_bound_ok: bool
    result: LayeredCircuit = field(repr=False, compare=False)

    _JSON_KEYS = (
        "top_fanin", "distinct_products", "tree_depth", "t", "n", "k", "s", "delta",
        "bound_ratio", "depth_bound_ok", "out_size",
    )

    @property
    def out_size(self) -> int:
        """Edges of the flattened result."""
        return self.result.flatten().size()

    @property
    def bound_ratio(self) -> float:
        """log2(out_size) over the envelope k*t + (kn/t)*log2(s)."""
        kn = max(self.k * self.n, 1)
        envelope = self.k * self.t + (kn / self.t) * math.log2(max(self.s, 2))
        return math.log2(max(self.out_size, 1)) / envelope if envelope > 0 else float("inf")

    def to_json_dict(self) -> dict:
        d = {key: getattr(self, key) for key in self._JSON_KEYS}
        d["top_fanin"] = int(d["top_fanin"])
        return d


# ---------------------------------------------------------------------------
# one reduction level
# ---------------------------------------------------------------------------


def _zero_values(circuit: Circuit) -> list:
    """Gate values at the all-zero point; the value of any |Var| = 0 gate
    equals its constant polynomial."""
    cached = circuit.__dict__.get("_zero_values")
    if cached is None:
        cached = circuit.gate_values([0] * circuit.n)
        circuit.__dict__["_zero_values"] = cached
    return cached


def _gate_summands(circuit: Circuit, var, g: int, zero_vals) -> List[Tuple[int, tuple]]:
    """Sum-of-products form of one gate: list of (scalar, factor gates).

    Sum gates list one summand per child; product gates are a single
    summand.  Constant factors (|Var| = 0) fold into the scalar.
    """
    p = circuit.field.p

    def of_product(m: int):
        coeff = 1
        factors = []
        for c in circuit.gates[m].children:
            if var.total(c) == 0:
                coeff = coeff * zero_vals[c] % p
            else:
                factors.append(c)
        return coeff, tuple(sorted(factors))

    def of_child(c: int):
        if circuit.gates[c].kind == MUL:
            return of_product(c)
        if var.total(c) == 0:
            return zero_vals[c], ()
        return 1, (c,)

    gate = circuit.gates[g]
    if gate.kind == ADD:
        return [of_child(c) for c in gate.children]
    if gate.kind == MUL:
        return [of_product(g)]
    if gate.kind == CONST:
        return [(gate.value, ())]
    return [(1, (g,))]


def reduce_depth4(
    balanced: Circuit,
    t: int,
    budget: int = DEFAULT_BUDGET,
    s_stat: Optional[int] = None,
) -> Tuple[LayeredCircuit, ExpansionReport]:
    """Balanced circuit -> depth-4 layered form with every bottom
    polynomial of |Var| at most t."""
    return _reduce_level(balanced, 2, t, s_stat, budget)


def _reduce_level(
    balanced: Circuit,
    delta: int,
    t: int,
    s_stat: Optional[int],
    budget: int,
) -> Tuple[LayeredCircuit, ExpansionReport]:
    """One reduction level: explore to factors of |Var| at most t, then
    expand each factor gate (Delta = 2) or reduce its cone to product
    depth Delta - 1 at the threshold schedule below t."""
    scan = check_balanced(balanced)
    if not scan.halving_ok or scan.max_mul_fanin > 5:
        raise NotBalanced(
            f"input fails the balance scan (halving_ok={scan.halving_ok}, "
            f"max_mul_fanin={scan.max_mul_fanin})"
        )
    var = compute_var(balanced)
    k = max(var.max_coord, 1)
    n = balanced.n
    kn = max(k * n, 1)
    if not (1 <= t <= kn):
        raise InvalidParams(f"threshold t={t} outside [1, {kn}]")
    s = s_stat if s_stat is not None else max(balanced.size(), 2)
    zero_vals = _zero_values(balanced)
    p = balanced.field.p

    summand_cache: Dict[int, list] = {}

    def summands(g: int) -> list:
        if g not in summand_cache:
            summand_cache[g] = _gate_summands(balanced, var, g, zero_vals)
        return summand_cache[g]

    def varsum(factors) -> int:
        return sum(var.total(f) for f in factors)

    def heavy(factors) -> int:
        return sum(1 for f in factors if 16 * var.total(f) >= t)

    def is_scaling_step(g: int) -> bool:
        gate = balanced.gates[g]
        if gate.kind != MUL:
            return False
        return sum(1 for c in gate.children if var.total(c) > 0) < 2

    out_gate = balanced.output
    if var.total(out_gate) == 0:
        root = ()
        root_coeff = zero_vals[out_gate]
    else:
        root = (out_gate,)
        root_coeff = 1

    def heap_key(factors: tuple) -> tuple:
        # Min-heap priority that pops multisets in decreasing order, where
        # removing an element (or replacing it by smaller ones) strictly
        # decreases the multiset.  The trailing sentinel makes a proper
        # sub-multiset compare *after* its parent despite being a prefix.
        return tuple(-f for f in sorted(factors, reverse=True)) + (1,)

    # state: factors tuple -> [coeff, count, depth]
    states: Dict[tuple, list] = {root: [root_coeff % p, 1, 0]}
    heap = [(heap_key(root), root)]
    in_heap = {root}
    leaves: Dict[tuple, list] = {}
    max_depth = 0

    while heap:
        _, factors = heapq.heappop(heap)
        in_heap.discard(factors)
        st = states.pop(factors)
        coeff, count, depth = st
        max_depth = max(max_depth, depth)
        over = [f for f in factors if var.total(f) > t]
        if not over:
            leaves[factors] = st
            continue
        g = max(over, key=lambda f: (var.total(f), -f))
        rest = list(factors)
        rest.remove(g)
        parent_sum = varsum(factors)
        parent_heavy = heavy(factors)
        scaling = is_scaling_step(g)
        for sc, fs in summands(g):
            child = tuple(sorted(rest + list(fs)))
            if not scaling:
                drop = parent_sum - varsum(child)
                if 4 * drop < t and heavy(child) <= parent_heavy:
                    raise NotBalanced(
                        f"termination measure violated expanding gate {g}: "
                        f"drop={drop}, heavy {parent_heavy}->{heavy(child)}, t={t}"
                    )
            child_coeff = coeff * sc % p
            entry = states.get(child)
            if entry is None and child in leaves:
                entry = leaves[child]
            if entry is not None:
                entry[0] = (entry[0] + child_coeff) % p
                entry[1] += count
                entry[2] = max(entry[2], depth + 1)
            else:
                states[child] = [child_coeff, count, depth + 1]
                if len(states) + len(leaves) > MAX_PRODUCTS:
                    raise ExpansionTooLarge(
                        f"more than {MAX_PRODUCTS} distinct product nodes"
                    )
                if child not in in_heap:
                    heapq.heappush(heap, (heap_key(child), child))
                    in_heap.add(child)

    # A leaf reached along one path may later receive contributions from a
    # deeper path; the topological pop order above already guarantees all
    # contributions arrived before the leaf was popped, and contributions
    # into an already-popped leaf (stored in ``leaves``) are merged in place.

    factor_gates = sorted({f for fac in leaves for f in fac})
    if delta == 2:
        expander = CircuitExpander(balanced, budget)
        pool = [expander.expand(g) for g in factor_gates]
    else:
        pool = [
            _reduce_rec(extract_subcircuit(balanced, g), delta - 1, t, s, None, budget)[0]
            for g in factor_gates
        ]
    index = {g: i for i, g in enumerate(factor_gates)}
    products = []
    top_fanin = 0
    for fac in sorted(leaves):
        coeff, count, depth = leaves[fac]
        max_depth = max(max_depth, depth)
        top_fanin += count
        products.append(Summand(count=count, coeff=coeff, factors=tuple(index[f] for f in fac)))

    layered = LayeredCircuit(n, balanced.field, delta, pool, products)
    report = ExpansionReport(
        top_fanin=top_fanin,
        distinct_products=len(products),
        tree_depth=max_depth,
        t=t,
        n=n,
        k=k,
        s=s,
        delta=delta,
        depth_bound_ok=max_depth * t <= 20 * kn,
        result=layered,
    )
    return layered, report


# ---------------------------------------------------------------------------
# depth-Delta pipeline
# ---------------------------------------------------------------------------


def extract_subcircuit(circuit: Circuit, gate: int) -> Circuit:
    """Cone of one gate, densely renumbered, with that gate as output."""
    mask = circuit.cone(gate)
    remap = {}
    gates = []
    for g in range(gate + 1):
        if not mask[g]:
            continue
        old = circuit.gates[g]
        if old.children:
            old = Gate(old.kind, children=tuple(remap[c] for c in old.children))
        remap[g] = len(gates)
        gates.append(old)
    return Circuit(
        circuit.n, gates, remap[gate], field=circuit.field, name=f"{circuit.name}_g{gate}"
    )


def reduce_depth_delta(
    circuit: Circuit,
    delta: int,
    t: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[LayeredCircuit, ExpansionReport]:
    """Full pipeline to product depth at most Delta: balance when the input
    is not already balanced, then run one reduction level at the
    Delta-level threshold whose pool holds every bottom factor reduced to
    product depth Delta - 1 (expanded into monomials at Delta = 2).

    Each recursion level keeps the top-level size statistic s and budgets
    its threshold against the *parent level's* t (the bottom factors carry
    at most that much Var mass), so the per-level thresholds fall
    geometrically instead of resetting to the kn-based value.
    """
    if delta < 2:
        raise InvalidParams(f"delta must be >= 2, got {delta}")
    scan = check_balanced(circuit)
    if scan.halving_ok and scan.max_mul_fanin <= 5:
        bal = circuit
        s_stat = max(circuit.size(), 2)
    else:
        norm = normalized(circuit)
        s_stat = max(norm.size(), 2)
        bal, _ = balance(norm)
    k = max(inferred_k(bal), 1)
    potential = k * bal.n
    layered, report = _reduce_rec(bal, delta, potential, s_stat, t, budget)
    # flattened here, once: out_size, evaluation, expansion, reports and
    # serialization all read this circuit
    layered.flatten()
    return layered, report


def _reduce_rec(
    bal: Circuit,
    delta: int,
    potential: int,
    s_stat: int,
    t: Optional[int],
    budget: int,
) -> Tuple[LayeredCircuit, ExpansionReport]:
    """This level's threshold (t when given), then the level itself."""
    if t is not None:
        t_val = t
    else:
        # a sub-circuit may realize a smaller potential than its budget
        kn_here = max(inferred_k(bal), 1) * bal.n
        t_val = min(_threshold(potential, s_stat, delta), max(kn_here, 1))
    if delta == 2:
        return reduce_depth4(bal, t_val, budget, s_stat)
    return _reduce_level(bal, delta, t_val, s_stat, budget)
