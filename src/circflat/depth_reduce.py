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

Each public call scans its input with check_balanced once, and nested
levels trust their cones: a cone passes the scan whenever its parent
does.  The sum checks are local, and every non-root gate of a cone has a
parent inside it, so the one new check is the root's, a product against
its own |Var|.  A product factor is either the output, which the scan
always checks as a product, or a product's child, which it checks the
same way.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import backends
from .analysis import compute_var, inferred_k
from .balance import balance, check_balanced
from .circuit import ADD, CONST, MUL, Builder, Circuit, Gate, require_gate
from .errors import ExpansionTooLarge, InvalidParams, NotBalanced
from .expand import DEFAULT_BUDGET, CircuitExpander, brute_force_expand
from .normalize import normalized
from .sparse import SparsePolynomial
from .verify import envelope_ratio

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
        return envelope_ratio(self.out_size, self.k, self.n, self.t, self.s)

    def to_json_dict(self) -> dict:
        d = {key: getattr(self, key) for key in self._JSON_KEYS}
        d["top_fanin"] = int(d["top_fanin"])
        return d


# ---------------------------------------------------------------------------
# one reduction level
# ---------------------------------------------------------------------------


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
    _require_balanced(check_balanced(balanced))
    return _reduce_level(balanced, 2, t, s_stat, budget)


def _require_balanced(scan) -> None:
    """Refuse a circuit whose balance scan (a BalanceScan or balance()'s
    BalanceReport) fails the halving or fan-in condition."""
    if not scan.halving_ok or scan.max_mul_fanin > 5:
        raise NotBalanced(
            f"input fails the balance scan (halving_ok={scan.halving_ok}, "
            f"max_mul_fanin={scan.max_mul_fanin})"
        )


def _reduce_level(
    balanced: Circuit,
    delta: int,
    t: int,
    s_stat: Optional[int],
    budget: int,
) -> Tuple[LayeredCircuit, ExpansionReport]:
    """One reduction level of a circuit that passes the balance scan:
    explore to factors of |Var| at most t, then expand each factor gate
    (Delta = 2) or reduce its cone to product depth Delta - 1."""
    var = compute_var(balanced)
    k = max(var.max_coord, 1)
    n = balanced.n
    kn = max(k * n, 1)
    if not (1 <= t <= kn):
        raise InvalidParams(f"threshold t={t} outside [1, {kn}]")
    s = s_stat if s_stat is not None else max(balanced.size(), 2)
    zero_vals = balanced.gate_values([0] * n)
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

    # A child swaps its parent's heaviest gate for that gate's children,
    # which have smaller ids, so it is smaller than its parent.  Popped in
    # decreasing order, a node has received every contribution, and
    # ``states`` holds exactly the nodes on the heap.
    # state: factors tuple -> [coeff, count, depth]
    states: Dict[tuple, list] = {root: [root_coeff % p, 1, 0]}
    heap = [(heap_key(root), root)]
    leaves: Dict[tuple, list] = {}
    max_depth = 0

    while heap:
        _, factors = heapq.heappop(heap)
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
                heapq.heappush(heap, (heap_key(child), child))

    factor_gates = sorted({f for fac in leaves for f in fac})
    if delta == 2:
        expander = CircuitExpander(balanced, budget)
        pool = [expander.expand(g) for g in factor_gates]
    else:
        pool = [_reduce_cone(balanced, g, delta - 1, t, s, budget) for g in factor_gates]
    index = {g: i for i, g in enumerate(factor_gates)}
    products = []
    top_fanin = 0
    for fac in sorted(leaves):
        coeff, count, _ = leaves[fac]
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
    require_gate(circuit, gate)
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

    The input is scanned once.  When it has to be balanced, balance()'s
    own report of its output stands in for a second scan.
    """
    if delta < 2:
        raise InvalidParams(f"delta must be >= 2, got {delta}")
    scan = check_balanced(circuit)
    if scan.halving_ok and scan.max_mul_fanin <= 5:
        bal, s_stat = circuit, max(circuit.size(), 2)
    else:
        norm = normalized(circuit)
        s_stat = max(norm.size(), 2)
        bal, scan = balance(norm)
        _require_balanced(scan)
    if t is None:
        t = _threshold(max(inferred_k(bal), 1) * bal.n, s_stat, delta)
    layered, report = _reduce_level(bal, delta, t, s_stat, budget)
    # flattened here, once: out_size, evaluation, expansion, reports and
    # serialization all read this circuit
    layered.flatten()
    return layered, report


def _reduce_cone(
    balanced: Circuit, gate: int, delta: int, parent_t: int, s_stat: int, budget: int
) -> LayeredCircuit:
    """A nested level: the cone of one factor gate reduced to product depth
    Delta.  Its threshold keeps the top-level s and is budgeted against the
    parent level's t (the factor carries at most that much Var mass), so
    the thresholds fall geometrically; a cone may realize less than that.

    The cone passes the balance scan because its parent did (see the
    module docstring), so only a Delta = 2 cone, which enters through
    reduce_depth4, is scanned again."""
    cone = extract_subcircuit(balanced, gate)
    t = min(_threshold(parent_t, s_stat, delta), max(inferred_k(cone), 1) * cone.n)
    if delta == 2:
        return reduce_depth4(cone, t, budget, s_stat)[0]
    return _reduce_level(cone, delta, t, s_stat, budget)[0]
