"""Gate quotients, frontier edges and the decomposition identity checker.

The gate quotient [u:v] is defined by a four-case structural recursion:

    [u:v] = 1                        if u = v,
    [u:v] = [u1:v] + [u2:v]          if u = u1 + u2,
    [u:v] = [uL] * [uR:v]            if u = uL x uR,
    [u:v] = 0                        if v never appears on a path that
                                     descends through right children of
                                     products (and any child of sums).

Equivalently, [u:v] is the sum of the values of all proof-trees rooted at u
in which v, occurring on the rightmost path, is replaced by the leaf 1
("v-snipped" trees).  A gate v is *quotient-reachable* from u when at least
one such tree exists; for unreachable pairs the quotient is identically
zero and its Var vector is left absent (a zero vector would corrupt the
max-recurrence at sum gates).

An m-frontier edge is an edge (g1, g2) where the potential |Var| crosses
the threshold m: |Var(g1)| >= m > |Var(g2)| (or the same condition on the
quotient vectors Var(.:v) in the with-respect-to-v variant).  Along the
rightmost path of any proof-tree the potential is monotone non-increasing,
so each such path crosses the frontier at most once; this is what makes
the decomposition identities exact.  The checker here evaluates both sides
of the applicable identity at random points:

    [u]   = sum over x-frontier edges (w,z) of [u:w]*[wL]*[z]
          + sum over +-frontier edges (w,z) of [u:w]*[z]

and, with respect to a fixed v (frontier taken on quotient vectors),

    [u:v] = sum over x-frontier edges (w,z) of [u:w]*[wL]*[z:v]
          + sum over +-frontier edges (w,z) of [u:w]*[z:v].

In the product sums z is the *right* child of w (rightmost paths descend
through right children, so edges into left children never lie on one);
the public frontier-edge listing, by contrast, reports every qualifying
edge regardless of side.  Two boundary conditions matter and are enforced
by the callers in this package:

* the plain identity needs m >= 2, since a rightmost path ending in a
  variable leaf never drops below potential 1 and would miss an m = 1
  frontier;
* the quotient identity needs |Var(u:v)| >= m (not merely |Var(u)| >= m):
  the crossing happens on the quotient potential, which starts at
  |Var(u:v)| and falls to 0 at the snipped leaf.
"""

import re
from dataclasses import dataclass, field as dc_field
from itertools import compress
from typing import List, Optional, Tuple

import numpy as np

from . import backends
from .analysis import VarVector, compute_var
from .circuit import ADD, MUL, Circuit, require_gate, require_valid
from .errors import InvalidCircuit, InvalidParams, PreconditionViolated


class QuotientTable:
    """Reachability and Var(u:v) for every gate u against a fixed target v.

    Vectors are packed like the plain Var table's, at its width, which
    holds them too: every v-snipped proof-tree under u is a plain tree of u
    with a subtree replaced by the leaf 1, so Var(u:v) <= Var(u)
    coordinatewise.  ``packed[u]`` and ``totals[u]`` are None, and
    :meth:`vector` returns None, for gates u that do not reach v.
    """

    def __init__(self, circuit: Circuit, v: int):
        self.target = v
        self.plain = plain = compute_var(circuit)
        fmax, fsum = plain.fmax, plain.fsum
        plain_vecs, plain_totals = plain.packed, plain.totals
        gates = circuit.gates
        ng = circuit.num_gates
        # children precede parents, so no gate below v reaches it
        vectors: List[Optional[int]] = [None] * ng
        totals: List[Optional[int]] = [None] * ng
        vectors[v] = totals[v] = 0
        for g in range(v + 1, ng):
            gate = gates[g]
            if gate.kind == ADD:
                acc = None
                for c in gate.children:
                    vc = vectors[c]
                    if vc is not None:
                        acc = vc if acc is None else fmax(acc, vc)
                if acc is not None:
                    vectors[g] = acc
                    totals[g] = fsum(acc)
            elif gate.kind == MUL:
                last = gate.children[-1]
                acc = vectors[last]
                if acc is not None:
                    t = totals[last]
                    for c in gate.children[:-1]:
                        acc += plain_vecs[c]
                        t += plain_totals[c]
                    vectors[g] = acc
                    totals[g] = t
        self.packed = vectors
        self.totals = totals
        self.reachable = [vec is not None for vec in vectors]

    def vector(self, g: int) -> Optional[VarVector]:
        vec = self.packed[g]
        return None if vec is None else self.plain.unpack(vec)

    def total(self, g: int) -> Optional[int]:
        return self.totals[g]


def rightmost_reach(circuit: Circuit) -> List[int]:
    """Per gate u, the gates w quotient-reachable from u ([u:w] not
    identically zero) as an int bitset: u itself, every child's set for a
    sum, the last child's set for a product.  One sweep, cached."""
    reach = circuit.__dict__.get("_rightmost_reach")
    if reach is None:
        reach = []
        for g, gate in enumerate(circuit.gates):
            bits = 1 << g
            if gate.kind == ADD:
                for c in gate.children:
                    bits |= reach[c]
            elif gate.kind == MUL:
                bits |= reach[gate.children[-1]]
            reach.append(bits)
        circuit.__dict__["_rightmost_reach"] = reach
    return reach


def quotient_table(circuit: Circuit, v: int) -> QuotientTable:
    """Var(u:v) table for all u in one topological sweep (cached).

    Callers should hand in a binary circuit; products of higher fan-in are
    treated as left-associated, with the snip descending into the last
    child.
    """
    require_gate(circuit, v)
    cache = circuit.__dict__.setdefault("_quotient_tables", {})
    table = cache.get(v)
    if table is None:
        table = QuotientTable(circuit, v)
        cache[v] = table
    return table


# ---------------------------------------------------------------------------
# quotient evaluation
# ---------------------------------------------------------------------------


def quotient_values_batch(circuit: Circuit, v: int, columns) -> list:
    """[g:v] for every gate g at each point of ``columns``, which holds one
    list of plain gate values per point (as from ``Circuit.gate_values``).

    Runs the four-case recursion in plain Python, one pass per point over
    the gates quotient-reachable from v; every other gate's quotient is
    zero.  Callers sweep a few points at a time, where a Python pass costs
    less than the fixed cost of a numpy call per gate.
    """
    p = circuit.field.p
    gates = circuit.gates
    reachable = quotient_table(circuit, v).reachable
    order = list(compress(range(v + 1, len(gates)), reachable[v + 1 :]))
    out = []
    for vals in columns:
        q = [0] * len(gates)
        q[v] = 1
        for g in order:
            gate = gates[g]
            if gate.kind == ADD:
                acc = 0
                for c in gate.children:
                    acc += q[c]
                q[g] = acc % p
            else:
                acc = q[gate.children[-1]]
                for c in gate.children[:-1]:
                    acc = acc * vals[c] % p
                q[g] = acc
        out.append(q)
    return out


def eval_quotient(circuit: Circuit, u: int, v: int, point) -> int:
    """Value of the polynomial [u:v] at a point."""
    require_gate(circuit, u)  # quotient_table checks v
    return quotient_values_batch(circuit, v, [circuit.gate_values(point)])[0][u]


# ---------------------------------------------------------------------------
# frontier edges
# ---------------------------------------------------------------------------


def _potentials(circuit: Circuit, target: Optional[int]) -> list:
    """Every gate's |Var|, or with a target its |Var(.:target)|, where None
    marks a gate that does not reach the target."""
    if target is None:
        return compute_var(circuit).totals
    return quotient_table(circuit, target).totals


@dataclass
class FrontierSet:
    """All edges where the potential crosses the threshold m."""

    m: int
    target: Optional[int]
    mul_edges: List[Tuple[int, int]]
    add_edges: List[Tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "target": self.target,
            "mul_edges": [list(e) for e in self.mul_edges],
            "add_edges": [list(e) for e in self.add_edges],
        }


def frontier_edges(circuit: Circuit, m: int, target: Optional[int] = None) -> FrontierSet:
    """Every edge (g1, g2) with |Var(g1)| >= m and |Var(g2)| < m, split by
    the kind of the parent gate; with a target, the condition is taken on
    the quotient vectors over quotient-reachable gates.  Edges are reported
    deduplicated in lexicographic order."""
    require_valid(circuit)
    if m < 1:
        raise PreconditionViolated(f"threshold m must be positive, got {m}")
    totals = _potentials(circuit, target)
    mul_edges = set()
    add_edges = set()
    for g1, gate in enumerate(circuit.gates):
        if gate.kind not in (ADD, MUL) or totals[g1] is None or totals[g1] < m:
            continue
        for g2 in gate.children:
            if totals[g2] is not None and totals[g2] < m:
                (mul_edges if gate.kind == MUL else add_edges).add((g1, g2))
    return FrontierSet(m, target, sorted(mul_edges), sorted(add_edges))


@dataclass
class DecompositionTerm:
    """One summand of a decomposition identity: the frontier gate w, the
    frontier child z and whether w is a product (3-factor term) or a sum
    (2-factor term)."""

    w: int
    z: int
    is_mul: bool


def decomposition_terms(
    circuit: Circuit, u: int, m: int, target: Optional[int] = None
) -> List[DecompositionTerm]:
    """Frontier summands contributing to the decomposition of [u] (or of
    [u:target]).

    Product edges descend into the right child only, and edges whose
    quotient [u:w] or tail [z:target] is identically zero are dropped;
    both filters only remove summands that contribute nothing.
    """
    require_gate(circuit, u)
    totals = _potentials(circuit, target)
    terms = []
    # the gates on rightmost paths under u, lowest id first
    reach = bin(rightmost_reach(circuit)[u])[:1:-1]
    for match in re.finditer("1", reach):
        w = match.start()
        if totals[w] is None or totals[w] < m:
            continue
        gate = circuit.gates[w]
        if gate.kind == MUL:
            z = gate.children[-1]
            if totals[z] is not None and totals[z] < m:
                terms.append(DecompositionTerm(w, z, True))
        elif gate.kind == ADD:
            for z in gate.children:
                if totals[z] is not None and totals[z] < m:
                    terms.append(DecompositionTerm(w, z, False))
    return terms


# ---------------------------------------------------------------------------
# identity checker
# ---------------------------------------------------------------------------


@dataclass
class DecompositionCheck:
    holds: bool
    equation: int
    u: int
    v: Optional[int]
    m: int
    trials: int
    seed: int
    vacuous: bool = False
    term_count: int = 0
    failed_trials: List[int] = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "equation": self.equation,
            "u": self.u,
            "v": self.v,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "vacuous": self.vacuous,
            "term_count": self.term_count,
            "failed_trials": self.failed_trials,
        }


def check_decomposition(
    circuit: Circuit,
    u: int,
    v: Optional[int],
    m: int,
    trials: int = 20,
    seed: int = 0,
) -> DecompositionCheck:
    """Numerically verify the decomposition identity at random points.

    Without v this checks the plain identity for [u]; with v, the
    with-respect-to-v identity for [u:v].  Points are drawn from
    counter-based streams keyed (seed, trial), so verdicts are reproducible.
    The identities are exact, so any disagreement is a hard failure; a
    verdict needs at least one trial (InvalidParams otherwise).
    """
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1 for a verdict, got {trials}")
    require_valid(circuit)
    require_gate(circuit, u)
    if v is not None:
        require_gate(circuit, v)
    if any(g.fanin() > 2 for g in circuit.gates):
        raise InvalidCircuit("decomposition checks need fan-in <= 2 (normalize first)")
    table = compute_var(circuit)
    if m < 1:
        raise PreconditionViolated(f"threshold m must be positive, got {m}")
    if table.total(u) < m:
        raise PreconditionViolated(
            f"|Var(u)| = {table.total(u)} < m = {m} for gate {u}"
        )
    if v is not None and table.total(v) >= m:
        raise PreconditionViolated(
            f"|Var(v)| = {table.total(v)} >= m = {m} for gate {v}"
        )

    equation = 1 if v is None else 2
    if v is not None and not quotient_table(circuit, v).reachable[u]:
        # v never occurs on a rightmost path under u: both sides are the
        # zero polynomial and the identity holds vacuously.
        return DecompositionCheck(
            True, equation, u, v, m, trials, seed, vacuous=True, term_count=0
        )

    terms = decomposition_terms(circuit, u, m, target=v)
    p = circuit.field.p
    dtype = backends.field_dtype(p)
    pw = dtype.type(p)
    vals = circuit.eval_table(backends.random_point_batch(seed, trials, circuit.n, p))
    columns = vals.T.tolist()
    qcache = {}

    def qrow(target: int) -> np.ndarray:
        if target not in qcache:
            q = quotient_values_batch(circuit, target, columns)
            qcache[target] = np.array(q, dtype=dtype).T
        return qcache[target]

    ones = np.ones(trials, dtype=dtype)
    if v is None:
        lhs = vals[u].copy()
    else:
        lhs = qrow(v)[u].copy()
    rhs = np.zeros(trials, dtype=dtype)
    for t in terms:
        factor = ones if t.w == u else qrow(t.w)[u]
        if t.is_mul:
            gate_w = circuit.gates[t.w]
            if gate_w.fanin() == 2:
                factor = backends.mulmod_vec(factor, vals[gate_w.children[0]], pw)
        tail = vals[t.z] if v is None else qrow(v)[t.z]
        rhs = backends.addmod_vec(rhs, backends.mulmod_vec(factor, tail, pw), pw)
    agree = lhs == rhs
    failed = [int(i) for i in np.nonzero(~agree)[0]]

    return DecompositionCheck(
        holds=not failed,
        equation=equation,
        u=u,
        v=v,
        m=m,
        trials=trials,
        seed=seed,
        term_count=len(terms),
        failed_trials=failed,
    )
