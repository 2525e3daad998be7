"""Ground truth: proof-tree enumeration, randomized equivalence testing and
structural/bound reporting.

The exact oracle (:func:`circflat.expand.brute_force_expand`) and the
proof-tree enumerator here are independent routes to the same polynomial:
the value of a gate is the sum of the values of all proof-trees rooted at
it.  Cross-checking the two on small circuits validates both; randomized
evaluation at points of a large prime field covers everything bigger.

Structural reports are cheap scans.  The degree comes from a certificate,
not an expansion: one forward sweep carries each gate's formal degree D and
the leading coefficient of its value along the line lambda * a through a
fixed seeded point a (see :func:`_certified_degree`).  A nonzero
coefficient proves the degree is exactly D.  When it is zero
(cancellation, the zero polynomial or an unlucky point), the report falls
back to :func:`circflat.expand.brute_force_expand` within its budget, and
above the budget it reports D as an upper bound, marked inexact.

The enumerator carries each tree's exponent vector as one packed Python
int, so a product adds keys instead of zipping tuples.  It shares the key
encoding with the oracle, the packed form of :mod:`circflat.sparse`, so
the two polynomials compare on their packed dicts, but not the algorithm:
the enumerator lists one entry per tree and sums them only at the root,
where the oracle merges terms at every gate.  Its key width comes from
Var(root), the oracle's from the whole circuit; where they differ the
comparison falls back to exponent tuples.
"""

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import backends
from .analysis import compute_var
from .circuit import ADD, CONST, INPUT, MUL, Circuit, require_gate
from .errors import ExpansionTooLarge, IncompatibleArity, InvalidParams, TooManyProofTrees
from .expand import DEFAULT_BUDGET, brute_force_expand
from .sparse import SparsePolynomial, key_width, unpack_keys, variable_key

# ---------------------------------------------------------------------------
# proof-tree enumeration
# ---------------------------------------------------------------------------


def count_proof_trees(circuit: Circuit, root: int, snip: Optional[int] = None) -> int:
    """Number of (snipped) proof-trees rooted at ``root``, by a counting
    sweep; exact in arbitrary precision."""
    require_gate(circuit, root)
    if snip is not None:
        require_gate(circuit, snip)
    plain = [0] * (root + 1)
    for g in range(root + 1):
        gate = circuit.gates[g]
        if gate.kind in (INPUT, CONST):
            plain[g] = 1
        elif gate.kind == ADD:
            plain[g] = sum(plain[c] for c in gate.children)
        else:
            prod = 1
            for c in gate.children:
                prod *= plain[c]
            plain[g] = prod
    if snip is None:
        return plain[root]
    snipped = [0] * (root + 1)
    for g in range(root + 1):
        if g == snip:
            snipped[g] = 1
            continue
        gate = circuit.gates[g]
        if gate.kind == ADD:
            snipped[g] = sum(snipped[c] for c in gate.children)
        elif gate.kind == MUL:
            prod = snipped[gate.children[-1]]
            for c in gate.children[:-1]:
                prod *= plain[c]
            snipped[g] = prod
    return snipped[root]


class _TreeEnumerator:
    """Materializes every (snipped) proof-tree rooted at ``root`` as a packed
    monomial key and a coefficient, a residue mod p (a constant leaf is
    reduced); :meth:`paths` lists the trees' rightmost paths in the same
    order, for callers that want them.  Choice order follows child order,
    so the output is deterministic.

    Keys are in the packed form of :mod:`circflat.sparse`: variable i owns
    bytes [w*i, w*(i+1)) of the little-endian key, where w bytes hold the
    largest coordinate of Var(root).  No tree below the root, plain or
    snipped, has an exponent above Var(root), so adding the keys of a
    product's children never carries from one field into the next.
    """

    def __init__(self, circuit: Circuit, root: int, snip: Optional[int]):
        self.c = circuit
        self.snip = snip
        self.width = key_width(max(compute_var(circuit).vector(root), default=0))
        self.plain_memo = {}
        self.snip_memo = {}
        self.path_memo = {}

    def _products(self, lists: list) -> list:
        """(key sum, coefficient product) of every choice of one tree from
        each list, the last list's choice varying fastest."""
        p = self.c.field.p
        out = [(0, 1)]
        for trees in lists:
            out = [(key + e, coeff * co % p) for key, coeff in out for e, co in trees]
        return out

    def plain(self, g: int) -> list:
        if g in self.plain_memo:
            return self.plain_memo[g]
        gate = self.c.gates[g]
        if gate.kind == INPUT:
            out = [(variable_key(gate.var, self.width), 1)]
        elif gate.kind == CONST:
            out = [(0, gate.value % self.c.field.p)]
        elif gate.kind == ADD:
            out = [tree for c in gate.children for tree in self.plain(c)]
        else:
            out = self._products([self.plain(c) for c in gate.children])
        self.plain_memo[g] = out
        return out

    def snipped(self, g: int) -> list:
        if g in self.snip_memo:
            return self.snip_memo[g]
        gate = self.c.gates[g]
        if g == self.snip:
            out = [(0, 1)]
        elif gate.kind == ADD:
            out = [tree for c in gate.children for tree in self.snipped(c)]
        elif gate.kind == MUL:
            left = [self.plain(c) for c in gate.children[:-1]]
            out = self._products(left + [self.snipped(gate.children[-1])])
        else:
            out = []
        self.snip_memo[g] = out
        return out

    def paths(self, g: int, snipped: bool) -> list:
        """Rightmost path of each tree of ``snipped(g)`` or ``plain(g)``, in
        that list's order.  A product's trees run through the combinations
        of its other children, its last child's trees varying fastest."""
        if (g, snipped) in self.path_memo:
            return self.path_memo[g, snipped]
        gate = self.c.gates[g]
        if snipped and g == self.snip:
            out = [(g,)]
        elif gate.kind == ADD:
            out = [(g,) + rp for c in gate.children for rp in self.paths(c, snipped)]
        elif gate.kind == MUL:
            left = math.prod(len(self.plain(c)) for c in gate.children[:-1])
            out = [(g,) + rp for rp in self.paths(gate.children[-1], snipped)] * left
        else:
            out = [] if snipped else [(g,)]
        self.path_memo[g, snipped] = out
        return out


def _packed_trees(circuit: Circuit, root: int, snip: Optional[int], cap: int):
    """The enumerator and its list of (packed key, coefficient), after
    refusing more than ``cap`` trees."""
    count = count_proof_trees(circuit, root, snip)
    if count > cap:
        raise TooManyProofTrees(f"{count} proof-trees exceeds cap {cap}")
    enum = _TreeEnumerator(circuit, root, snip)
    return enum, (enum.plain(root) if snip is None else enum.snipped(root))


def enumerate_proof_trees_with_paths(
    circuit: Circuit, root: int, snip: Optional[int] = None, cap: int = 1 << 16
) -> List[Tuple[tuple, int, tuple]]:
    """(exponents, coefficient, rightmost path) per tree.  The coefficient
    is kept even when it is zero mod p: the trees are syntactic objects."""
    enum, trees = _packed_trees(circuit, root, snip, cap)
    exps = unpack_keys((key for key, _ in trees), circuit.n, enum.width)
    paths = enum.paths(root, snip is not None)
    return [(e, co, rp) for e, (_, co), rp in zip(exps, trees, paths)]


def enumerate_proof_trees(
    circuit: Circuit, root: int, snip: Optional[int] = None, cap: int = 1 << 16
) -> List[Tuple[tuple, int]]:
    """One monomial (exponent vector, coefficient) per (snipped) proof-tree."""
    enum, trees = _packed_trees(circuit, root, snip, cap)
    exps = unpack_keys((key for key, _ in trees), circuit.n, enum.width)
    return [(e, co) for e, (_, co) in zip(exps, trees)]


def proof_tree_sum(
    circuit: Circuit, root: int, snip: Optional[int] = None, cap: int = 1 << 16
) -> SparsePolynomial:
    """Sum of the values of all (snipped) proof-trees, as a polynomial
    over packed keys: coefficients are summed per key and reduced mod p,
    and keys whose sum is zero are dropped.  Tree coefficients are
    residues, so when no two trees share a key the trees' dict is the sum
    as it stands, less any zero coefficient."""
    enum, trees = _packed_trees(circuit, root, snip, cap)
    packed = dict(trees)
    if len(packed) != len(trees):  # keys repeat: sum each key's trees
        sums = {}
        for key, coeff in trees:
            sums[key] = sums.get(key, 0) + coeff
        p = circuit.field.p
        packed = {key: v % p for key, v in sums.items() if v % p}
    elif not all(packed.values()):  # residues already; a 0 leaf makes a 0
        packed = {key: v for key, v in packed.items() if v}
    return SparsePolynomial.from_packed(circuit.n, circuit.field, enum.width, packed)


# ---------------------------------------------------------------------------
# randomized equivalence
# ---------------------------------------------------------------------------

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"


@dataclass
class EquivResult:
    verdict: str
    trials: int
    seed: int
    witness: Optional[list] = None
    values: Optional[tuple] = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == EQUIVALENT

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
            "witness": self.witness,
            "values": list(self.values) if self.values else None,
        }


def _arity_of(obj):
    return obj.n, obj.field.p


def random_equiv(a, b, trials: int = 20, seed: int = 0) -> EquivResult:
    """Schwartz-Zippel identity test between two representations (circuits
    or layered circuits).  One-sided: NotEquivalent verdicts carry the
    witness point and both values; Equivalent means all trials agreed, so
    at least one trial is required (InvalidParams otherwise)."""
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1 for a verdict, got {trials}")
    na, pa = _arity_of(a)
    nb, pb = _arity_of(b)
    if na != nb or pa != pb:
        raise IncompatibleArity(f"n/modulus mismatch: ({na},{pa}) vs ({nb},{pb})")
    points = backends.random_point_batch(seed, trials, na, pa)
    va = a.evaluate_batch(points)
    vb = b.evaluate_batch(points)
    differ = np.flatnonzero(va != vb)
    if differ.shape[0]:
        t = int(differ[0])
        return EquivResult(
            NOT_EQUIVALENT,
            trials,
            seed,
            witness=[int(c) for c in points[t]],
            values=(int(va[t]), int(vb[t])),
        )
    return EquivResult(EQUIVALENT, trials, seed)


# ---------------------------------------------------------------------------
# structural and bound reports
# ---------------------------------------------------------------------------


@dataclass
class StructuralReport:
    """Size, gate counts, depths, fan-ins and Var of one scan, and the
    output's degree: exact when ``degree_exact``, otherwise an upper bound
    (the formal degree)."""

    kind: str
    n: int
    modulus: int
    size: int
    gate_counts: dict
    depth: int
    product_depth: int
    max_fanin_add: int
    max_fanin_mul: int
    k: int
    var_output: int
    degree: int
    degree_exact: bool
    top_fanin: Optional[int] = None

    def to_json_dict(self) -> dict:
        d = dict(self.__dict__)
        if d["top_fanin"] is not None:
            d["top_fanin"] = int(d["top_fanin"])
        return d


def _certified_degree(circuit: Circuit) -> Tuple[int, bool]:
    """The formal degree D of the output, and whether one evaluation proves
    it is the degree of the output's polynomial.

    One sweep carries each gate's formal degree D (an input 1, a constant
    0, a sum the max over its children, a product their sum) and the
    coefficient of lambda^D in its value at lambda * a, for a fixed point a
    drawn from ``random.Random(0)``: the degree-D homogeneous part
    evaluated at a.  A product multiplies its children's coefficients; a
    sum adds those of its children of formal degree D.  D bounds the degree
    from above, and a nonzero coefficient at the output shows the degree-D
    part is a nonzero polynomial, so the degree is exactly D.  The proof
    uses no randomness and no division, so it holds at every prime.  The
    point only decides how often the proof fails: a nonzero degree-D part
    vanishes at a random point with chance at most D/p (Schwartz 1980).
    """
    p = circuit.field.p
    rng = random.Random(0)
    point = [rng.randrange(p) for _ in range(circuit.n)]
    deg = [0] * circuit.num_gates
    lead = [0] * circuit.num_gates
    for g, gate in enumerate(circuit.gates):
        if gate.kind == INPUT:
            deg[g] = 1
            lead[g] = point[gate.var - 1]
        elif gate.kind == CONST:
            lead[g] = gate.value
        elif gate.kind == MUL:
            acc = 1
            for c in gate.children:
                deg[g] += deg[c]
                acc = acc * lead[c] % p
            lead[g] = acc
        else:
            top = max(deg[c] for c in gate.children)
            deg[g] = top
            lead[g] = sum(lead[c] for c in gate.children if deg[c] == top) % p
    return deg[circuit.output], lead[circuit.output] != 0


def structural_report(obj, degree_budget: int = DEFAULT_BUDGET) -> StructuralReport:
    """Deterministic full scan of a circuit or a layered circuit.

    A layered circuit is scanned flattened, but reports its own top fan-in
    and alternation structure: the scan of the flattened circuit would
    contract degenerate fan-in-1 layers.

    :func:`_certified_degree` proves the exact degree without expanding.
    Only when it cannot (cancellation, the zero polynomial or an unlucky
    point) does the report run ``brute_force_expand`` within
    ``degree_budget``; when that refuses, ``degree`` is the formal degree,
    an upper bound, and ``degree_exact`` is false."""
    layered = not isinstance(obj, Circuit)
    circuit = obj.flatten() if layered else obj
    var = compute_var(circuit)
    counts = {INPUT: 0, CONST: 0, ADD: 0, MUL: 0}
    max_add = 0
    max_mul = 0
    depth = [0] * circuit.num_gates
    pblocks = [0] * circuit.num_gates
    for g, gate in enumerate(circuit.gates):
        counts[gate.kind] += 1
        if gate.kind == ADD:
            max_add = max(max_add, gate.fanin())
        elif gate.kind == MUL:
            max_mul = max(max_mul, gate.fanin())
        if gate.children:
            depth[g] = 1 + max(depth[c] for c in gate.children)
            if gate.kind == MUL:
                pblocks[g] = max(
                    pblocks[c] if circuit.gates[c].kind == MUL else pblocks[c] + 1
                    for c in gate.children
                )
            else:
                pblocks[g] = max(pblocks[c] for c in gate.children)
    degree, exact = _certified_degree(circuit)
    if not exact:
        try:
            degree = brute_force_expand(circuit, degree_budget).total_degree()
            exact = True
        except ExpansionTooLarge:
            pass
    return StructuralReport(
        kind="layered" if layered else "circuit",
        n=circuit.n,
        modulus=circuit.field.p,
        size=circuit.size(),
        gate_counts=counts,
        depth=2 * obj.delta if layered else depth[circuit.output],
        product_depth=obj.product_depth() if layered else pblocks[circuit.output],
        max_fanin_add=max_add,
        max_fanin_mul=max_mul,
        k=var.max_coord,
        var_output=var.total(circuit.output),
        degree=degree,
        degree_exact=exact,
        top_fanin=obj.top_fanin() if layered else None,
    )


def envelope_ratio(size: int, k: int, n: int, t: int, s: int) -> float:
    """log2(size) over the envelope k*t + (kn/t)*log2(s), kn at least 1."""
    kn = max(k * n, 1)
    envelope = k * t + (kn / t) * math.log2(max(s, 2))
    return math.log2(max(size, 1)) / envelope if envelope > 0 else float("inf")


@dataclass
class BoundReport:
    """Measured size/fan-in growth against the schedule's envelope.

    bound_ratio compares log2 of the output size to k*t + (kn/t)*log2(s);
    topfanin_ratio compares log_s of the top fan-in to kn/t.  Nothing is
    asserted here beyond finiteness: the constants hidden by the theory are
    reported, not assumed.
    """

    n: int
    k: int
    s: int
    t: int
    delta: int
    before_size: int
    after_size: int
    top_fanin: int
    bound_ratio: float
    topfanin_ratio: float

    def to_json_dict(self) -> dict:
        d = dict(self.__dict__)
        d["top_fanin"] = int(d["top_fanin"])
        return d


def check_bounds(before: StructuralReport, after: StructuralReport, schedule) -> BoundReport:
    n, k, s, t = schedule.n, schedule.k, schedule.s, schedule.t_value
    top = after.top_fanin if after.top_fanin is not None else 1
    top = max(int(top), 1)
    denom = (k * n / t) * math.log2(max(s, 2))
    topfanin_ratio = math.log2(top) / denom if denom > 0 else float("inf")
    return BoundReport(
        n=n,
        k=k,
        s=s,
        t=t,
        delta=schedule.delta,
        before_size=before.size,
        after_size=after.size,
        top_fanin=top,
        bound_ratio=envelope_ratio(after.size, k, n, t, s),
        topfanin_ratio=topfanin_ratio,
    )
