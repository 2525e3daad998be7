"""The Var analysis.

Var(g) is the per-variable vector of maximal formal degrees over all
proof-trees rooted at g: an input x_i contributes the i-th unit vector, a
constant contributes zero, a product gate sums its children's vectors
(both children of a product appear in every proof-tree through it) and a
sum gate takes the coordinate-wise max (each proof-tree commits to one
branch).  |Var(g)|, the coordinate sum, is the potential driving every
transformation in this package: a circuit is syntactically multilinear
when all coordinates stay <= 1 and multi-k-ic when they stay <= k.
"""

from typing import List, Optional, Tuple

from .circuit import CONST, INPUT, MUL, Circuit

VarVector = Tuple[int, ...]


def vec_add(a: VarVector, b: VarVector) -> VarVector:
    return tuple(x + y for x, y in zip(a, b))


def vec_max(a: VarVector, b: VarVector) -> VarVector:
    return tuple(x if x >= y else y for x, y in zip(a, b))


class VarTable:
    """Per-gate Var vectors plus their totals, from one topological sweep."""

    def __init__(self, vectors: List[VarVector]):
        self.vectors = vectors
        self.totals = [sum(v) for v in vectors]
        self.max_coord = max((max(v, default=0) for v in vectors), default=0)

    def vector(self, g: int) -> VarVector:
        return self.vectors[g]

    def total(self, g: int) -> int:
        return self.totals[g]

    def __getitem__(self, g: int) -> VarVector:
        return self.vectors[g]

    def __len__(self):
        return len(self.vectors)


def compute_var(circuit: Circuit) -> VarTable:
    """Var vector of every gate.  Cached on the circuit."""
    cached = circuit.__dict__.get("_var_table")
    if cached is not None:
        return cached
    n = circuit.n
    zero = (0,) * n
    vectors: List[VarVector] = []
    for g in circuit.gates:
        if g.kind == INPUT:
            vectors.append(tuple(1 if i == g.var - 1 else 0 for i in range(n)))
        elif g.kind == CONST:
            vectors.append(zero)
        elif g.kind == MUL:
            acc = vectors[g.children[0]]
            for c in g.children[1:]:
                acc = vec_add(acc, vectors[c])
            vectors.append(acc)
        else:
            acc = vectors[g.children[0]]
            for c in g.children[1:]:
                acc = vec_max(acc, vectors[c])
            vectors.append(acc)
    table = VarTable(vectors)
    circuit.__dict__["_var_table"] = table
    return table


def check_multi_k_ic(circuit: Circuit, k: int):
    """Whether every coordinate of every gate's Var vector is <= k.

    k = 1 is the syntactic multilinearity check.  Returns the verdict and
    the list of violating gate ids.
    """
    table = compute_var(circuit)
    bad = [g for g in range(circuit.num_gates) if any(d > k for d in table.vector(g))]
    return len(bad) == 0, bad


def inferred_k(circuit: Circuit) -> int:
    """Smallest k for which the circuit is multi-k-ic (max Var coordinate)."""
    return compute_var(circuit).max_coord


def live_variable(vec: VarVector) -> Optional[int]:
    """0-based index of the unique variable with nonzero coordinate, or None
    for an all-zero vector.  Only meaningful when |vec| <= 1."""
    for i, d in enumerate(vec):
        if d:
            return i
    return None
