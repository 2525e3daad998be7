"""The Var analysis.

Var(g) is the per-variable vector of maximal formal degrees over all
proof-trees rooted at g: an input x_i contributes the i-th unit vector, a
constant contributes zero, a product gate sums its children's vectors
(both children of a product appear in every proof-tree through it) and a
sum gate takes the coordinate-wise max (each proof-tree commits to one
branch).  |Var(g)|, the coordinate sum, is the potential driving every
transformation in this package: a circuit is syntactically multilinear
when all coordinates stay <= 1 and multi-k-ic when they stay <= k.

Vectors are packed, one Python int per gate, in the little-endian layout
of :mod:`circflat.sparse`'s packed keys: variable i owns bytes
[w*i, w*(i+1)).  A product's vector is then the integer sum of its
children's, and a sum's is a fieldwise max computed on whole ints, SIMD
within a register (Knuth, TAOCP 4A, section 7.1.3).  The max needs the top
bit of every field, its guard bit, to be clear, and |Var| is read off as
one multiply and shift that gathers the n fields into the top one.  Both
hold when w = key_width(2*n*D), where D is the largest formal degree of
any gate, from one cheap sweep: every coordinate and every |Var| is at
most n*D, below the guard bit.  Tuples are unpacked only on request.
"""

from typing import List, Tuple

from .circuit import ADD, INPUT, MUL, Circuit
from .sparse import key_width, unpack_keys

VarVector = Tuple[int, ...]


class VarTable:
    """Per-gate Var vectors, packed, plus their totals, from one topological
    sweep.  ``packed[g]`` is Var(g) as an int; :meth:`vector` unpacks it.
    The field arithmetic here also serves the quotient tables, which pack
    Var(u:v) at the same width."""

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        self.bits = bits = 8 * width
        self.ones = sum(1 << (bits * i) for i in range(n))
        self.guard = self.ones << (bits - 1)
        self._shift = bits * max(n - 1, 0)
        self._field = (1 << bits) - 1
        self.packed: List[int] = []
        self.totals: List[int] = []
        self.max_coord = 0

    def fmax(self, a: int, b: int) -> int:
        """Fieldwise max of two packed vectors."""
        m = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (m - (m >> (self.bits - 1))))

    def fsum(self, v: int) -> int:
        """Sum of the fields of a packed vector."""
        return (v * self.ones) >> self._shift & self._field

    def unpack(self, v: int) -> VarVector:
        return unpack_keys((v,), self.n, self.width)[0]

    def vector(self, g: int) -> VarVector:
        return self.unpack(self.packed[g])

    def total(self, g: int) -> int:
        return self.totals[g]

    def __getitem__(self, g: int) -> VarVector:
        return self.vector(g)

    def __len__(self):
        return len(self.packed)


def _max_formal_degree(circuit: Circuit) -> int:
    deg = []
    for g in circuit.gates:
        if g.kind == MUL:
            d = 0
            for c in g.children:
                d += deg[c]
        elif g.kind == ADD:
            d = max(map(deg.__getitem__, g.children))
        else:
            d = 1 if g.kind == INPUT else 0
        deg.append(d)
    return max(deg, default=0)


def compute_var(circuit: Circuit) -> VarTable:
    """Var vector of every gate.  Cached on the circuit."""
    cached = circuit.__dict__.get("_var_table")
    if cached is not None:
        return cached
    n = circuit.n
    table = VarTable(n, key_width(2 * n * _max_formal_degree(circuit)))
    fmax, fsum, bits = table.fmax, table.fsum, table.bits
    vectors, totals = table.packed, table.totals
    top = 0
    for g in circuit.gates:
        if g.kind == MUL:
            v = t = 0
            for c in g.children:
                v += vectors[c]
                t += totals[c]
        elif g.kind == ADD:
            kids = g.children
            v = vectors[kids[0]]
            for c in kids[1:]:
                v = fmax(v, vectors[c])
            t = fsum(v)
        elif g.kind == INPUT:
            v, t = 1 << (bits * (g.var - 1)), 1
        else:
            v = t = 0
        vectors.append(v)
        totals.append(t)
        top = fmax(top, v)
    table.max_coord = max(table.unpack(top), default=0)
    circuit.__dict__["_var_table"] = table
    return table


def check_multi_k_ic(circuit: Circuit, k: int):
    """Whether every coordinate of every gate's Var vector is <= k.

    k = 1 is the syntactic multilinearity check.  Returns the verdict and
    the list of violating gate ids.
    """
    table = compute_var(circuit)
    if k >= table.max_coord:
        return True, []
    # (x | guard) - (k + 1) keeps a field's guard bit iff x >= k + 1, and
    # k + 1 <= max_coord stays below the guard bit
    guard = table.guard
    probe = max(k + 1, 0) * table.ones
    bad = [g for g, v in enumerate(table.packed) if ((v | guard) - probe) & guard]
    return not bad, bad


def inferred_k(circuit: Circuit) -> int:
    """Smallest k for which the circuit is multi-k-ic (max Var coordinate)."""
    return compute_var(circuit).max_coord
