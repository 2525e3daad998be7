"""Exact sparse expansion of circuit gates.

The polynomial computed at a gate has at most prod_i (1 + d_i) monomials,
where (d_1, ..., d_n) is the gate's Var vector, so expansion is feasible
exactly when that product stays within a budget.  One sweep serves every
prime: each gate's polynomial is a dict in the packed form of
:mod:`circflat.sparse`, from a Python-int exponent key to a coefficient
mod p, so a sum merges dicts and a product adds keys and multiplies
coefficients.  The polynomials met here are mostly a handful of terms,
where one dict operation is far cheaper than one numpy call.  A gate's
dict becomes its polynomial as it is; exponent tuples are built only if a
caller reads the terms.

Each product step is one dict comprehension over the term pairs, and each
sum one ``update`` per child.  In a syntactically multilinear circuit a
product's factors have disjoint variables, so their monomials never
collide, and a sum's children mostly share no monomial either.  The
comprehension is then exact: it has one entry per pair, and a product of
two nonzero residues mod a prime is nonzero.  So is the update when its
length is the children's lengths added up.  Only when keys collided does
the step fall back to summing per key and reducing once per output key.
Both ways insert keys in the same order.
"""

from typing import Dict

from .analysis import compute_var
from .circuit import ADD, CONST, INPUT, Circuit, require_gate
from .errors import ExpansionTooLarge
from .sparse import SparsePolynomial, key_width, variable_key

DEFAULT_BUDGET = 1 << 20


def expansion_bound(circuit: Circuit, gate: int) -> int:
    """prod_i (1 + Var(gate)_i): an upper bound on the monomial count."""
    vec = compute_var(circuit).vector(gate)
    bound = 1
    for d in vec:
        bound *= 1 + d
    return bound


class CircuitExpander:
    """Memoized gate-by-gate expansion over one circuit.

    A single instance shares work between gates (the depth-4 reduction
    expands many bottom factors of the same balanced circuit).  The sweep
    never changes a memoized dict, so :meth:`SparsePolynomial.from_packed`
    may keep it.  Each variable's w key bytes hold the largest coordinate
    of *any* gate's Var vector: no gate, in the output's cone or not, has
    an exponent above its Var vector, so adding the keys of a product's
    children never carries from one field into the next.
    """

    def __init__(self, circuit: Circuit, budget: int = DEFAULT_BUDGET):
        self.circuit = circuit
        self.budget = budget
        self.var = compute_var(circuit)
        self.width = key_width(self.var.max_coord)
        self._polys: Dict[int, Dict[int, int]] = {}

    def check_budget(self, gate: int) -> int:
        bound = expansion_bound(self.circuit, gate)
        if bound > self.budget:
            raise ExpansionTooLarge(
                f"gate {gate}: monomial bound {bound} exceeds budget {self.budget}"
            )
        return bound

    def expand(self, gate: int) -> SparsePolynomial:
        require_gate(self.circuit, gate)
        self.check_budget(gate)
        c = self.circuit
        return SparsePolynomial.from_packed(c.n, c.field, self.width, self._sweep(gate))

    def _sweep(self, gate: int) -> Dict[int, int]:
        """Key -> coefficient dict of ``gate``, expanding every gate of its
        cone that is not memoized yet, children first."""
        memo = self._polys
        c = self.circuit
        p = c.field.p
        todo = set()
        stack = [gate]
        while stack:
            g = stack.pop()
            if g not in memo and g not in todo:
                todo.add(g)
                stack.extend(c.gates[g].children)
        for g in sorted(todo):
            gd = c.gates[g]
            if gd.kind == INPUT:
                memo[g] = {variable_key(gd.var, self.width): 1}
            elif gd.kind == CONST:
                memo[g] = {0: gd.value % p} if gd.value % p else {}
            elif gd.kind == ADD:
                kids = [memo[ch] for ch in gd.children]
                acc = dict(kids[0])
                for d in kids[1:]:
                    acc.update(d)
                if len(acc) != sum(map(len, kids)):  # keys collided
                    acc = dict(kids[0])
                    for d in kids[1:]:
                        for k, v in d.items():
                            acc[k] = acc.get(k, 0) + v
                    acc = {k: v % p for k, v in acc.items() if v % p}
                memo[g] = acc
            else:
                acc = memo[gd.children[0]]
                for ch in gd.children[1:]:
                    other = memo[ch]
                    out = {
                        ka + kb: ca * cb % p for kb, cb in other.items() for ka, ca in acc.items()
                    }
                    if len(out) != len(acc) * len(other):  # keys collided
                        out = {}
                        get = out.get
                        for kb, cb in other.items():
                            for ka, ca in acc.items():
                                k = ka + kb
                                out[k] = get(k, 0) + ca * cb
                        out = {k: v % p for k, v in out.items() if v % p}
                    acc = out
                memo[g] = acc
        return memo[gate]


def expand_gate(
    circuit: Circuit, gate: int, budget: int = DEFAULT_BUDGET
) -> SparsePolynomial:
    """Exact sparse polynomial computed at one gate; refuses when the
    monomial bound prod_i (1 + Var(gate)_i) exceeds the budget."""
    return CircuitExpander(circuit, budget).expand(gate)


def brute_force_expand(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> SparsePolynomial:
    """Exact sparse polynomial of the output gate: the semantic oracle."""
    return CircuitExpander(circuit, budget).expand(circuit.output)
