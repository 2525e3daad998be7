"""Exact sparse expansion of circuit gates.

The polynomial computed at a gate has at most prod_i (1 + d_i) monomials,
where (d_1, ..., d_n) is the gate's Var vector, so expansion is feasible
exactly when that product stays within a budget.  One sweep serves every
prime: each gate's polynomial is a dict from a packed Python-int exponent
key to a coefficient mod p, so a sum merges dicts and a product adds keys
and multiplies coefficients, reducing once per output key.  The
polynomials met here are mostly a handful of terms, where one dict
operation is far cheaper than one numpy call.
"""

from typing import Dict

from .analysis import compute_var
from .circuit import ADD, CONST, INPUT, Circuit
from .errors import ExpansionTooLarge
from .sparse import SparsePolynomial

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
    expands many bottom factors of the same balanced circuit).  Each gate's
    polynomial is a dict from a packed Python-int exponent key to a
    coefficient mod p.  Variable i owns bytes [w*i, w*(i+1)) of the key,
    where w bytes hold the largest coordinate of *any* gate's Var vector:
    no gate, in the output's cone or not, has an exponent above its Var
    vector, so adding the keys of a product's children never carries from
    one field into the next.
    """

    def __init__(self, circuit: Circuit, budget: int = DEFAULT_BUDGET):
        self.circuit = circuit
        self.budget = budget
        self.var = compute_var(circuit)
        self.width = max((self.var.max_coord.bit_length() + 7) // 8, 1)
        self._polys: Dict[int, Dict[int, int]] = {}

    def check_budget(self, gate: int) -> int:
        bound = expansion_bound(self.circuit, gate)
        if bound > self.budget:
            raise ExpansionTooLarge(
                f"gate {gate}: monomial bound {bound} exceeds budget {self.budget}"
            )
        return bound

    def expand(self, gate: int) -> SparsePolynomial:
        self.check_budget(gate)
        c = self.circuit
        w = self.width
        nbytes = w * c.n
        terms = {}
        for key, coeff in self._sweep(gate).items():
            raw = key.to_bytes(nbytes, "little")
            exps = tuple(raw) if w == 1 else tuple(
                int.from_bytes(raw[i : i + w], "little") for i in range(0, nbytes, w)
            )
            terms[exps] = coeff
        return SparsePolynomial(c.n, c.field, terms)

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
                memo[g] = {1 << (8 * self.width * (gd.var - 1)): 1}
            elif gd.kind == CONST:
                memo[g] = {0: gd.value % p} if gd.value % p else {}
            elif gd.kind == ADD:
                acc = dict(memo[gd.children[0]])
                for ch in gd.children[1:]:
                    for k, v in memo[ch].items():
                        acc[k] = acc.get(k, 0) + v
                memo[g] = {k: v % p for k, v in acc.items() if v % p}
            else:
                acc = memo[gd.children[0]]
                for ch in gd.children[1:]:
                    out: Dict[int, int] = {}
                    get = out.get
                    for kb, cb in memo[ch].items():
                        for ka, ca in acc.items():
                            k = ka + kb
                            out[k] = get(k, 0) + ca * cb
                    acc = {k: v % p for k, v in out.items() if v % p}
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
