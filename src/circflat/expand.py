"""Exact sparse expansion of circuit gates.

The polynomial computed at a gate has at most prod_i (1 + d_i) monomials,
where (d_1, ..., d_n) is the gate's Var vector, so expansion is feasible
exactly when that product stays within a budget.  When the modulus is
kernel-capable and the exponent bounds fit 63 bits, the sweep works on
packed uint64 arrays (one key per monomial); otherwise it falls back to
dictionary arithmetic.  Either way the result is exact.
"""

from typing import Dict

import numpy as np

from . import backends
from .analysis import compute_var
from .circuit import ADD, CONST, INPUT, Circuit
from .errors import ExpansionTooLarge
from .sparse import PackSpec, SparsePolynomial, unpack_poly

DEFAULT_BUDGET = 1 << 20


def expansion_bound(circuit: Circuit, gate: int) -> int:
    """prod_i (1 + Var(gate)_i): an upper bound on the monomial count."""
    vec = compute_var(circuit).vector(gate)
    bound = 1
    for d in vec:
        bound *= 1 + d
    return bound


def _packed_mul_chunked(ka, ca, kb, cb, p):
    """Product of two packed polynomials, chunking the outer product so
    intermediate buffers stay within the merge-safe size."""
    na, nb = ka.shape[0], kb.shape[0]
    if na == 0 or nb == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    limit = backends.MAX_MERGE_TERMS
    if na * nb <= limit:
        return backends.mul_packed(ka, ca, kb, cb, p)
    if na < nb:
        ka, ca, kb, cb = kb, cb, ka, ca
        na, nb = nb, na
    chunk = max(1, limit // (2 * nb))
    acc_k = np.empty(0, dtype=np.uint64)
    acc_c = np.empty(0, dtype=np.uint64)
    for start in range(0, na, chunk):
        part_k, part_c = backends.mul_packed(
            ka[start : start + chunk], ca[start : start + chunk], kb, cb, p
        )
        acc_k = np.concatenate([acc_k, part_k])
        acc_c = np.concatenate([acc_c, part_c])
        acc_k, acc_c = backends.merge_packed(acc_k, acc_c, p)
    return acc_k, acc_c


class CircuitExpander:
    """Memoized gate-by-gate expansion over one circuit.

    A single instance shares work between gates (the depth-4 reduction
    expands many bottom factors of the same balanced circuit).
    """

    def __init__(self, circuit: Circuit, budget: int = DEFAULT_BUDGET):
        self.circuit = circuit
        self.budget = budget
        self.var = compute_var(circuit)
        out_vec = self.var.vector(circuit.output)
        self.spec = PackSpec(out_vec)
        self.packed_ok = (
            backends.field_dtype(circuit.field.p) == np.uint64 and self.spec.fits()
        )
        self._packed: Dict[int, tuple] = {}
        self._polys: Dict[int, SparsePolynomial] = {}

    def _gate_in_spec(self, gate: int) -> bool:
        bounds = self.spec.bounds
        return all(d <= b for d, b in zip(self.var.vector(gate), bounds))

    def check_budget(self, gate: int) -> int:
        bound = expansion_bound(self.circuit, gate)
        if bound > self.budget:
            raise ExpansionTooLarge(
                f"gate {gate}: monomial bound {bound} exceeds budget {self.budget}"
            )
        return bound

    def expand(self, gate: int) -> SparsePolynomial:
        self.check_budget(gate)
        if self.packed_ok and self._gate_in_spec(gate):
            keys, coeffs = self._expand_packed(gate)
            return unpack_poly(keys, coeffs, self.spec, self.circuit.n, self.circuit.field)
        return self._expand_dict(gate)

    def _expand_packed(self, gate: int):
        memo = self._packed
        if gate in memo:
            return memo[gate]
        c = self.circuit
        p = c.field.p
        order = [g for g in range(gate + 1) if g not in memo]
        cone = c.cone(gate)
        for g in order:
            if not cone[g]:
                continue
            gd = c.gates[g]
            if gd.kind == INPUT:
                keys = np.asarray([self.spec.pack(self.var.vector(g))], dtype=np.uint64)
                coeffs = np.asarray([1], dtype=np.uint64)
            elif gd.kind == CONST:
                if gd.value == 0:
                    keys = np.empty(0, dtype=np.uint64)
                    coeffs = np.empty(0, dtype=np.uint64)
                else:
                    keys = np.zeros(1, dtype=np.uint64)
                    coeffs = np.asarray([gd.value], dtype=np.uint64)
            elif gd.kind == ADD:
                keys = np.concatenate([memo[ch][0] for ch in gd.children])
                coeffs = np.concatenate([memo[ch][1] for ch in gd.children])
                keys, coeffs = backends.merge_packed(keys, coeffs, p)
            else:
                keys, coeffs = memo[gd.children[0]]
                for ch in gd.children[1:]:
                    keys, coeffs = _packed_mul_chunked(keys, coeffs, *memo[ch], p)
            memo[g] = (keys, coeffs)
        return memo[gate]

    def _expand_dict(self, gate: int) -> SparsePolynomial:
        memo = self._polys
        if gate in memo:
            return memo[gate]
        c = self.circuit
        n, f = c.n, c.field
        cone = c.cone(gate)
        for g in range(gate + 1):
            if not cone[g] or g in memo:
                continue
            gd = c.gates[g]
            if gd.kind == INPUT:
                memo[g] = SparsePolynomial.variable(n, f, gd.var)
            elif gd.kind == CONST:
                memo[g] = SparsePolynomial.const(n, f, gd.value)
            elif gd.kind == ADD:
                acc = memo[gd.children[0]]
                for ch in gd.children[1:]:
                    acc = acc.add(memo[ch])
                memo[g] = acc
            else:
                acc = memo[gd.children[0]]
                for ch in gd.children[1:]:
                    acc = acc.mul(memo[ch])
                memo[g] = acc
        return memo[gate]


def expand_gate(
    circuit: Circuit, gate: int, budget: int = DEFAULT_BUDGET
) -> SparsePolynomial:
    """Exact sparse polynomial computed at one gate; refuses when the
    monomial bound prod_i (1 + Var(gate)_i) exceeds the budget."""
    return CircuitExpander(circuit, budget).expand(gate)


expand_sparse = expand_gate


def brute_force_expand(circuit: Circuit, budget: int = DEFAULT_BUDGET) -> SparsePolynomial:
    """Exact sparse polynomial of the output gate: the semantic oracle."""
    return CircuitExpander(circuit, budget).expand(circuit.output)
