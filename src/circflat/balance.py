"""Balancing: rewrite a normalized circuit so products are shallow.

The output circuit computes the same polynomial but every product gate has
fan-in at most 5 and carries factors of at most half the potential of the
sum it feeds.  The construction materializes one output node per demanded
quantity: [u], the polynomial of a source gate, and [u:v], a gate quotient.
A node of potential t (its |Var|, or quotient |Var|) is built from the
frontier decomposition at threshold m ~ t/2:

    [u]   = sum (w,z) x-edges  [u:w] * [wL] * [z]
          + sum (w,z) +-edges  [u:w] * [z]

    [u:v] = sum (w,z) x-edges  [u:w] * [wL] * [z:v]
          + sum (w,z) +-edges  [u:w] * [z:v]

All factors on the right have potential at most t/2 except possibly [wL]
in the quotient identity, whose own frontier expansion is spliced inline
when it is too heavy, giving products of up to five factors

    [u:w] * [wL:p] * [pL] * [q] * [z:v].

Keys of potential <= 1 bottom out.  A key's degree in x_i is at most its
Var_i, so such a key is c0 + c1*x_i in its one live variable x_i: two
values fix it, c0 = f(0) and c1 = f(e_i) - f(0), at every prime.  Every
base key reads the same grid, the origin plus the n unit vectors, which is
evaluated once per balance call.  Each quotient target [.:v] is swept once,
in plain Python, over only the grid rows its base keys read (the origin
plus the unit vector of each base gate's live variable), and only the base
gates' values are kept.  Only keys actually demanded by the output's
recursion are built, and each key is built once.

Two threshold details matter.  The plain identity is used with
m = max(2, ceil(t/2)): at m = 1 a proof-tree whose rightmost path ends in
a variable leaf never drops below the threshold and the decomposition
would miss it.  The quotient identity has no such hole (the snipped leaf
sits at quotient potential 0) and uses m = ceil(t/2) as is.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Tuple

import numpy as np

from .analysis import check_multi_k_ic, compute_var, inferred_k
from .circuit import ADD, MUL, Builder, Circuit, Gate, require_valid
from .errors import InvalidCircuit
from .quotient import decomposition_terms, quotient_table, quotient_values_batch

NodeKey = Tuple


@dataclass
class BalanceReport:
    input_size: int
    output_size: int
    max_mul_fanin: int
    max_add_fanin: int
    halving_ok: bool
    k_preserved: bool
    base_case_count: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class BalanceScan:
    """What :func:`check_balanced` measures on one circuit."""

    size: int
    max_mul_fanin: int
    max_add_fanin: int
    halving_ok: bool


def check_balanced(circuit: Circuit) -> BalanceScan:
    """Structural scan for the balanced-shape properties.

    halving_ok certifies the halving the depth reduction relies on: read
    every sum gate of potential >= 2 as a sum of products (a product child
    contributes its own children as factors, any other child is a
    single-factor summand) and require each factor's |Var| within half the
    sum's |Var|.  Products reached outside a sum (no sum parent, or nested
    inside another product) and an output product are additionally checked
    against their own |Var|, except scalar scalings (at most one
    variable-carrying child), which have no mass to split.
    """
    require_valid(circuit)
    var = compute_var(circuit)
    add_parents: Dict[int, list] = {}
    mul_parents: Dict[int, list] = {}
    max_add = 0
    max_mul = 0
    for g, gate in enumerate(circuit.gates):
        if gate.kind == ADD:
            max_add = max(max_add, gate.fanin())
            for c in gate.children:
                add_parents.setdefault(c, []).append(g)
        elif gate.kind == MUL:
            max_mul = max(max_mul, gate.fanin())
            for c in gate.children:
                mul_parents.setdefault(c, []).append(g)
    halving = True
    for g, gate in enumerate(circuit.gates):
        if gate.kind == ADD:
            total = var.total(g)
            if total < 2:
                continue
            for c in gate.children:
                factors = (
                    circuit.gates[c].children if circuit.gates[c].kind == MUL else (c,)
                )
                for h in factors:
                    if 2 * var.total(h) > total:
                        halving = False
        elif gate.kind == MUL:
            if g != circuit.output and not mul_parents.get(g) and add_parents.get(g):
                continue  # covered by the sum(s) it feeds
            carrying = sum(1 for c in gate.children if var.total(c) > 0)
            if carrying < 2:
                continue
            total = var.total(g)
            for c in gate.children:
                if 2 * var.total(c) > total:
                    halving = False
    return BalanceScan(
        size=circuit.size(),
        max_mul_fanin=max_mul,
        max_add_fanin=max_add,
        halving_ok=halving,
    )


class _Balancer:
    def __init__(self, circuit: Circuit):
        require_valid(circuit)
        if any(g.fanin() > 2 for g in circuit.gates):
            raise InvalidCircuit("balance requires fan-in <= 2 (run normalize first)")
        self.c = circuit
        self.var = compute_var(circuit)
        for g, gate in enumerate(circuit.gates):
            if gate.kind == MUL and gate.fanin() == 2:
                left, right = gate.children
                if self.var.total(left) > self.var.total(right):
                    raise InvalidCircuit(
                        f"gate {g} is not right-heavy (run make_right_heavy first)"
                    )
        self.out = Builder(circuit.n, circuit.field)
        self.memo: Dict[NodeKey, int] = {}
        self.base_case_count = 0
        # The grid every base key reads: the origin, then the unit vector
        # x_i = 1 of each axis i (row 1 + i).
        self._grid = np.eye(circuit.n + 1, circuit.n, k=-1, dtype=np.uint64)
        self._plain = None  # plain gate values, one list per grid row
        # per quotient target: base gate u -> [u:target] at the rows u reads
        self._sweeps: Dict[int, Dict[int, list]] = {}

    # -- potentials ------------------------------------------------------

    def _table(self, key: NodeKey):
        if key[0] == "plain":
            return self.var
        return quotient_table(self.c, key[2])

    def potential(self, key: NodeKey) -> int:
        return self._table(key).totals[key[1]]

    # -- base-case evaluation ---------------------------------------------

    def _live(self, vec: int):
        """0-based live variable of a packed vector of potential <= 1 (its
        one nonzero field holds 1), or None for the zero vector."""
        return (vec.bit_length() - 1) // self.var.bits if vec else None

    def _rows(self, vec: int) -> list:
        """Grid rows a base key of packed potential vector vec reads: the
        origin, plus the unit vector of its live variable if it has one."""
        i = self._live(vec)
        return [0] if i is None else [0, 1 + i]

    def _plain_rows(self) -> list:
        """Every gate's value at every grid row, from one evaluation."""
        if self._plain is None:
            self._plain = self.c.eval_table(self._grid).T.tolist()
        return self._plain

    def _sweep(self, target: int) -> Dict[int, list]:
        """[u:target] for every base gate u (quotient potential <= 1) at the
        rows u reads.  The quotient recursion runs once, over the union of
        those rows; only the base gates' values are kept, since whole
        sweeps, one per target, would grow quadratically with the circuit."""
        if target not in self._sweeps:
            qt = quotient_table(self.c, target)
            reached = compress(range(self.c.num_gates), qt.reachable)
            rows_of = {u: self._rows(qt.packed[u]) for u in reached if qt.totals[u] <= 1}
            rows = sorted(set().union(*rows_of.values()))
            plain = self._plain_rows()
            # kept as a call, not inlined: the benchmark's span list times
            # quotient_values_batch by name
            sweeps = quotient_values_batch(self.c, target, [plain[r] for r in rows])
            q = dict(zip(rows, sweeps))
            self._sweeps[target] = {
                u: [q[r][u] for r in u_rows] for u, u_rows in rows_of.items()
            }
        return self._sweeps[target]

    def base_node(self, key: NodeKey) -> int:
        # One method per base key, although node() could inline it: the
        # benchmark's span list times _Balancer.base_node by name.
        vec = self._table(key).packed[key[1]]
        self.base_case_count += 1
        if key[0] == "plain":
            plain = self._plain_rows()
            ys = [plain[r][key[1]] for r in self._rows(vec)]
        else:
            ys = self._sweep(key[2])[key[1]]
        i = self._live(vec)
        if i is None:
            return self.out.const(ys[0])
        c0, c1 = ys[0], (ys[1] - ys[0]) % self.c.field.p
        terms = [self.out.const(c0)] if c0 else []
        if c1:
            x = self.out.input(i + 1)
            if c1 != 1:
                x = self.out.emit(Gate(MUL, children=(self.out.const(c1), x)))
            terms.append(x)
        if not terms:
            return self.out.const(0)
        return self.out.summation(terms)

    # -- decomposition ------------------------------------------------------

    def _wl_parts(self, w_left: int, t: int):
        """Factor lists standing in for [wL] inside a quotient-node product.

        Light left children are referenced directly; heavy ones are spliced
        as their own frontier expansion so every factor stays within t/2.
        """
        L = self.var.total(w_left)
        if L <= t // 2:
            return [[("plain", w_left)]]
        m_w = max(2, math.ceil(L / 2))
        parts = []
        for term in decomposition_terms(self.c, w_left, m_w, None):
            prefix = [] if term.w == w_left else [("quot", w_left, term.w)]
            if term.is_mul:
                p_left = self.c.gates[term.w].children[0]
                parts.append(prefix + [("plain", p_left), ("plain", term.z)])
            else:
                parts.append(prefix + [("plain", term.z)])
        return parts

    def node(self, key: NodeKey) -> int:
        if key in self.memo:
            return self.memo[key]
        t = self.potential(key)
        if t <= 1:
            gid = self.base_node(key)
            self.memo[key] = gid
            return gid

        if key[0] == "plain":
            u, v = key[1], None
            m = max(2, math.ceil(t / 2))
        else:
            u, v = key[1], key[2]
            m = math.ceil(t / 2)
        terms = decomposition_terms(self.c, u, m, target=v)
        assert terms, f"empty decomposition for {key} at m={m}"

        factor_lists = []
        for term in terms:
            prefix = [] if term.w == u else [("quot", u, term.w)]
            if v is None:
                tail = [("plain", term.z)]
            else:
                tail = [] if term.z == v else [("quot", term.z, v)]
            if term.is_mul:
                gate_w = self.c.gates[term.w]
                w_left = gate_w.children[0] if gate_w.fanin() == 2 else None
                if w_left is None:
                    factor_lists.append(prefix + tail)
                else:
                    for part in self._wl_parts(w_left, t):
                        factor_lists.append(prefix + part + tail)
            else:
                factor_lists.append(prefix + tail)

        summands = []
        for factors in factor_lists:
            assert len(factors) <= 5
            if not factors:
                # the rightmost path jumps straight from u to the snipped
                # target: the summand is the constant 1
                summands.append(self.out.const(1))
                continue
            for f in factors:
                assert 2 * self.potential(f) <= t, (key, f)
            ids = [self.node(f) for f in factors]
            summands.append(self.out.product(ids))
        gid = self.out.summation(summands)
        self.memo[key] = gid
        return gid

    def build(self) -> Circuit:
        root_key = ("plain", self.c.output)
        root = self.node(root_key)
        return Circuit(
            self.c.n,
            self.out.gates,
            root,
            field=self.c.field,
            name=self.c.name + "_bal",
        )


def balance(circuit: Circuit) -> Tuple[Circuit, BalanceReport]:
    """Balanced equivalent of a validated, binary, right-heavy circuit,
    plus the structural report of the result."""
    builder = _Balancer(circuit)
    out = builder.build()
    scan = check_balanced(out)
    ok, _ = check_multi_k_ic(out, max(inferred_k(circuit), 1))
    return out, BalanceReport(
        input_size=circuit.size(),
        output_size=scan.size,
        max_mul_fanin=scan.max_mul_fanin,
        max_add_fanin=scan.max_add_fanin,
        halving_ok=scan.halving_ok,
        k_preserved=ok,
        base_case_count=builder.base_case_count,
    )
