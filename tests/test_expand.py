"""The gate expander: every gate of generated circuits against the
proof-tree sum and plain SparsePolynomial algebra, at small, word and
above-word primes; the packed form both return; the key layout on gates
outside the output's cone; cancellation; and both ways a product or sum is
built, collision-free and merging colliding keys."""

import pytest
from hypothesis import given, settings

from circflat import brute_force_expand, count_proof_trees, full_multilinear, proof_tree_sum
from circflat.circuit import ADD, CONST, INPUT, add_gate, const_gate, input_gate, mul_gate
from circflat.expand import CircuitExpander, expand_gate
from circflat.field import FieldSpec
from circflat.sparse import SparsePolynomial
from circflat.verify import _TreeEnumerator

from conftest import at_prime, build
from test_var import circuits

PRIMES = (2, 3, 5, (1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57)


def dict_algebra(c):
    """Every gate's polynomial by SparsePolynomial add and mul."""
    polys = []
    for gate in c.gates:
        if gate.kind == INPUT:
            polys.append(SparsePolynomial.variable(c.n, c.field, gate.var))
        elif gate.kind == CONST:
            polys.append(SparsePolynomial.const(c.n, c.field, gate.value))
        else:
            acc = polys[gate.children[0]]
            for ch in gate.children[1:]:
                acc = acc.add(polys[ch]) if gate.kind == ADD else acc.mul(polys[ch])
            polys.append(acc)
    return polys


@settings(max_examples=60, deadline=None)
@given(circuits(max_n=4, max_internal=9))
def test_expander_matches_dict_algebra_and_proof_trees(c):
    for p in PRIMES:
        cp = at_prime(c, p)
        want = dict_algebra(cp)
        shared = CircuitExpander(cp, budget=1 << 16)
        # top-down, so later gates reuse the memo of earlier, larger cones
        for g in reversed(range(cp.num_gates)):
            got = shared.expand(g)
            # packed against plain terms, and equal objects hash equal
            assert got == want[g] == expand_gate(cp, g, budget=1 << 16)
            assert hash(got) == hash(want[g])
            if count_proof_trees(cp, g) <= 1 << 12:
                trees = proof_tree_sum(cp, g, cap=1 << 12)
                assert got == trees and hash(trees) == hash(got)


def x1_256_x2_outside_the_cone():
    """x1^256 x2 (gate 10) outside the cone of the output x1 + x2 + 3."""
    gates = [input_gate(2), input_gate(1)]
    for _ in range(8):
        gates.append(mul_gate((len(gates) - 1, len(gates) - 1)))  # x1^2 .. x1^256
    gates.append(mul_gate((9, 0)))  # 10: x1^256 x2
    gates.append(const_gate(3))  # 11
    gates.append(add_gate((0, 1)))  # 12: x1 + x2
    gates.append(add_gate((12, 11)))  # 13: x1 + x2 + 3, the output
    return build(2, gates)


def test_gate_above_the_outputs_var_vector():
    # with fields sized for the output's Var vector (1, 1), x1^256 would
    # carry into x2
    c = x1_256_x2_outside_the_cone()
    expander = CircuitExpander(c)
    assert expander.expand(13).terms == {(1, 0): 1, (0, 1): 1, (0, 0): 3}
    assert expander.expand(10).terms == {(256, 1): 1}
    assert expand_gate(c, 10).terms == {(256, 1): 1}


def test_cancels_to_zero_at_p2():
    # (x1 + 1)^2 + (x1^2 + 1) = 2 x1^2 + 2 x1 + 2, which is 0 mod 2
    f = FieldSpec(2)
    gates = [input_gate(1), const_gate(1)]
    gates.append(add_gate((0, 1)))  # 2: x1 + 1
    gates.append(mul_gate((2, 2)))  # 3: x1^2 + 1 mod 2 (2 x1 cancels)
    gates.append(mul_gate((0, 0)))  # 4: x1^2
    gates.append(add_gate((4, 1)))  # 5: x1^2 + 1
    gates.append(add_gate((3, 5)))  # 6: 0
    c = build(1, gates, field=f)
    expander = CircuitExpander(c)
    assert expander.expand(3).terms == {(2,): 1, (0,): 1}
    assert expander.expand(6).is_zero()
    assert expander.expand(6) == proof_tree_sum(c, 6) == SparsePolynomial.zero(1, f)


def test_packed_widths_differ_and_still_compare_equal():
    # the expander sizes its keys for x1^256 (two bytes per variable), the
    # enumerator for Var(output) = (1, 1) (one byte), so equality falls back
    # to exponent tuples
    c = x1_256_x2_outside_the_cone()
    assert CircuitExpander(c).width == 2
    assert _TreeEnumerator(c, c.output, None).width == 1
    oracle = brute_force_expand(c)
    trees = proof_tree_sum(c, c.output)
    assert oracle == trees and trees == oracle
    assert oracle.terms == trees.terms == {(1, 0): 1, (0, 1): 1, (0, 0): 3}


@pytest.mark.parametrize("p", [2, 3, (1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57])
def test_proof_tree_sum_cancels_to_the_oracle(p):
    # x1 x2 + (p - 1) x1 x2 + x3 = x3: the x1 x2 trees sum to p
    gates = [input_gate(1), input_gate(2), input_gate(3), const_gate(p - 1)]
    gates.append(mul_gate((0, 1)))  # 4: x1 x2
    gates.append(mul_gate((3, 0, 1)))  # 5: (p - 1) x1 x2
    gates.append(add_gate((4, 5, 2)))  # 6: the output
    c = build(3, gates, field=FieldSpec(p))
    trees = proof_tree_sum(c, 6)
    assert trees == brute_force_expand(c)
    assert trees.num_terms() == 1 and trees.terms == {(0, 0, 1): 1}


@pytest.mark.parametrize("p", PRIMES)
def test_colliding_product(p):
    # (x1 + 1)(x1 + 1): x1 * 1 and 1 * x1 share a key, so the product merges
    # its terms; at p = 2 the 2 x1 term cancels
    gates = [input_gate(1), const_gate(1), add_gate((0, 1)), mul_gate((2, 2))]
    c = build(1, gates, field=FieldSpec(p))
    got = brute_force_expand(c)
    want = {(2,): 1, (1,): 2 % p, (0,): 1}
    assert got.terms == {e: v for e, v in want.items() if v}
    assert got == dict_algebra(c)[3] == proof_tree_sum(c, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_overlapping_sum(p):
    # x1 + x1: both children hold the key of x1, so the sum merges them
    c = build(1, [input_gate(1), add_gate((0, 0))], field=FieldSpec(p))
    got = brute_force_expand(c)
    assert got.terms == ({} if p == 2 else {(1,): 2})
    assert got == dict_algebra(c)[1] == proof_tree_sum(c, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_collision_free_full_multilinear(p):
    # prod_i (1 + x_i): no product or sum has colliding keys
    c = full_multilinear(6, FieldSpec(p))
    got = brute_force_expand(c)
    assert got.num_terms() == 64 and set(got.terms.values()) == {1}
    assert got == dict_algebra(c)[c.output] == proof_tree_sum(c, c.output)


@pytest.mark.parametrize("p", PRIMES)
def test_proof_tree_sum_drops_a_zero_coefficient_tree(p):
    # x1 * 0 + x2: the x1 tree has coefficient 0 and no other tree shares
    # its key
    gates = [input_gate(1), input_gate(2), const_gate(0), mul_gate((0, 2)), add_gate((3, 1))]
    c = build(2, gates, field=FieldSpec(p))
    trees = proof_tree_sum(c, 4)
    assert trees.terms == {(0, 1): 1}
    assert trees == brute_force_expand(c)
    # an unreduced constant p, outside require_valid's residues, is 0 too
    gates = [input_gate(2), const_gate(p), add_gate((1, 0))]
    c = build(2, gates, field=FieldSpec(p))
    assert proof_tree_sum(c, 2).terms == {(0, 1): 1} == brute_force_expand(c).terms


@pytest.mark.parametrize("p", PRIMES)
def test_proof_tree_sum_of_repeated_monomials(p):
    # (x1 + x2)(x1 + x2) + x1 x2 + 2: the trees x1 x2 and x2 x1 of the
    # product and the x1 x2 summand share one key
    gates = [input_gate(1), input_gate(2), const_gate(2 % p)]
    gates.append(add_gate((0, 1)))  # 3: x1 + x2
    gates.append(mul_gate((3, 3)))  # 4
    gates.append(mul_gate((0, 1)))  # 5: x1 x2
    gates.append(add_gate((4, 5, 2)))  # 6
    c = build(2, gates, field=FieldSpec(p))
    assert count_proof_trees(c, 6) == 6
    trees = proof_tree_sum(c, 6)
    want = {(2, 0): 1, (1, 1): 3 % p, (0, 2): 1, (0, 0): 2 % p}
    assert trees.terms == {e: v for e, v in want.items() if v}
    assert trees == brute_force_expand(c)
