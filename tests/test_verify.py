"""The oracle layer: brute-force expansion vs proof-tree enumeration,
randomized equivalence, structural reports and bound ratios."""

import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings

from circflat import (
    Schedule,
    brute_force_expand,
    check_bounds,
    count_proof_trees,
    enumerate_proof_trees,
    proof_tree_sum,
    random_equiv,
    reduce_depth_delta,
    structural_report,
)
from circflat.circuit import Circuit, Gate, add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, IncompatibleArity, TooManyProofTrees
from circflat.expand import expansion_bound
from circflat.field import FieldSpec
from circflat.generators import full_multilinear, random_multi_k_ic, random_multilinear
from circflat.sparse import SparsePolynomial
from circflat.verify import enumerate_proof_trees_with_paths

from conftest import build, pos22
from test_var import circuits


def test_expand_single_variable():
    c = build(1, [input_gate(1)])
    assert brute_force_expand(c).terms == {(1,): 1}


def test_expand_pos22():
    poly = brute_force_expand(pos22())
    assert poly.num_terms() == 4
    assert all(v == 1 for v in poly.terms.values())
    assert set(poly.terms) == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    }


def test_expand_budget():
    c = full_multilinear(8)
    assert expansion_bound(c, c.output) == 2**8
    with pytest.raises(ExpansionTooLarge):
        brute_force_expand(c, budget=100)
    assert brute_force_expand(c, budget=256).num_terms() == 256


def test_expand_matches_proof_trees(field):
    for seed in (0, 2):
        c = random_multilinear(24, 5, seed=seed, field=field)
        assert brute_force_expand(c) == proof_tree_sum(c, c.output, cap=1 << 14)


# -- proof-tree enumeration ---------------------------------------------------


def test_trees_of_product():
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    assert enumerate_proof_trees(c, 2) == [((1, 1), 1)]


def test_trees_of_sum():
    c = build(2, [input_gate(1), input_gate(2), add_gate((0, 1))])
    assert enumerate_proof_trees(c, 2) == [((1, 0), 1), ((0, 1), 1)]


def test_snipped_tree_replaces_right_add():
    # mul(add(x1,x2), add(x3,x4)) snipped at the right add:[x1, x2]
    c = pos22()
    got = enumerate_proof_trees(c, c.output, snip=5)
    assert got == [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1)]


def test_tree_counting_and_cap():
    c = full_multilinear(6)
    assert count_proof_trees(c, c.output) == 2**6
    with pytest.raises(TooManyProofTrees):
        enumerate_proof_trees(c, c.output, cap=10)


def test_zero_coefficient_trees_are_kept():
    c = build(1, [input_gate(1), const_gate(0), mul_gate((0, 1))])
    trees = enumerate_proof_trees(c, 2)
    assert trees == [((1,), 0)]


# sha256 of repr(enumerate_proof_trees_with_paths(...)): exponents,
# coefficients, rightmost paths and tree order are all pinned.
TREE_GOLDEN = [
    (
        lambda: random_multilinear(80, 8, seed=2),
        None,
        "e10f5cd600c324cc506e4850637ac756a2a9228fa023e437367f17ebc4559c75",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=2),
        None,
        "7adc76df81c160db52513cf3587c0c3ba34f3d58f47678e5d294712b963a69e2",
    ),
    (
        lambda: random_multilinear(80, 8, seed=2),
        7,
        "2d70e60319acd7a55d2b8c1c62d578895b3365461ed0cc84f4c47a2d4950f122",
    ),
]


@pytest.mark.parametrize("make,snip,digest", TREE_GOLDEN)
def test_tree_enumeration_golden(make, snip, digest):
    c = make()
    trees = enumerate_proof_trees_with_paths(c, c.output, snip=snip)
    assert hashlib.sha256(repr(trees).encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_proof_tree_sum_matches_oracle_property(c):
    """Squares and repeated products give exponents above 1; the packed
    tree keys must still sum to the oracle's polynomial."""
    assume(count_proof_trees(c, c.output) <= 1 << 14)
    oracle = brute_force_expand(c, budget=expansion_bound(c, c.output))
    assert proof_tree_sum(c, c.output, cap=1 << 14) == oracle


def test_tree_keys_do_not_carry_at_full_field():
    """x1^3 * x2 * (x3 + 1) + x1 * x2: Var(root) = (3, 1, 1), so the x1
    field is two bits wide and x1^3 fills it, next to a nonzero x2."""
    f = FieldSpec()
    x = [SparsePolynomial.variable(3, f, i) for i in (1, 2, 3)]
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        const_gate(1),
        mul_gate((0, 0)),
        mul_gate((4, 0)),
        add_gate((2, 3)),
        mul_gate((1, 5, 6)),
        mul_gate((0, 1)),
        add_gate((7, 8)),
    ]
    c = build(3, gates, field=f)
    cube = x[0].mul(x[0]).mul(x[0])
    want = cube.mul(x[1]).mul(x[2].add(SparsePolynomial.const(3, f, 1))).add(x[0].mul(x[1]))
    assert proof_tree_sum(c, c.output) == brute_force_expand(c) == want
    # snipping the sum (x3 + 1) leaves the left factors x2 * x1^3
    assert proof_tree_sum(c, c.output, snip=6) == cube.mul(x[1])
    assert proof_tree_sum(c, 7, snip=6) == cube.mul(x[1])


# -- randomized equivalence -----------------------------------------------------


def test_random_equiv_reflexive(field):
    c = random_multilinear(30, 6, seed=1, field=field)
    assert random_equiv(c, c, 20, 0).equivalent


def test_random_equiv_detects_const_mutation(field):
    c = random_multilinear(40, 8, seed=3, field=field)
    gid = next(i for i, g in enumerate(c.gates) if g.kind == "const")
    gates = list(c.gates)
    gates[gid] = Gate("const", value=(gates[gid].value + 1) % field.p)
    mutated = Circuit(c.n, gates, c.output, field=field)
    res = random_equiv(c, mutated, 20, 0)
    assert res.verdict == "not_equivalent"
    assert res.witness is not None and len(res.witness) == c.n
    a, b = res.values
    assert c.evaluate(res.witness) == a
    assert mutated.evaluate(res.witness) == b


def test_random_equiv_golden_witness_at_object_prime():
    """A constant mutation at 2^62 - 57, whose points run through the object
    arrays: the witness and both values are pinned, and the result's JSON
    holds plain ints."""
    field = FieldSpec((1 << 62) - 57)
    c = random_multilinear(40, 8, seed=3, field=field)
    gid = next(i for i, g in enumerate(c.gates) if g.kind == "const")
    gates = list(c.gates)
    gates[gid] = Gate("const", value=(gates[gid].value + 1) % field.p)
    mutated = Circuit(c.n, gates, c.output, field=field)
    layered, _ = reduce_depth_delta(c, 2)
    res = random_equiv(layered, mutated, 20, 0)
    assert res.verdict == "not_equivalent"
    assert res.witness == [
        53250005300491814,
        1113949052550656350,
        513861059969551255,
        2602903019061603606,
        2316816996971209172,
        1280229757555965415,
        4365165080878258487,
        4547427921151202742,
    ]
    assert res.values == (4078407955722324183, 1204549950391833270)
    data = res.to_json_dict()
    assert json.loads(json.dumps(data)) == data


def test_random_equiv_symmetry(field):
    a = random_multilinear(30, 6, seed=5, field=field)
    b = random_multilinear(30, 6, seed=6, field=field)
    assert (
        random_equiv(a, b, 10, 1).verdict == random_equiv(b, a, 10, 1).verdict
    )


def test_random_equiv_arity_errors(field):
    a = build(1, [input_gate(1)], field=field)
    b = build(2, [input_gate(1)], field=field)
    with pytest.raises(IncompatibleArity):
        random_equiv(a, b, 5, 0)
    c = build(1, [input_gate(1)], field=FieldSpec(101))
    with pytest.raises(IncompatibleArity):
        random_equiv(a, c, 5, 0)


def test_evaluation_consistency(field):
    """Evaluating the exact expansion agrees with direct circuit evaluation
    at random points."""
    rng = random.Random(0)
    for seed in (0, 4):
        c = random_multilinear(30, 6, seed=seed, field=field)
        poly = brute_force_expand(c)
        for _ in range(100):
            pt = [rng.randrange(field.p) for _ in range(c.n)]
            assert poly.evaluate(pt) == c.evaluate(pt)


def test_sparsity_bound(field):
    from circflat.analysis import compute_var

    for seed in (1, 3):
        c = random_multilinear(40, 8, seed=seed, field=field)
        poly = brute_force_expand(c)
        bound = 1
        for d in compute_var(c).vector(c.output):
            bound *= 1 + d
        assert poly.num_terms() <= bound


# -- structural reports -----------------------------------------------------------


def test_report_product():
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    rep = structural_report(c)
    assert rep.size == 2 and rep.depth == 1 and rep.product_depth == 1
    assert rep.k == 1 and rep.var_output == 2
    assert rep.degree == 2 and rep.degree_exact


def test_report_nested_muls_merge_product_blocks():
    c = build(
        3,
        [input_gate(1), input_gate(2), input_gate(3), mul_gate((0, 1)), mul_gate((3, 2))],
    )
    assert structural_report(c).product_depth == 1


def test_report_layered_product_depth(field):
    from circflat.depth_reduce import reduce_depth_delta

    lay, _ = reduce_depth_delta(pos22(field), 2)
    rep = structural_report(lay)
    assert rep.kind == "layered"
    assert rep.product_depth == 2
    assert rep.top_fanin >= 1


def test_report_records_balanced_structure(field):
    from circflat.balance import balance
    from circflat.normalize import normalized

    bal, _ = balance(normalized(random_multilinear(40, 8, seed=2, field=field)))
    rep = structural_report(bal)
    assert rep.max_fanin_mul <= 5


def test_check_bounds_delta3_row(field):
    from circflat.depth_reduce import choose_t, reduce_depth_delta

    orig = random_multilinear(60, 10, seed=8, field=field)
    layered, rep = reduce_depth_delta(orig, 3)
    before = structural_report(orig)
    after = structural_report(layered)
    sched = choose_t(rep.n, rep.k, rep.s, 3)
    bounds = check_bounds(before, after, sched)
    assert 0 <= bounds.topfanin_ratio < float("inf")
    assert 0 < bounds.bound_ratio < float("inf")


def test_check_bounds_trivial():
    c = build(1, [input_gate(1)])
    rep = structural_report(c)
    sched = Schedule(n=1, k=1, s=2, delta=2, t_value=1)
    bounds = check_bounds(rep, rep, sched)
    assert bounds.topfanin_ratio == 0.0
    assert bounds.bound_ratio < float("inf")
    d = bounds.to_json_dict()
    assert d["t"] == 1 and d["top_fanin"] == 1
