"""The oracle layer: brute-force expansion vs proof-tree enumeration,
randomized equivalence, structural reports and bound ratios."""

import hashlib
import json
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import circflat.verify as verify_module
from circflat import (
    Schedule,
    balance,
    brute_force_expand,
    check_bounds,
    count_proof_trees,
    enumerate_proof_trees,
    normalized,
    proof_tree_sum,
    random_equiv,
    reduce_depth_delta,
    structural_report,
)
from circflat.analysis import inferred_k
from circflat.circuit import Circuit, Gate, add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, IncompatibleArity, TooManyProofTrees
from circflat.expand import expansion_bound
from circflat.field import FieldSpec
from circflat.generators import (
    full_multilinear,
    product_of_sums_power,
    random_multi_k_ic,
    random_multilinear,
)
from circflat.sparse import SparsePolynomial
from circflat.verify import enumerate_proof_trees_with_paths

from conftest import at_prime, build, pos22
from test_var import circuits

M61 = (1 << 61) - 1
M31 = (1 << 31) - 1
P62 = (1 << 62) - 57


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


def cancelling_circuit():
    """x1*x2 + (p-1)*x1*x2 + x3 at p = 2^61 - 1, which computes x3: degree
    1, while a proof-tree through either product has degree 2."""
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        mul_gate((0, 1)),
        const_gate(M61 - 1),
        mul_gate((3, 4)),
        add_gate((3, 5, 2)),
    ]
    return build(3, gates)


def test_sampled_degree_is_not_a_lower_bound():
    """Above the budget the report's degree_lower_bound is a sampled
    proof-tree degree; cancellation puts it above the real degree."""
    c = cancelling_circuit()
    sampled = structural_report(c, degree_budget=1)
    assert sampled.degree is None and not sampled.degree_exact
    assert sampled.degree_lower_bound == 2
    exact = structural_report(c)
    assert exact.degree == exact.degree_lower_bound == 1 and exact.degree_exact


def expanded_report(x) -> dict:
    """The report with the degree certificate forced to fail, so every exact
    degree comes from brute_force_expand."""
    with mock.patch.object(verify_module, "_certified_degree", lambda circuit: None):
        return structural_report(x).to_json_dict()


def check_certified_report(x, oracle) -> None:
    rep = structural_report(x).to_json_dict()
    assert rep == expanded_report(x)
    if rep["degree_exact"]:
        assert rep["degree"] == oracle.total_degree()


@settings(max_examples=100, deadline=None)
@given(circuits(), st.sampled_from((2, 3, 5, 7, 10007, M31, M61, P62)))
def test_certified_degree_matches_expansion_property(c, p):
    """The certificate changes no report field, on inputs and on their
    depth-2 results wherever balance accepts the field."""
    c = at_prime(c, p)
    assume(expansion_bound(c, c.output) <= 1 << 16)
    oracle = brute_force_expand(c)
    check_certified_report(c, oracle)
    if p > max(inferred_k(normalized(c)), 1):
        layered, _ = reduce_depth_delta(c, 2)
        check_certified_report(layered, oracle)


def test_certifiable_report_expands_nothing(monkeypatch):
    c = full_multilinear(12)
    layered, _ = reduce_depth_delta(c, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("report expanded a certifiable circuit")

    monkeypatch.setattr(verify_module, "brute_force_expand", refuse)
    for x in (c, layered):
        rep = structural_report(x)
        assert rep.degree == rep.degree_lower_bound == 12 and rep.degree_exact


def zero_circuit():
    """x1 + (p-1)*x1: the zero polynomial."""
    gates = [input_gate(1), const_gate(M61 - 1), mul_gate((0, 1)), add_gate((0, 2))]
    return build(1, gates)


def cube(p):
    """x1*x2*x3 over F_p."""
    gates = [input_gate(1), input_gate(2), input_gate(3), mul_gate((0, 1)), mul_gate((3, 2))]
    return build(3, gates, field=FieldSpec(p))


@pytest.mark.parametrize(
    "make, degree, certifiable",
    [
        (cancelling_circuit, 1, False),
        (zero_circuit, 0, False),
        (lambda: build(1, [const_gate(5)]), 0, True),
        (lambda: cube(2), 3, None),
        (lambda: cube(3), 3, None),
        (lambda: pos22(FieldSpec((1 << 89) - 1)), 2, True),
    ],
    ids=["cancellation", "zero", "constant", "p2_below_degree", "p3_at_degree", "p89"],
)
def test_certificate_edge_cases(make, degree, certifiable):
    """Cancellation and the zero polynomial cannot be certified and fall
    back to expansion.  A constant is certified at degree 0, and so is a
    prime above 2^64, where random point streams are refused.  At p <= D
    the fixed point may or may not certify the degree; the report is the
    expansion's either way."""
    c = make()
    got = verify_module._certified_degree(c)
    if certifiable is not None:
        assert (got is not None) == certifiable
    assert got in (None, degree)
    rep = structural_report(c)
    assert rep.degree == rep.degree_lower_bound == degree and rep.degree_exact
    assert rep.to_json_dict() == expanded_report(c)


def _reduced(make, delta):
    return lambda: reduce_depth_delta(balance(normalized(make()))[0], delta)[0]


# sha256 of json.dumps(structural_report(x).to_json_dict(), sort_keys=True),
# recorded when every exact report degree came from brute_force_expand.
REPORT_GOLDEN = [
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M61)),
        "f9937550af4926b6c683f267c7052517be31792f5c8863886e1a0c4e23aaf529",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M61)), 2),
        "b4ce9e2875c882191d18aec30232d0e117d9ca07f6ca88647a34dff0601b8260",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M31)),
        "5f61c2a6fa8743b7a9c4cca5cffde85cf80d8f7d28720fdbb9b8c322156a72db",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M31)), 2),
        "2c83a7d7b65e59306eb685fff34a40059d337d91b2c7a40174bf852bd3998467",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(P62)),
        "35e30e573ba3a86b369293ea0f93d34322af619f28ff895704282f301eaaa716",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(P62)), 2),
        "b146413a1acb3bd6eaba05c440d1f495a5d4f90fb354cdb2551f35f193ed9ea9",
    ),
    # above the budget: sampled degree
    (
        _reduced(lambda: product_of_sums_power(6, 3, 2, field=FieldSpec(M31)), 3),
        "8b9e7fda28da4028ed156856f178b7e8633189bb2049a1a173223517e3d2c4f8",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(P62)),
        "6d1b65422280abe4985190d7a4f05b71b7ff7658bae45ea11f0c1950955fa96b",
    ),
    (
        _reduced(lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(P62)), 2),
        "3771c1378ab25678503c1617d35d959cd7b6034e6955a812bc446fb95eeeedae",
    ),
]


@pytest.mark.parametrize("make, sha", REPORT_GOLDEN)
def test_report_golden_digests(make, sha):
    rep = structural_report(make()).to_json_dict()
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == sha


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
