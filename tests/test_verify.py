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
    backends,
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
from circflat.errors import (
    ExpansionTooLarge,
    IncompatibleArity,
    InvalidParams,
    TooManyProofTrees,
)
from circflat.expand import DEFAULT_BUDGET, expansion_bound
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
    """A constant mutation at 2^62 - 57, which evaluated on object arrays
    and now on Montgomery words: the witness and both values are pinned,
    and the result's JSON holds plain ints."""
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


@pytest.mark.parametrize("p", [(1 << 61) - 1, (1 << 62) - 57, (1 << 63) + 29])
def test_random_equiv_witness_is_the_first_differing_trial(p):
    """B = A + (x1 - a)(x1 - b) equals A exactly where x1 is a or b, the x1
    coordinates of trials 0 and 1: the witness is trial 2's point, on
    uint64 words (folded, Montgomery) and on object arrays."""
    field = FieldSpec(p)
    a_circ = random_multilinear(30, 4, seed=1, field=field)
    seed, trials = 7, 6
    points = backends.random_point_batch(seed, trials, a_circ.n, p)
    a, b = int(points[0, 0]), int(points[1, 0])
    k = a_circ.num_gates
    gates = list(a_circ.gates) + [
        input_gate(1),
        const_gate((p - a) % p),
        const_gate((p - b) % p),
        add_gate((k, k + 1)),  # x1 - a
        add_gate((k, k + 2)),  # x1 - b
        mul_gate((k + 3, k + 4)),
        add_gate((a_circ.output, k + 5)),
    ]
    b_circ = Circuit(a_circ.n, gates, len(gates) - 1, field=field)
    res = random_equiv(a_circ, b_circ, trials, seed)
    assert res.verdict == "not_equivalent"
    assert res.witness == [int(x) for x in points[2]]
    assert res.values == (a_circ.evaluate(res.witness), b_circ.evaluate(res.witness))
    assert res.values[0] != res.values[1]


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


@pytest.mark.parametrize("trials", [0, -3])
def test_random_equiv_needs_a_trial(field, trials):
    a = random_multilinear(30, 6, seed=5, field=field)
    b = random_multilinear(30, 6, seed=6, field=field)
    with pytest.raises(InvalidParams):
        random_equiv(a, b, trials, 0)


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


def test_uncertified_degree_above_budget_is_an_upper_bound():
    """Cancellation defeats the certificate.  Above the budget the report
    gives the formal degree 2, marked inexact, which bounds the real degree
    1 from above; within the budget the expansion gives exactly 1."""
    c = cancelling_circuit()
    bound = structural_report(c, degree_budget=1)
    assert bound.degree == 2 and not bound.degree_exact
    exact = structural_report(c)
    assert exact.degree == 1 and exact.degree_exact


def expanded_report(x, degree_budget=DEFAULT_BUDGET) -> dict:
    """The report with the degree certificate forced to fail, so every exact
    degree comes from brute_force_expand."""
    real = verify_module._certified_degree
    with mock.patch.object(
        verify_module, "_certified_degree", lambda circuit: (real(circuit)[0], False)
    ):
        return structural_report(x, degree_budget).to_json_dict()


def check_certified_report(x, oracle, degree_budget) -> None:
    rep = structural_report(x, degree_budget).to_json_dict()
    if rep["degree_exact"]:
        assert rep["degree"] == oracle.total_degree()
    else:
        assert rep["degree"] >= oracle.total_degree()
    # the certificate changes no field, except that it can make exact the
    # formal degree an expansion over the budget leaves inexact
    expanded = expanded_report(x, degree_budget)
    if expanded["degree_exact"]:
        assert rep == expanded
    else:
        assert rep | {"degree_exact": False} == expanded


@settings(max_examples=100, deadline=None)
@given(
    circuits(),
    st.sampled_from((2, 3, 5, 7, 10007, M31, M61, P62)),
    st.sampled_from((DEFAULT_BUDGET, 1)),
)
def test_certified_degree_matches_expansion_property(c, p, degree_budget):
    """On inputs and on their depth-2 results wherever balance accepts the
    field, an exact degree is the oracle's and matches the expansion's
    report; an inexact one, left when the certificate fails above the
    budget, bounds the oracle's degree from above."""
    c = at_prime(c, p)
    assume(expansion_bound(c, c.output) <= 1 << 16)
    oracle = brute_force_expand(c)
    check_certified_report(c, oracle, degree_budget)
    if p > max(inferred_k(normalized(c)), 1):
        layered, _ = reduce_depth_delta(c, 2)
        check_certified_report(layered, oracle, degree_budget)


def test_certifiable_report_expands_nothing(monkeypatch):
    """The certificate proves the degree within the budget and above it."""
    c = full_multilinear(12)
    layered, _ = reduce_depth_delta(c, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("report expanded a certifiable circuit")

    monkeypatch.setattr(verify_module, "brute_force_expand", refuse)
    for degree_budget in (DEFAULT_BUDGET, 1):
        for x in (c, layered):
            rep = structural_report(x, degree_budget)
            assert rep.degree == 12 and rep.degree_exact


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
    formal, proved = verify_module._certified_degree(c)
    if certifiable is not None:
        assert proved == certifiable
    assert formal >= degree and (formal == degree or not proved)
    rep = structural_report(c)
    assert rep.degree == degree and rep.degree_exact
    assert rep.to_json_dict() == expanded_report(c)


def _reduced(make, delta):
    return lambda: reduce_depth_delta(balance(normalized(make()))[0], delta)[0]


# sha256 of json.dumps(structural_report(x).to_json_dict(), sort_keys=True).
# Each report equals the one recorded when every exact degree came from
# brute_force_expand, less its old sampled-degree field; the Delta = 3
# entry, above the budget, then had no degree and now has 12, certified.
REPORT_GOLDEN = [
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M61)),
        "db86def8296e462d806cff36a059a2d03ac0a8b11a6ee05772f876a079641f91",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M61)), 2),
        "9749743f08f66be1c93c73941f03bbda4079f033557aad43ebc42a0ec4eb3aab",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M31)),
        "e3cc1f280e880a78d060a82e63e424ef3c95ba96e713dd9f052d00e86021301f",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M31)), 2),
        "276e46b22bc1d9a74733dc4663b1b55fc3a68e51354079cc529f44a3d4e61c50",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(P62)),
        "bc0f2b51dfbf29cf7218774bcd7f05c25cec361d3722a21b59c91057862049ed",
    ),
    (
        _reduced(lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(P62)), 2),
        "e23e0f0a6e1c5520872e749a503ca869b5a5b54bec1385cb32615ef617bc98e4",
    ),
    # above the budget: certified without expansion
    (
        _reduced(lambda: product_of_sums_power(6, 3, 2, field=FieldSpec(M31)), 3),
        "5a147f363213bca1e89bce1a804a1dee615ccb0acb826522f14170d30e047aba",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(P62)),
        "23a87c45db401cc75038095f266123fe0d01b0faee441f490cd8fc07033ab997",
    ),
    (
        _reduced(lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(P62)), 2),
        "32ae31b674d4381368f0ba185a06dfc4754220d3877cb6ef49f1a20a0fcf3d68",
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
