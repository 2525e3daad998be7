"""Depth reduction: schedules, the recursion-tree expansion, layered output
structure, and the recursive product-depth pipeline."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circflat.depth_reduce as depth_reduce
from circflat import (
    LayeredCircuit,
    backends,
    balance,
    brute_force_expand,
    check_balanced,
    choose_t,
    compute_var,
    expand_gate,
    expansion_bound,
    random_equiv,
    reduce_depth4,
    reduce_depth_delta,
    structural_report,
)
from circflat.balance import BalanceScan
from circflat.circuit import add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, InvalidParams, NotBalanced
from circflat.expand import DEFAULT_BUDGET, CircuitExpander
from circflat.field import FieldSpec
from circflat.generators import (
    product_of_sums,
    product_of_sums_power,
    random_multi_k_ic,
    random_multilinear,
)
from circflat.normalize import normalized
from circflat.sparse import SparsePolynomial

from conftest import build, pos22
from test_var import circuits


# -- schedules ----------------------------------------------------------------


def test_choose_t_depth4():
    # ceil(sqrt(100 * log2(10^4))) = ceil(36.45...) = 37
    sched = choose_t(100, 1, 10000, 2)
    assert sched.t_value == 37


def test_choose_t_clamps():
    assert choose_t(1, 1, 2, 2).t_value == 1


def test_choose_t_delta3():
    # 64 / (64/8)^(1/3) = 64 / 2 = 32
    assert choose_t(64, 1, 256, 3).t_value == 32


def test_choose_t_invalid_params():
    with pytest.raises(InvalidParams):
        choose_t(0, 1, 4, 2)
    with pytest.raises(InvalidParams):
        choose_t(4, 1, 1, 2)
    with pytest.raises(InvalidParams):
        choose_t(4, 1, 4, 1)


# -- expand_gate -----------------------------------------------------------------


def test_expand_sparse_product_of_sums(field):
    c = pos22(field)
    poly = expand_gate(c, c.output, budget=100)
    assert poly.num_terms() == 4 and all(v == 1 for v in poly.terms.values())


def test_expand_sparse_const(field):
    c = build(1, [const_gate(7)], field=field)
    assert expand_gate(c, 0, budget=10).terms == {(0,): 7}


def test_expand_sparse_square_plus_linear(field):
    # x1*x1 + 2*x1: two monomials within the bound (1 + 2) = 3
    gates = [input_gate(1), const_gate(2), mul_gate((0, 0)), mul_gate((1, 0)), add_gate((2, 3))]
    c = build(1, gates, field=field)
    poly = expand_gate(c, 4, budget=3)
    assert poly.terms == {(2,): 1, (1,): 2}
    with pytest.raises(ExpansionTooLarge):
        expand_gate(c, 4, budget=2)


# -- reduce_depth4 ------------------------------------------------------------------


def _balanced(circuit):
    return balance(normalized(circuit))[0]


def test_depth4_pos_blocks(field):
    orig = product_of_sums(4, 2, field)
    bal = _balanced(orig)
    layered, rep = reduce_depth4(bal, 2)
    poly = layered.expand()
    want = brute_force_expand(orig)
    assert poly == want
    assert poly.num_terms() == 16
    assert all(v == 1 for v in poly.terms.values())
    assert max(layered.bottom_var_masses()) <= 2


def test_depth4_no_expansion_when_t_covers_output(field):
    orig = pos22(field)
    bal = _balanced(orig)
    t = compute_var(bal).total(bal.output)
    layered, rep = reduce_depth4(bal, t)
    assert rep.top_fanin == 1
    assert rep.tree_depth == 0
    assert layered.expand() == brute_force_expand(orig)


def test_depth4_requires_balanced(field):
    skew = build(
        3,
        [input_gate(1), input_gate(2), input_gate(3), mul_gate((0, 1)), mul_gate((3, 2))],
        field=field,
    )
    with pytest.raises(NotBalanced):
        reduce_depth4(skew, 1)


def test_violated_measure_raises(monkeypatch):
    """With the balance scan bypassed, x1*x2 + x1 + x2 summed one child at a
    time breaks the termination measure at the root: the summand x1*x2 + x1
    keeps all of its Var mass and adds no heavy factor.  Every level refuses
    that step."""
    gates = [input_gate(1), input_gate(2), mul_gate((0, 1)), add_gate((2, 0)), add_gate((3, 1))]
    c = build(2, gates)
    scan = BalanceScan(size=c.size(), max_mul_fanin=2, max_add_fanin=2, halving_ok=True)
    monkeypatch.setattr(depth_reduce, "check_balanced", lambda circuit: scan)
    with pytest.raises(NotBalanced, match="termination measure"):
        reduce_depth4(c, 1)
    with pytest.raises(NotBalanced, match="termination measure"):
        reduce_depth_delta(c, 3, t=1)


def test_depth4_t_range(field):
    bal = _balanced(pos22(field))
    with pytest.raises(InvalidParams):
        reduce_depth4(bal, 0)
    with pytest.raises(InvalidParams):
        reduce_depth4(bal, 99)


def test_depth4_leaf_budget(field):
    orig = product_of_sums(4, 4, field)  # bottom factors up to 2^4 monomials
    bal = _balanced(orig)
    with pytest.raises(ExpansionTooLarge):
        reduce_depth4(bal, 4, budget=8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_depth4_random_corpus_sample(field, seed):
    orig = random_multilinear(70, 10, seed=seed, field=field)
    norm = normalized(orig)
    bal, _ = balance(norm)
    k, n = 1, orig.n
    sched = choose_t(n, k, norm.size(), 2)
    layered, rep = reduce_depth4(bal, sched.t_value, s_stat=norm.size())
    assert layered.expand() == brute_force_expand(orig)
    assert max(layered.bottom_var_masses(), default=0) <= sched.t_value
    assert rep.tree_depth * sched.t_value <= 20 * k * n
    assert layered.max_var_coordinate() <= 1


@pytest.mark.parametrize("k", [2, 3])
def test_depth4_multi_k_ic_layers(field, k):
    orig = random_multi_k_ic(50, k, 6, seed=8, field=field)
    layered, rep = reduce_depth_delta(orig, 2)
    assert layered.expand() == brute_force_expand(orig)
    assert layered.max_var_coordinate() <= k


def test_depth4_small_t_forces_branching(field):
    orig = random_multilinear(80, 12, seed=4, field=field)
    layered, rep = reduce_depth_delta(orig, 2, t=3)
    assert rep.top_fanin > 1
    assert rep.tree_depth >= 1
    assert layered.expand() == brute_force_expand(orig)
    assert max(layered.bottom_var_masses()) <= 3


# -- reduce_depth_delta ----------------------------------------------------------------


def test_delta2_matches_depth4_pipeline_bytes(field):
    orig = random_multilinear(60, 8, seed=6, field=field)
    lay_a, rep_a = reduce_depth_delta(orig, 2)
    norm = normalized(random_multilinear(60, 8, seed=6, field=field))
    bal, _ = balance(norm)
    sched = choose_t(norm.n, 1, norm.size(), 2)
    lay_b, rep_b = reduce_depth4(bal, sched.t_value, s_stat=norm.size())
    assert json.dumps(lay_a.to_json_dict()) == json.dumps(lay_b.to_json_dict())
    assert rep_a.to_json_dict() == rep_b.to_json_dict()


@pytest.mark.parametrize("delta", [3, 4])
def test_delta_reduction_exact(field, delta):
    orig = random_multilinear(60, 10, seed=2, field=field)
    layered, rep = reduce_depth_delta(orig, delta)
    assert layered.product_depth() <= delta
    assert layered.expand() == brute_force_expand(orig)
    assert layered.max_var_coordinate() <= 1


def test_univariate_bottoms_at_t1(field):
    # t = 1 forces every bottom polynomial to touch at most one variable
    orig = random_multilinear(40, 6, seed=3, field=field)
    layered, rep = reduce_depth_delta(orig, 2, t=1)
    masses = layered.bottom_var_masses()
    assert max(masses, default=0) <= 1
    assert layered.expand() == brute_force_expand(orig)


def test_delta_very_deep_recursion(field):
    # the per-level thresholds fall geometrically; a deep target still
    # terminates with the declared product depth and exact semantics
    orig = random_multilinear(40, 6, seed=3, field=field)
    layered, rep = reduce_depth_delta(orig, 12)
    assert layered.product_depth() <= 12
    assert layered.expand() == brute_force_expand(orig)


@pytest.mark.parametrize("args, delta", [((24, 2), 3), ((12, 4), 4), ((16, 3), 3)])
def test_delta_reduction_of_wide_products(field, args, delta):
    # every bottom factor is a wide sum; reducing it instead of expanding
    # it keeps these within the default expansion budget
    orig = product_of_sums(*args, field)
    layered, rep = reduce_depth_delta(orig, delta)
    assert rep.delta == layered.delta == delta
    assert layered.product_depth() <= delta
    assert random_equiv(orig, layered, 20, 3).equivalent


def test_delta_expands_only_the_bottom_pools(monkeypatch):
    calls = []
    expand = CircuitExpander.expand

    def counting(self, gate):
        calls.append(gate)
        return expand(self, gate)

    monkeypatch.setattr(CircuitExpander, "expand", counting)
    layered, _ = reduce_depth_delta(random_multilinear(40, 6, seed=0), 3)
    assert layered.product_depth() == 3
    assert len(calls) == len(layered.bottom_var_masses())


def passes_scan(c) -> bool:
    scan = check_balanced(c)
    return scan.halving_ok and scan.max_mul_fanin <= 5


def test_reduce_depth_delta_scans_its_input_once(monkeypatch):
    # an unbalanced input is balanced, and balance()'s report of its
    # output stands in for a second scan
    calls = []
    scan = depth_reduce.check_balanced
    monkeypatch.setattr(depth_reduce, "check_balanced", lambda c: calls.append(c) or scan(c))
    c = random_multilinear(40, 6, seed=0)
    bal, _ = balance(normalized(c))
    assert not passes_scan(c) and passes_scan(bal)
    for inp in (c, bal):
        calls.clear()
        reduce_depth_delta(inp, 2)
        assert calls == [inp]


@settings(max_examples=60, deadline=None)
@given(circuits(max_fanin=4), st.sampled_from([2, 3, 4]))
def test_reduction_exact_and_every_cone_balanced(c, delta):
    """Nested levels do not scan their cones: every cone must pass the
    scan anyway."""
    cones = []
    extract = depth_reduce.extract_subcircuit

    def spy(circuit, gate):
        cones.append(extract(circuit, gate))
        return cones[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth_reduce, "extract_subcircuit", spy)
        layered, _ = reduce_depth_delta(c, delta)
    assert all(passes_scan(cone) for cone in cones)
    if expansion_bound(c, c.output) <= DEFAULT_BUDGET:
        assert layered.expand() == brute_force_expand(c)


def test_output_cone_under_gates_above_the_output_is_scanned():
    """x1^9 = x1^6 * x1^3 fails the halving check as a product.  Its one
    parent is a sum above the output, whose larger |Var| 45 would cover a
    product summand, but the output product is checked on its own: the
    circuit fails the scan, so the reduction balances it first."""
    gates = [
        input_gate(1),
        mul_gate((0, 0, 0)),  # x^3
        mul_gate((1, 1)),  # x^6
        mul_gate((2, 1, 2)),  # x^15
        mul_gate((3, 3, 3)),  # x^45
        mul_gate((2, 1)),  # x^9, the output
        add_gate((5, 0, 4)),
    ]
    c = build(1, gates, output=5)
    assert not passes_scan(c)
    assert not passes_scan(depth_reduce.extract_subcircuit(c, 5))
    for delta in (2, 3, 5):
        layered, _ = reduce_depth_delta(c, delta)
        assert layered.product_depth() <= delta
        assert layered.expand() == brute_force_expand(c)


def test_delta_bound_ratio_uses_returned_out_size():
    layered, rep = reduce_depth_delta(product_of_sums(16, 2), 3)
    assert rep.out_size == layered.flatten().size()
    kn = rep.k * rep.n
    envelope = rep.k * rep.t + (kn / rep.t) * math.log2(rep.s)
    assert rep.bound_ratio == math.log2(rep.out_size) / envelope


# (circuit, Delta, sha256 of the sorted layered JSON, t, out_size, top_fanin)
GOLDEN = [
    (
        lambda: random_multilinear(60, 10, seed=2),
        3,
        "11647deb417c334dccce79cb7136368b9d7e6b02b11c99afd2fa4787ffb8ebec",
        9,
        102,
        15,
    ),
    (
        lambda: random_multilinear(60, 10, seed=2),
        4,
        "43e9b8d9edae28d2030e88bbbea9a18bc0b9ad9c66ac64cc13455595014cb88e",
        9,
        102,
        15,
    ),
    (
        lambda: product_of_sums(16, 2),
        3,
        "8c5ec1b2c5d55208fb73d83fed5c1d219f43b77833ef0b82decab487dfadc094",
        19,
        191,
        1,
    ),
    (
        lambda: product_of_sums(16, 2),
        4,
        "f9a379fc7f5a13c42dd25af84c50091d09995804bfa503013173c478629e6bae",
        22,
        191,
        1,
    ),
    (
        lambda: random_multi_k_ic(60, 3, 12, seed=5),
        3,
        "e42a4b837f45b79ea546947c9cb0463d541b69479886e349c8a85e174dcc2ffb",
        21,
        636,
        3,
    ),
    (
        lambda: random_multi_k_ic(60, 3, 12, seed=5),
        4,
        "03e2963c9f822b5222777820c8a85c07a2bdd4a96a92fdf490aca99f875bec51",
        24,
        135,
        3,
    ),
]


@pytest.mark.parametrize("make, delta, sha, t, out_size, top_fanin", GOLDEN)
def test_delta_golden_outputs(make, delta, sha, t, out_size, top_fanin):
    layered, rep = reduce_depth_delta(make(), delta)
    text = json.dumps(layered.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    assert (rep.t, rep.out_size, rep.top_fanin) == (t, out_size, top_fanin)



# (circuit, Delta, sha256 of layered.flatten().serialize(), the text that
# `circflat reduce` writes): a Delta = 2 pool, a nested pool, and a pool
# with x_i^2 powers
FLAT_GOLDEN = [
    (
        lambda: random_multilinear(60, 10, seed=2),
        2,
        "affa4b03d1c7d558b679e9f14c56e286346230c75eca8f78a61a9e328e4d3ccf",
    ),
    (
        lambda: product_of_sums(16, 2),
        3,
        "e63ffffa510f14499f345c271437055215dd059f1f99166edde185d3cc4371ee",
    ),
    (
        lambda: product_of_sums_power(6, 3, 2),
        2,
        "6af64d202d293ecb7c0b87ddb9f5de6f3f2a466763e652f1aceee66b210cfd49",
    ),
]


@pytest.mark.parametrize("make, delta, sha", FLAT_GOLDEN)
def test_flattened_text_golden(make, delta, sha):
    layered, _ = reduce_depth_delta(make(), delta)
    text = layered.flatten().serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == sha

def test_delta_invalid(field):
    with pytest.raises(InvalidParams):
        reduce_depth_delta(pos22(field), 1)


# -- layered serialization and evaluation ------------------------------------------


def test_layered_json_schema(field):
    layered, _ = reduce_depth_delta(pos22(field), 2)
    d = layered.to_json_dict()
    assert d["delta"] == 2
    assert isinstance(d["summands"], list)
    first = d["summands"][0]
    assert {"count", "coeff", "factors"} <= set(first)
    assert "monomials" in first["factors"][0]
    mono = first["factors"][0]["monomials"][0]
    assert {"exponents", "coeff"} <= set(mono)


def test_layered_flatten_equivalent(field):
    orig = random_multilinear(50, 8, seed=12, field=field)
    layered, _ = reduce_depth_delta(orig, 2)
    # randomized identity testing accepts layered circuits directly
    assert random_equiv(orig, layered, 20, 7).equivalent
    flat = layered.flatten()
    assert random_equiv(orig, flat, 20, 7).equivalent
    assert brute_force_expand(flat) == brute_force_expand(orig)


def test_layered_evaluate_batch_matches_expand(field):
    import numpy as np

    orig = random_multilinear(50, 8, seed=14, field=field)
    layered, _ = reduce_depth_delta(orig, 3)
    poly = layered.expand()
    pts = np.array(
        [[i * 7 + j for j in range(8)] for i in range(5)], dtype=np.uint64
    )
    got = layered.evaluate_batch(pts)
    for i in range(5):
        assert int(got[i]) == poly.evaluate([int(x) for x in pts[i]])


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57])
def test_layered_expand_matches_oracle_at_every_prime(p, delta):
    from circflat.field import FieldSpec

    orig = random_multilinear(50, 8, seed=14, field=FieldSpec(p))
    layered, _ = reduce_depth_delta(orig, delta)
    assert layered.expand() == brute_force_expand(orig)
    # the flattened circuit's Var vector is (1,) * 8: 2^8 monomials at most
    assert layered.expand(budget=1 << 8) == brute_force_expand(orig)
    with pytest.raises(ExpansionTooLarge):
        layered.expand(budget=(1 << 8) - 1)


def test_layered_zero_pool_entry_stays_on_uint64(field):
    import numpy as np

    from circflat import LayeredCircuit, SparsePolynomial, Summand

    pool = [
        SparsePolynomial.zero(2, field),
        SparsePolynomial(2, field, {(1, 0): 1, (0, 0): 3}),
        SparsePolynomial.variable(2, field, 2),
    ]
    products = [Summand(1, 5, (0, 1)), Summand(1, 2, (1, 2)), Summand(1, 7, (0,))]
    layered = LayeredCircuit(2, field, 2, pool, products)
    poly = layered.expand()
    pts = np.array([[4, 9], [0, 0], [field.p - 1, 2]], dtype=np.uint64)
    got = layered.evaluate_batch(pts)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [poly.evaluate(pt) for pt in pts.tolist()]


def test_layered_evaluate_above_word_primes():
    from circflat.field import FieldSpec

    c = random_multilinear(30, 5, seed=0, field=FieldSpec((1 << 89) - 1))
    layered, _ = reduce_depth_delta(c, 2)
    point = [(1 << 88) + 977 * i + 5 for i in range(c.n)]
    assert layered.evaluate(point) == layered.flatten().evaluate(point)
    assert layered.evaluate(point) == c.evaluate(point)


# -- one flattening per result ----------------------------------------------------


def _pool_product_loop(layered, points):
    """Layered evaluation without flattening: every pool entry at every
    point (nested layered entries the same way), then each summand's
    coefficient times its factors, summed."""
    p = layered.field.p
    dtype = backends.field_dtype(p)
    pw = dtype.type(p)
    pool_vals = [
        entry.evaluate_batch(points)
        if isinstance(entry, SparsePolynomial)
        else _pool_product_loop(entry, points)
        for entry in layered.pool
    ]
    acc = np.zeros(points.shape[0], dtype=dtype)
    for sm in layered.products:
        term = np.full(points.shape[0], sm.coeff % p, dtype=dtype)
        for r in sm.factors:
            term = backends.mulmod_vec(term, pool_vals[r], pw)
        acc = backends.addmod_vec(acc, term, pw)
    return acc


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57])
def test_layered_evaluate_batch_matches_pool_product_loop(p, delta):
    field = FieldSpec(p)
    for orig in (
        random_multilinear(60, 8, seed=3, field=field),
        product_of_sums_power(6, 3, 2, field=field),
    ):
        layered, _ = reduce_depth_delta(orig, delta)
        points = np.vstack(
            [
                backends.random_point_batch(5, 40, orig.n, p),
                np.full((1, orig.n), p - 1, dtype=np.uint64),
            ]
        )
        want = _pool_product_loop(layered, points).tolist()
        assert layered.evaluate_batch(points).tolist() == want


def test_flatten_is_cached_and_renamed_over_the_same_gates(field):
    layered, _ = reduce_depth_delta(random_multilinear(40, 6, seed=1, field=field), 2)
    assert isinstance(layered.pool, tuple) and isinstance(layered.products, tuple)
    flat = layered.flatten()
    assert layered.flatten() is flat and flat.name == "layered"
    named = layered.flatten(name="x")
    assert named.name == "x" and named.structurally_equal(flat)
    assert named.gates is flat.gates
    assert layered.flatten() is flat


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_reduction_flattens_only_its_result_once(monkeypatch, delta):
    # nested levels never flatten (their out_size is never read); the
    # result is built once, by reduce_depth_delta, and then serves the
    # report, evaluation, expansion and renaming
    flattened, built = [], []
    flatten, flatten_into = LayeredCircuit.flatten, LayeredCircuit._flatten_into

    def spy_flatten(self, *args, **kwargs):
        flattened.append(self)
        return flatten(self, *args, **kwargs)

    def spy_flatten_into(self, b):
        built.append(self)
        return flatten_into(self, b)

    monkeypatch.setattr(LayeredCircuit, "flatten", spy_flatten)
    monkeypatch.setattr(LayeredCircuit, "_flatten_into", spy_flatten_into)
    orig = random_multilinear(60, 8, seed=2)
    layered, rep = reduce_depth_delta(orig, delta)
    assert built and built[0] is layered
    assert rep.out_size == layered.flatten().size() and rep.bound_ratio > 0
    assert random_equiv(orig, layered, 8, 1).equivalent
    assert layered.expand() == brute_force_expand(orig)
    structural_report(layered)
    layered.flatten(name="x")
    assert all(x is layered for x in flattened)
    assert sum(1 for x in built if x is layered) == 1
    if delta > 2:
        assert any(isinstance(e, LayeredCircuit) for e in layered.pool)


def test_expansion_report_json_keys():
    # the order of reduce --report's keys
    _, rep = reduce_depth_delta(random_multilinear(40, 6, seed=1), 3)
    assert list(rep.to_json_dict()) == [
        "top_fanin",
        "distinct_products",
        "tree_depth",
        "t",
        "n",
        "k",
        "s",
        "delta",
        "bound_ratio",
        "depth_bound_ok",
        "out_size",
    ]
