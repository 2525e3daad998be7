"""Depth reduction: schedules, the recursion-tree expansion, layered output
structure, and the recursive product-depth pipeline."""

import json

import pytest

from circflat import (
    balance,
    brute_force_expand,
    choose_t,
    compute_var,
    expand_sparse,
    random_equiv,
    reduce_depth4,
    reduce_depth_delta,
)
from circflat.circuit import add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, InvalidParams, NotBalanced
from circflat.generators import (
    product_of_sums,
    random_multi_k_ic,
    random_multilinear,
)
from circflat.normalize import normalized

from conftest import build, pos22


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


# -- expand_sparse ---------------------------------------------------------------


def test_expand_sparse_product_of_sums(field):
    c = pos22(field)
    poly = expand_sparse(c, c.output, budget=100)
    assert poly.num_terms() == 4 and all(v == 1 for v in poly.terms.values())


def test_expand_sparse_const(field):
    c = build(1, [const_gate(7)], field=field)
    assert expand_sparse(c, 0, budget=10).terms == {(0,): 7}


def test_expand_sparse_square_plus_linear(field):
    # x1*x1 + 2*x1: two monomials within the bound (1 + 2) = 3
    gates = [input_gate(1), const_gate(2), mul_gate((0, 0)), mul_gate((1, 0)), add_gate((2, 3))]
    c = build(1, gates, field=field)
    poly = expand_sparse(c, 4, budget=3)
    assert poly.terms == {(2,): 1, (1,): 2}
    with pytest.raises(ExpansionTooLarge):
        expand_sparse(c, 4, budget=2)


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
    assert rep.measure_ok


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
    assert rep.measure_ok
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
