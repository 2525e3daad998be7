"""Depth reduction: schedules, the recursion-tree expansion, layered output
structure, and the recursive product-depth pipeline."""

import hashlib
import json
import math

import pytest

from circflat import (
    balance,
    brute_force_expand,
    choose_t,
    compute_var,
    expand_gate,
    random_equiv,
    reduce_depth4,
    reduce_depth_delta,
)
from circflat.circuit import add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, InvalidParams, NotBalanced
from circflat.expand import CircuitExpander
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
