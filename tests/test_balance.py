"""The balancing pass: structure of the output, exactness, determinism."""

import hashlib
import importlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circflat import (
    BalanceScan,
    backends,
    balance,
    brute_force_expand,
    check_balanced,
    check_multi_k_ic,
    compute_var,
    expansion_bound,
    random_equiv,
)
from circflat.analysis import inferred_k
from circflat.circuit import Circuit, add_gate, const_gate, input_gate, mul_gate
from circflat.errors import InvalidCircuit, TooManyProofTrees
from circflat.expand import CircuitExpander
from circflat.field import FieldSpec
from circflat.generators import random_multi_k_ic, random_multilinear
from circflat.normalize import normalized
from circflat.quotient import quotient_table
from circflat.verify import proof_tree_sum

from conftest import at_prime, build
from test_var import circuits

M61 = (1 << 61) - 1
M31 = (1 << 31) - 1
P62 = (1 << 62) - 57

# the package rebinds the name circflat.balance to the function
balance_module = importlib.import_module("circflat.balance")


def right_comb(n, field=None):
    gates = [input_gate(i + 1) for i in range(n)]
    acc = n - 1
    for i in range(n - 2, -1, -1):
        gates.append(mul_gate((i, acc)))
        acc = len(gates) - 1
    return build(n, gates, output=acc, field=field)


# -- check_balanced -----------------------------------------------------------


def test_check_balanced_product_of_two_vars():
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    rep = check_balanced(c)
    assert rep == BalanceScan(size=2, max_mul_fanin=2, max_add_fanin=0, halving_ok=True)


def test_check_balanced_skewed_product():
    c = build(
        3,
        [input_gate(1), input_gate(2), input_gate(3), mul_gate((0, 1)), mul_gate((3, 2))],
    )
    rep = check_balanced(c)
    assert not rep.halving_ok  # left child has |Var| 2 > 3/2


def test_check_balanced_scaling_gates_exempt():
    c = build(1, [const_gate(5), input_gate(1), mul_gate((0, 1))])
    assert check_balanced(c).halving_ok


def test_check_balanced_product_inside_sum_uses_sum_potential():
    # add(x1 + ... , mul(bigish, small)): the product is measured against
    # the sum gate it feeds
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        input_gate(4),
        mul_gate((0, 1)),  # |Var| 2
        mul_gate((4, 2)),  # |Var| 3: factor 2 vs own 3 fails, but...
        add_gate((5, 3)),  # ...the sum above has |Var| 4, and 2 <= 4/2
    ]
    assert check_balanced(build(4, gates)).halving_ok


# -- balance ------------------------------------------------------------------


def test_balance_single_input_is_identity(field):
    c = build(1, [input_gate(1)], field=field)
    out, rep = balance(c)
    assert out.gates == c.gates and out.output == c.output
    assert rep.max_mul_fanin == 0
    assert rep.halving_ok and rep.k_preserved
    assert rep.base_case_count == 1


def test_balance_right_comb(field):
    c = normalized(right_comb(8, field))
    out, rep = balance(c)
    assert rep.max_mul_fanin <= 5
    assert rep.halving_ok
    assert rep.k_preserved
    assert check_multi_k_ic(out, 1)[0]
    assert random_equiv(right_comb(8, field), out, 20, 0).equivalent


def test_balance_square_times_var(field):
    # (x1 * x1) * x2: multi-2-ic, one monomial x1^2 x2
    c = normalized(
        build(2, [input_gate(1), input_gate(2), mul_gate((0, 0)), mul_gate((2, 1))], field=field)
    )
    out, rep = balance(c)
    assert rep.k_preserved
    assert check_multi_k_ic(out, 2)[0]
    poly = brute_force_expand(out)
    assert poly.terms == {(2, 1): 1}


def test_balance_requires_binary(field):
    c = build(3, [input_gate(1), input_gate(2), input_gate(3), add_gate((0, 1, 2))], field=field)
    with pytest.raises(InvalidCircuit):
        balance(c)


def test_balance_requires_right_heavy(field):
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        mul_gate((0, 1)),
        mul_gate((3, 2)),  # left |Var| 2 > right 1
    ]
    with pytest.raises(InvalidCircuit):
        balance(build(3, gates, field=field))


def test_pipeline_over_tiny_fields():
    from circflat.depth_reduce import reduce_depth_delta

    f2 = FieldSpec(2)
    c = random_multilinear(40, 6, seed=4, field=f2)
    out, rep = balance(normalized(c))
    assert rep.halving_ok and rep.k_preserved
    assert brute_force_expand(out) == brute_force_expand(c)
    lay, _ = reduce_depth_delta(c, 2)
    assert lay.expand() == brute_force_expand(c)
    f3 = FieldSpec(3)
    cc = random_multi_k_ic(40, 2, 6, seed=1, field=f3)
    out3, rep3 = balance(normalized(cc))
    assert rep3.k_preserved
    assert brute_force_expand(out3) == brute_force_expand(cc)


def test_balance_exact_when_p_at_most_k():
    """Base keys are affine in one variable, so two points fix them at
    every prime, also where p <= k leaves fewer than k + 1 field points."""
    sq = normalized(build(1, [input_gate(1), mul_gate((0, 0))], field=FieldSpec(2)))
    out, _ = balance(sq)
    assert brute_force_expand(out) == brute_force_expand(sq)
    c = random_multi_k_ic(40, 3, 6, seed=0, field=FieldSpec(3))
    out, rep = balance(normalized(c))
    assert brute_force_expand(out) == brute_force_expand(c)
    assert rep.halving_ok and check_balanced(out).max_mul_fanin <= 5


def test_balance_constant_subcircuits_fold(field):
    gates = [
        const_gate(3),
        const_gate(4),
        input_gate(1),
        mul_gate((0, 1)),  # constant 12
        add_gate((3, 2)),  # 12 + x1
    ]
    c = normalized(build(1, gates, field=field))
    out, _ = balance(c)
    poly = brute_force_expand(out)
    assert poly.terms == {(0,): 12, (1,): 1}


def test_balance_constant_output(field):
    c = build(2, [const_gate(9), const_gate(4), mul_gate((0, 1))], field=field)
    out, rep = balance(c)
    assert out.num_gates == 1
    assert out.gates[0].value == 36
    assert rep.base_case_count == 1


def test_balance_zero_constant_branch(field):
    # (x1 + 0*x2) * x3: the zero constant kills a branch semantically but
    # the base cases absorb it exactly
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        const_gate(0),
        mul_gate((3, 1)),
        add_gate((0, 4)),
        mul_gate((5, 2)),
    ]
    c = build(3, gates, field=field)
    out, rep = balance(normalized(c))
    assert rep.halving_ok and rep.k_preserved
    poly = brute_force_expand(out)
    assert poly.terms == {(1, 0, 1): 1}


def test_balance_dead_subcircuit_with_potential(field):
    # a semantically-zero subcircuit of potential 2 inside a live product:
    # syntactic Var survives in the output, halving stays intact
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        input_gate(4),
        input_gate(5),
        input_gate(6),
        const_gate(0),
        mul_gate((0, 1)),
        mul_gate((6, 7)),
        mul_gate((2, 3)),
        add_gate((9, 8)),
        mul_gate((4, 5)),
        mul_gate((10, 11)),
    ]
    c = build(6, gates, field=field)
    out, rep = balance(normalized(c))
    assert rep.halving_ok
    assert brute_force_expand(out) == brute_force_expand(c)
    assert compute_var(out).total(out.output) == 6


def test_balance_deterministic(field):
    c = normalized(random_multilinear(60, 8, seed=21, field=field))
    a, _ = balance(c)
    b, _ = balance(normalized(random_multilinear(60, 8, seed=21, field=field)))
    assert a.serialize() == b.serialize()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_balance_random_corpus_sample(field, seed):
    orig = random_multilinear(70, 10, seed=seed, field=field)
    norm = normalized(orig)
    out, rep = balance(norm)
    assert rep.max_mul_fanin <= 5
    assert rep.halving_ok
    assert rep.k_preserved
    assert brute_force_expand(out) == brute_force_expand(orig)
    assert rep.output_size <= max(rep.input_size, 2) ** 6
    for kk in (1, 2, 3):
        assert check_multi_k_ic(out, kk)[0] == check_multi_k_ic(orig, kk)[0]


@pytest.mark.parametrize("k", [2, 3])
def test_balance_multi_k_ic(field, k):
    orig = random_multi_k_ic(50, k, 6, seed=5, field=field)
    out, rep = balance(normalized(orig))
    assert rep.halving_ok and rep.k_preserved
    assert check_multi_k_ic(out, k)[0]
    assert brute_force_expand(out) == brute_force_expand(orig)


def test_balance_potential_halving_structure(field):
    """Every product gate's children stay within half the potential of the
    sum node above (the decomposition invariant, spot-checked directly)."""
    out, _ = balance(normalized(random_multilinear(60, 8, seed=13, field=field)))
    var = compute_var(out)
    add_parents = {}
    for g, gate in enumerate(out.gates):
        if gate.kind == "add":
            for c in gate.children:
                add_parents.setdefault(c, []).append(g)
    for g, gate in enumerate(out.gates):
        if gate.kind != "mul":
            continue
        carrying = [c for c in gate.children if var.total(c) > 0]
        if len(carrying) < 2:
            continue
        ref = max([var.total(g)] + [var.total(a) for a in add_parents.get(g, ())])
        for c in gate.children:
            assert 2 * var.total(c) <= ref


# -- base-case evaluation ---------------------------------------------------


def _affine_in(poly, vec):
    """poly is at most a constant plus c * x_i, x_i the one variable with
    vec[i] = 1 (vec has |Var| <= 1)."""
    return all(sum(exps) <= 1 and all(e <= v for e, v in zip(exps, vec)) for exps in poly.terms)


@settings(max_examples=60, deadline=None)
@given(circuits(), st.sampled_from((2, 3, 997, M61)))
@example(build(1, [input_gate(1), mul_gate((0, 0)), add_gate((1, 0))]), 2)
def test_base_keys_are_affine_property(c, p):
    """Balance reads each key of potential <= 1 at two points; that is
    exact because such a key, plain [u] or quotient [u:v], is a constant
    plus one x_i^1 term.  The circuits include squares (a product may read
    the same child twice)."""
    c = at_prime(c, p)
    var = compute_var(c)
    expander = CircuitExpander(c, 1 << 16)
    for u in range(c.num_gates):
        if var.total(u) <= 1:
            assert _affine_in(expander.expand(u), var.vector(u))
    for v in range(c.num_gates):
        qt = quotient_table(c, v)
        for u in range(v, c.num_gates):
            if not qt.reachable[u] or qt.total(u) > 1:
                continue
            try:
                poly = proof_tree_sum(c, u, snip=v)
            except TooManyProofTrees:
                continue
            assert _affine_in(poly, qt.vector(u))


def test_balance_evaluates_once_and_sweeps_each_target_once(monkeypatch):
    c = normalized(random_multilinear(200, 16, seed=0))
    evals = []
    targets = []
    eval_program = backends.eval_program
    quotient_values_batch = balance_module.quotient_values_batch

    def spy_eval(kinds, payload, child_off, children, points, p):
        evals.append(points.shape)
        return eval_program(kinds, payload, child_off, children, points, p)

    def spy_quotient(circuit, target, columns):
        targets.append(target)
        return quotient_values_batch(circuit, target, columns)

    monkeypatch.setattr(backends, "eval_program", spy_eval)
    monkeypatch.setattr(balance_module, "quotient_values_batch", spy_quotient)
    balance(c)
    # one sweep over the grid: the origin plus the n unit vectors
    assert evals == [(c.n + 1, c.n)]
    assert targets and len(targets) == len(set(targets))


@pytest.mark.parametrize("k", [2, 3])
def test_balance_reads_n_plus_one_points_at_every_k(monkeypatch, k):
    c = normalized(random_multi_k_ic(60, k, 8, seed=3))
    assert inferred_k(c) == k
    shapes = []
    eval_table = Circuit.eval_table

    def spy(self, points):
        shapes.append(points.shape)
        return eval_table(self, points)

    monkeypatch.setattr(Circuit, "eval_table", spy)
    out, _ = balance(c)
    assert shapes == [(c.n + 1, c.n)]
    assert brute_force_expand(out) == brute_force_expand(c)


# balanced-text sha256 at each kernel regime, for k = 1 and k = 3
GOLDEN = [
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M61)),
        "c663c86ee345ce0cb20795a0e1e437b467bf970e20fb95e0a2b3591e5f9c84d5",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(M31)),
        "888eb0bb7fd3ba0b4069b6e70d7e9b3d429cb257e9ccd905c2e4b1b65eec0616",
    ),
    (
        lambda: random_multilinear(60, 8, seed=3, field=FieldSpec(P62)),
        "1ef2c53af26654d3b3301cad05164ca4117dc42ff9b724e4f3670d01bc0feb78",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(M61)),
        "3002658db1d30dcca0e4a84d13d03d46d7e112231c7add25b22f3f6b4d0fde6b",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(M31)),
        "187b12663d438a71dec74dd44b5698b23a681e92fd0d8d6294f0907d83fe3817",
    ),
    (
        lambda: random_multi_k_ic(50, 3, 6, seed=5, field=FieldSpec(P62)),
        "a46fbf82f4222efae0cc918060b2aa05567cc9061137c4bdcabf27c204bbaa23",
    ),
]


@pytest.mark.parametrize("make, sha", GOLDEN)
def test_balance_golden_outputs(make, sha):
    out, _ = balance(normalized(make()))
    assert hashlib.sha256(out.serialize().encode()).hexdigest() == sha


PROPERTY_PRIMES = (2, 3, 5, 7, 10007, M61, P62)


@settings(max_examples=100, deadline=None)
@given(circuits(), st.sampled_from(PROPERTY_PRIMES))
def test_balance_matches_oracle_property(c, p):
    c = at_prime(c, p)
    assume(expansion_bound(c, c.output) <= 1 << 16)
    norm = normalized(c)
    out, _ = balance(norm)
    assert brute_force_expand(out) == brute_force_expand(c)
    if p <= max(inferred_k(norm), 1):
        # no halving check: a base key whose x_i coefficient is 0 mod p
        # folds to a constant, and small primes make that likely
        return
    scan = check_balanced(out)
    assert scan.halving_ok and scan.max_mul_fanin <= 5
