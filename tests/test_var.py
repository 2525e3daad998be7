"""The Var analysis: the defining recurrences, soundness against the exact
oracle, agreement with exhaustive proof-tree enumeration, and the packed
Var and quotient tables against a plain tuple sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circflat import (
    QuotientTable,
    brute_force_expand,
    check_multi_k_ic,
    compute_var,
    enumerate_proof_trees,
)
from circflat.circuit import (
    ADD,
    CONST,
    INPUT,
    MUL,
    Circuit,
    add_gate,
    const_gate,
    input_gate,
    mul_gate,
)
from circflat.field import FieldSpec

from conftest import build


# -- reference: the Var recurrences on tuples ---------------------------------


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_max(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def reference_var(c):
    """Var(g) of every gate as a tuple, one topological sweep."""
    zero = (0,) * c.n
    vectors = []
    for g in c.gates:
        if g.kind == INPUT:
            vectors.append(tuple(1 if i == g.var - 1 else 0 for i in range(c.n)))
        elif g.kind == CONST:
            vectors.append(zero)
        else:
            op = vec_add if g.kind == MUL else vec_max
            acc = vectors[g.children[0]]
            for ch in g.children[1:]:
                acc = op(acc, vectors[ch])
            vectors.append(acc)
    return vectors


def reference_quotient(c, v):
    """Var(u:v) of every gate u as a tuple, None where u does not reach v."""
    plain = reference_var(c)
    vectors = [None] * c.num_gates
    vectors[v] = (0,) * c.n
    for g in range(v + 1, c.num_gates):
        gate = c.gates[g]
        if gate.kind == ADD:
            acc = None
            for ch in gate.children:
                if vectors[ch] is not None:
                    acc = vectors[ch] if acc is None else vec_max(acc, vectors[ch])
            vectors[g] = acc
        elif gate.kind == MUL and vectors[gate.children[-1]] is not None:
            acc = vectors[gate.children[-1]]
            for ch in gate.children[:-1]:
                acc = vec_add(acc, plain[ch])
            vectors[g] = acc
    return vectors


def assert_tables_match_reference(c):
    ref = reference_var(c)
    var = compute_var(c)
    assert len(var) == c.num_gates
    assert [var.vector(g) for g in range(c.num_gates)] == ref
    assert [var[g] for g in range(c.num_gates)] == ref
    assert var.totals == [sum(vec) for vec in ref]
    assert [var.total(g) for g in range(c.num_gates)] == var.totals
    assert var.max_coord == max((max(vec, default=0) for vec in ref), default=0)
    for v in range(c.num_gates):
        qref = reference_quotient(c, v)
        qt = QuotientTable(c, v)
        assert [qt.vector(g) for g in range(c.num_gates)] == qref
        assert qt.totals == [None if vec is None else sum(vec) for vec in qref]
        assert qt.reachable == [vec is not None for vec in qref]


def test_var_add_of_product():
    # x1*x2 + x1
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1)), add_gate((2, 0))])
    var = compute_var(c)
    assert var.vector(3) == (1, 1)
    assert var.total(3) == 2


def test_var_squares_sum_children():
    c = build(1, [input_gate(1), mul_gate((0, 0))])
    assert compute_var(c).vector(1) == (2,)


def test_var_product_of_sums():
    c = build(
        4,
        [
            input_gate(1),
            input_gate(2),
            input_gate(3),
            input_gate(4),
            add_gate((0, 1)),
            add_gate((2, 3)),
            mul_gate((4, 5)),
        ],
    )
    var = compute_var(c)
    assert var.vector(6) == (1, 1, 1, 1)
    assert var.total(4) == 2 and var.total(5) == 2


def test_const_gate_is_zero_vector():
    c = build(2, [const_gate(7)])
    assert compute_var(c).vector(0) == (0, 0)


def test_multi_k_ic_checks():
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1)), add_gate((2, 0))])
    assert check_multi_k_ic(c, 1) == (True, [])
    sq = build(1, [input_gate(1), mul_gate((0, 0))])
    ok, bad = check_multi_k_ic(sq, 1)
    assert not ok and bad == [1]
    assert check_multi_k_ic(sq, 2) == (True, [])


# -- random circuits via hypothesis -----------------------------------------


@st.composite
def circuits(draw, max_n=5, max_internal=10, max_fanin=2):
    """Random circuits over F_997.  Sum and product gates get fan-in 2, or
    2..max_fanin when that is larger (the default draws nothing extra)."""
    n = draw(st.integers(1, max_n))
    f = FieldSpec(997)
    gates = [input_gate(i + 1) for i in range(n)]
    num_internal = draw(st.integers(1, max_internal))
    for _ in range(num_internal):
        kind = draw(st.sampled_from(["add", "mul", "const"]))
        if kind == "const":
            gates.append(const_gate(draw(st.integers(0, 996))))
            continue
        fanin = 2 if max_fanin == 2 else draw(st.integers(2, max_fanin))
        kids = [draw(st.integers(0, len(gates) - 1)) for _ in range(fanin)]
        gates.append(add_gate(kids) if kind == "add" else mul_gate(kids))
    out = draw(st.integers(0, len(gates) - 1))
    return Circuit(n, gates, out, field=f)


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_var_soundness(c):
    """Semantic per-variable degree never exceeds the Var coordinate."""
    var = compute_var(c)
    poly = brute_force_expand(c, budget=1 << 16)
    degs = poly.per_var_degrees()
    assert all(d <= v for d, v in zip(degs, var.vector(c.output)))


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_var_monotone_towards_leaves(c):
    """Every gate's Var dominates each of its children's coordinatewise."""
    var = compute_var(c)
    for g, gate in enumerate(c.gates):
        for child in gate.children:
            assert all(
                pv >= cv for pv, cv in zip(var.vector(g), var.vector(child))
            )


@settings(max_examples=25, deadline=None)
@given(circuits(max_n=4, max_internal=8))
def test_var_equals_max_proof_tree_degree(c):
    """On small circuits, Var is exactly the coordinatewise max of monomial
    degrees over all proof-trees (trees count syntactically, even when
    their value vanishes mod p)."""
    var = compute_var(c)
    for g in range(c.num_gates):
        trees = enumerate_proof_trees(c, g, cap=1 << 14)
        maxes = [0] * c.n
        for exps, _coeff in trees:
            maxes = [max(m, e) for m, e in zip(maxes, exps)]
        assert tuple(maxes) == var.vector(g)


@settings(max_examples=60, deadline=None)
@given(circuits(max_internal=16, max_fanin=4))
def test_packed_tables_match_reference_property(c):
    """Packed Var and quotient tables equal the tuple sweep at every gate
    and every target; repeated products push coordinates across bytes."""
    assert_tables_match_reference(c)


def squarings(n, var, top):
    """Powers x_var^(2^j) for j = 0..top by repeated squaring, then
    x_var^(2^j - 1) for j = 7 and 15 as products of the lower powers, and
    sums mixing each power with its neighbours in both child orders."""
    gates = [input_gate(i + 1) for i in range(n)]
    power = [var - 1]
    for _ in range(top):
        gates.append(mul_gate((power[-1], power[-1])))
        power.append(len(gates) - 1)
    for j in (7, 15):
        if j <= top:
            gates.append(mul_gate(power[:j]))
            below = len(gates) - 1
            gates.append(add_gate((below, power[j])))
            gates.append(add_gate((power[j], below)))
            gates.append(add_gate((power[j - 1], below, 0)))
    gates.append(add_gate(tuple(range(len(gates)))))
    return build(n, gates)


@pytest.mark.parametrize("n", [1, 48])
@pytest.mark.parametrize("top", [7, 8, 15, 16])
def test_coordinates_at_byte_boundaries(n, top):
    """Coordinates 127/128 and 32767/32768 sit at the top bit of one and
    two bytes, where the fieldwise max needs its guard bit."""
    c = squarings(n, n, top)
    assert compute_var(c).max_coord == 1 << top
    assert_tables_match_reference(c)


def test_no_variables_sum_of_constants():
    c = Circuit(0, [const_gate(3), const_gate(4), add_gate((0, 1)), mul_gate((2, 0))], 2)
    var = compute_var(c)
    assert var.vector(2) == () and var.totals == [0, 0, 0, 0] and var.max_coord == 0
    assert check_multi_k_ic(c, 0) == (True, [])
    assert_tables_match_reference(c)


@pytest.mark.parametrize("n", [1, 48])
def test_multi_k_ic_at_the_largest_coordinate(n):
    c = squarings(n, 1, 15)
    ref = reference_var(c)
    top = compute_var(c).max_coord
    assert check_multi_k_ic(c, top) == (True, [])
    bad = [g for g, vec in enumerate(ref) if max(vec) > top - 1]
    assert bad and check_multi_k_ic(c, top - 1) == (False, bad)
