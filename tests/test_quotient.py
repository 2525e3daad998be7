"""Gate quotients: tables, evaluation, frontier sets and the decomposition
identities, cross-checked against snipped proof-tree enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circflat import (
    check_decomposition,
    compute_var,
    enumerate_proof_trees,
    eval_quotient,
    frontier_edges,
    proof_tree_sum,
    quotient_table,
)
from circflat.backends import random_point_batch
from circflat.circuit import add_gate, input_gate, mul_gate
from circflat.errors import InvalidParams, PreconditionViolated
from circflat.field import FieldSpec
from circflat.generators import random_multilinear
from circflat.normalize import normalized
from circflat.quotient import decomposition_terms, quotient_values_batch
from circflat.verify import enumerate_proof_trees_with_paths

from conftest import at_prime, build, pos22
from test_var import circuits


def test_quotient_of_self():
    c = pos22()
    for v in range(c.num_gates):
        qt = quotient_table(c, v)
        assert qt.reachable[v]
        assert qt.vector(v) == (0,) * c.n
        assert eval_quotient(c, v, v, [3, 1, 4, 1]) == 1


def test_quotient_right_slot():
    # u = mul(x1, v) with v = x2: Var(u:v) = Var(x1)
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    qt = quotient_table(c, 1)
    assert qt.reachable[2]
    assert qt.vector(2) == (1, 0)


def test_quotient_left_slot_unreachable():
    # u = mul(v, x2) with v = x1 in the left slot: no v-snipped tree roots at u
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    qt = quotient_table(c, 0)
    assert not qt.reachable[2]
    assert qt.vector(2) is None
    # enumeration agrees: zero snipped trees
    assert enumerate_proof_trees(c, 2, snip=0) == []
    assert eval_quotient(c, 2, 0, [5, 7]) == 0


def test_eval_quotient_sum_of_products():
    # u = mul(x1,w) + mul(x2,w), w = x3: [u:w] = x1 + x2
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        mul_gate((0, 2)),
        mul_gate((1, 2)),
        add_gate((3, 4)),
    ]
    c = build(3, gates)
    assert eval_quotient(c, 5, 2, [3, 5, 11]) == 8
    # symbolic cross-check via snipped proof-trees
    poly = proof_tree_sum(c, 5, snip=2)
    assert poly.terms == {(1, 0, 0): 1, (0, 1, 0): 1}


@pytest.mark.parametrize("p", ((1 << 61) - 1, (1 << 31) - 1, (1 << 62) - 57))
def test_quotient_semantics_match_snipped_trees(p):
    """eval_quotient equals the sum over enumerated snipped proof-trees, at
    random points and monomial-for-monomial on small circuits."""
    field = FieldSpec(p)
    rng = random.Random(5)
    for seed in range(4):
        c = normalized(random_multilinear(24, 5, seed=seed, field=field))
        for _ in range(5):
            u = rng.randrange(c.num_gates)
            v = rng.randrange(c.num_gates)
            poly = proof_tree_sum(c, u, snip=v, cap=1 << 14)
            for trial in range(3):
                point = [rng.randrange(field.p) for _ in range(c.n)]
                assert eval_quotient(c, u, v, point) == poly.evaluate(point)


def test_subadditivity_along_rightmost_paths(field):
    """Var(u:w) + Var(w) <= Var(u) coordinatewise for every w on the
    rightmost path of some proof-tree at u, and the snipped analogue."""
    c = normalized(random_multilinear(24, 5, seed=9, field=field))
    var = compute_var(c)
    for u in range(c.num_gates - 1, -1, -1):
        trees = enumerate_proof_trees_with_paths(c, u, cap=1 << 12)
        path_gates = {w for _, _, rp in trees for w in rp}
        for w in path_gates:
            qt = quotient_table(c, w)
            if not qt.reachable[u]:
                continue
            combined = [a + b for a, b in zip(qt.vector(u), var.vector(w))]
            assert all(x <= y for x, y in zip(combined, var.vector(u)))
        break  # the output gate alone exercises every rightmost path below it


def test_subadditivity_snipped_variant(field):
    c = normalized(random_multilinear(20, 4, seed=2, field=field))
    var = compute_var(c)
    u = c.output
    for v in range(c.num_gates):
        qt_v = quotient_table(c, v)
        if not qt_v.reachable[u] or v == u:
            continue
        trees = enumerate_proof_trees_with_paths(c, u, snip=v, cap=1 << 12)
        for _, _, rp in trees:
            for w in rp[:-1]:
                qt_w = quotient_table(c, w)
                if not qt_w.reachable[u] or not qt_v.reachable[w]:
                    continue
                combined = [a + b for a, b in zip(qt_w.vector(u), qt_v.vector(w))]
                assert all(x <= y for x, y in zip(combined, qt_v.vector(u)))


# -- frontier edges -----------------------------------------------------------


def test_frontier_m2():
    c = pos22()
    fs = frontier_edges(c, 2)
    assert fs.mul_edges == []
    assert fs.add_edges == [(4, 0), (4, 1), (5, 2), (5, 3)]


def test_frontier_m3_lists_both_product_edges():
    c = pos22()
    fs = frontier_edges(c, 3)
    assert fs.mul_edges == [(6, 4), (6, 5)]
    assert fs.add_edges == []


def test_frontier_m1_constant_children_only(field):
    from circflat.circuit import const_gate

    gates = [input_gate(1), const_gate(9), mul_gate((0, 1)), add_gate((2, 1))]
    c = build(1, gates, field=field)
    fs = frontier_edges(c, 1)
    # only edges into the |Var| = 0 constant qualify
    assert fs.mul_edges == [(2, 1)]
    assert fs.add_edges == [(3, 1)]


def test_frontier_target_mode_uses_quotient_vars():
    c = pos22()
    # with respect to v = x4 (gate 3): Var(6:v) = (1,1,0,0) from [6:v] = a1,
    # Var(5:v) = 0, other gates unreachable
    fs = frontier_edges(c, 1, target=3)
    assert fs.mul_edges == [(6, 5)]
    assert fs.add_edges == []


def test_frontier_uniqueness_on_rightmost_paths(field):
    """Every proof-tree's rightmost path crosses exactly one frontier edge
    (m >= 2 plain; any m >= 1 for snipped trees against quotient-var
    frontiers when the root's quotient potential reaches m)."""
    for seed in (1, 3):
        c = normalized(random_multilinear(20, 4, seed=seed, field=field))
        var = compute_var(c)
        u = c.output
        trees = enumerate_proof_trees_with_paths(c, u, cap=1 << 12)
        for m in range(2, var.total(u) + 1):
            fs = frontier_edges(c, m)
            edges = set(fs.mul_edges) | set(fs.add_edges)
            for _, _, rp in trees:
                crossings = sum(
                    1 for a, b in zip(rp, rp[1:]) if (a, b) in edges
                )
                assert crossings == 1


def test_frontier_uniqueness_snipped(field):
    c = normalized(random_multilinear(20, 4, seed=4, field=field))
    u = c.output
    for v in range(c.num_gates):
        qt = quotient_table(c, v)
        if not qt.reachable[u] or v == u:
            continue
        trees = enumerate_proof_trees_with_paths(c, u, snip=v, cap=1 << 12)
        total = qt.total(u)
        for m in range(1, total + 1):
            fs = frontier_edges(c, m, target=v)
            edges = set(fs.mul_edges) | set(fs.add_edges)
            for _, _, rp in trees:
                crossings = sum(1 for a, b in zip(rp, rp[1:]) if (a, b) in edges)
                assert crossings == 1


# -- decomposition identity ----------------------------------------------------


def test_decomposition_pos_root():
    c = pos22()
    chk = check_decomposition(c, c.output, None, 2, trials=20, seed=0)
    assert chk.holds and chk.equation == 1


def test_decomposition_precondition_violated():
    c = pos22()
    with pytest.raises(PreconditionViolated):
        check_decomposition(c, 0, None, 2)  # |Var(x1)| = 1 < 2
    with pytest.raises(PreconditionViolated):
        check_decomposition(c, c.output, 4, 2)  # |Var(a2)| = 2 >= m


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("v", [None, 35])
def test_decomposition_needs_a_trial(trials, v):
    c = normalized(random_multilinear(40, 6, seed=0))
    assert v is None or quotient_table(c, v).reachable[c.output]
    with pytest.raises(InvalidParams):
        check_decomposition(c, c.output, v, 2, trials=trials)


def test_decomposition_unreachable_v_is_vacuous():
    c = pos22()
    # v = gate 4 (the left add) is not quotient-reachable from the root
    chk = check_decomposition(c, c.output, 4, 3, trials=5, seed=1)
    assert chk.holds and chk.vacuous and chk.term_count == 0


def test_decomposition_random_corpus(field):
    """Both identities hold on randomly sampled admissible triples: plain
    needs m >= 2; the quotient variant needs quotient potential >= m."""
    rng = random.Random(7)
    for seed in range(6):
        c = normalized(random_multilinear(50, 8, seed=seed, field=field))
        var = compute_var(c)
        done_plain = done_quot = 0
        for u in range(c.num_gates - 1, -1, -1):
            if done_plain >= 3:
                break
            if var.total(u) >= 2:
                m = rng.randint(2, var.total(u))
                chk = check_decomposition(c, u, None, m, trials=10, seed=seed)
                assert chk.holds, (seed, u, m)
                done_plain += 1
        for v in range(c.num_gates):
            if done_quot >= 3:
                break
            qt = quotient_table(c, v)
            u = c.output
            if v == u or not qt.reachable[u] or qt.total(u) < 1:
                continue
            m = rng.randint(1, qt.total(u))
            if var.total(v) >= m:
                continue
            chk = check_decomposition(c, u, v, m, trials=10, seed=seed + 100)
            assert chk.holds, (seed, u, v, m)
            done_quot += 1
        assert done_plain and done_quot


def test_decomposition_checker_is_sensitive():
    """The checker honestly reports failure where the identity breaks: at
    m = 1 a rightmost path ending in a variable leaf never crosses the
    frontier, so part of the polynomial goes missing."""
    c = build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))])
    chk = check_decomposition(c, 2, None, 1, trials=10, seed=0)
    assert not chk.holds
    assert chk.failed_trials


def _symbolic_quotients(c, v, plain):
    """[g:v] for every gate, by the four-case recursion over exact
    polynomial arithmetic."""
    from circflat.sparse import SparsePolynomial

    zero = SparsePolynomial.zero(c.n, c.field)
    one = SparsePolynomial.const(c.n, c.field, 1)
    q = [zero] * c.num_gates
    for g in range(c.num_gates):
        if g == v:
            q[g] = one
            continue
        gate = c.gates[g]
        if gate.kind == "add":
            acc = zero
            for ch in gate.children:
                acc = acc.add(q[ch])
            q[g] = acc
        elif gate.kind == "mul":
            acc = q[gate.children[-1]]
            for ch in gate.children[:-1]:
                acc = acc.mul(plain[ch])
            q[g] = acc
    return q


def test_decomposition_identities_exhaustive_symbolic(field):
    """Every admissible threshold on small random circuits, verified with
    exact polynomial arithmetic rather than sampling: the plain identity
    for all (u, m >= 2), the quotient identity for all reachable (u, v)
    and every 1 <= m <= |Var(u:v)|."""
    from circflat.expand import CircuitExpander
    from circflat.sparse import SparsePolynomial

    for seed in range(4):
        c = normalized(random_multilinear(24, 5, seed=seed, field=field))
        var = compute_var(c)
        expander = CircuitExpander(c, 1 << 16)
        plain = [expander.expand(g) for g in range(c.num_gates)]
        one = SparsePolynomial.const(c.n, field, 1)
        qcache = {}

        def qp(v):
            if v not in qcache:
                qcache[v] = _symbolic_quotients(c, v, plain)
            return qcache[v]

        def rhs_sum(u, m, v, tails):
            acc = SparsePolynomial.zero(c.n, field)
            for t in decomposition_terms(c, u, m, target=v):
                f = one if t.w == u else qp(t.w)[u]
                if t.is_mul and c.gates[t.w].fanin() == 2:
                    f = f.mul(plain[c.gates[t.w].children[0]])
                acc = acc.add(f.mul(tails[t.z]))
            return acc

        for u in range(c.num_gates):
            for m in range(2, var.total(u) + 1):
                assert rhs_sum(u, m, None, plain) == plain[u], (seed, u, m)
        for v in range(c.num_gates):
            qt = quotient_table(c, v)
            for u in range(c.num_gates):
                if u == v or not qt.reachable[u]:
                    continue
                for m in range(1, (qt.total(u) or 0) + 1):
                    assert rhs_sum(u, m, v, qp(v)) == qp(v)[u], (seed, u, v, m)


def test_decomposition_json_roundtrip():
    c = pos22()
    chk = check_decomposition(c, c.output, None, 2, trials=5, seed=3)
    d = chk.to_json_dict()
    assert d["verdict"] == "holds" and d["m"] == 2 and d["trials"] == 5


def test_decomposition_terms_skip_dead_edges():
    c = pos22()
    # at m = 2 only the right add (gate 5) is quotient-reachable from root
    terms = decomposition_terms(c, c.output, 2)
    assert {(t.w, t.z) for t in terms} == {(5, 2), (5, 3)}


@settings(max_examples=60, deadline=None)
@given(
    circuits(),
    st.sampled_from((2, 3, 5, 7, 10007, (1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57)),
    st.integers(0, 1 << 16),
)
def test_quotient_values_match_snipped_trees_property(c, p, seed):
    """The quotient sweep gives [u:v] for every gate u and every target v as
    the sum over enumerated v-snipped proof-trees, at random points."""
    c = at_prime(c, p)
    points = random_point_batch(seed, 3, c.n, p).tolist()
    columns = [c.gate_values(pt) for pt in points]
    for v in range(c.num_gates):
        sweeps = quotient_values_batch(c, v, columns)
        for u in range(c.num_gates):
            poly = proof_tree_sum(c, u, snip=v)
            for q, pt in zip(sweeps, points):
                assert q[u] == poly.evaluate(pt), (u, v)


P62 = (1 << 62) - 57


def _python_failed_trials(c, u, v, m, trials, seed):
    """check_decomposition's failing trials, recomputed one point at a time
    from the plain-Python gate and quotient tables."""
    p = c.field.p
    failed = []
    for trial, point in enumerate(random_point_batch(seed, trials, c.n, p).tolist()):
        vals = c.gate_values(point)

        def q(target):
            return quotient_values_batch(c, target, [vals])[0]

        lhs = vals[u] if v is None else q(v)[u]
        rhs = 0
        for t in decomposition_terms(c, u, m, target=v):
            fac = 1 if t.w == u else q(t.w)[u]
            if t.is_mul and c.gates[t.w].fanin() == 2:
                fac = fac * vals[c.gates[t.w].children[0]] % p
            tail = vals[t.z] if v is None else q(v)[t.z]
            rhs = (rhs + fac * tail) % p
        if lhs != rhs:
            failed.append(trial)
    return failed


def test_quotients_at_object_prime_match_python():
    """At 2^62 - 57, where the kernels run on object arrays: eval_quotient
    agrees with snipped proof-tree sums and check_decomposition with a
    per-point Python recomputation, also where every coordinate is p - 1
    and where the checker reports failing trials."""
    rng = random.Random(11)
    c = normalized(random_multilinear(40, 6, seed=2, field=FieldSpec(P62)))
    points = ([rng.randrange(P62) for _ in range(c.n)], [P62 - 1] * c.n)
    for v in range(0, c.num_gates, 3):
        for u in range(v, c.num_gates, 4):
            poly = proof_tree_sum(c, u, snip=v)
            for point in points:
                assert eval_quotient(c, u, v, point) == poly.evaluate(point), (u, v)

    var = compute_var(c)
    u = c.output
    triples = [(None, 2), (None, var.total(u))]
    for v in range(c.num_gates):
        qt = quotient_table(c, v)
        if v != u and qt.reachable[u] and var.total(v) < qt.total(u):
            triples.append((v, qt.total(u)))
            break
    assert len(triples) == 3
    for v, m in triples:
        chk = check_decomposition(c, u, v, m, trials=8, seed=m)
        assert chk.holds and not _python_failed_trials(c, u, v, m, 8, m)

    bad = at_prime(build(2, [input_gate(1), input_gate(2), mul_gate((0, 1))]), P62)
    chk = check_decomposition(bad, 2, None, 1, trials=10, seed=0)
    assert chk.failed_trials
    assert chk.failed_trials == _python_failed_trials(bad, 2, None, 1, 10, 0)
