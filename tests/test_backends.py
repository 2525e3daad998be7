"""Cross-checks of the numpy kernels against a plain Python integer
reference."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circflat import (
    LayeredCircuit,
    Summand,
    backends,
    brute_force_expand,
    product_of_sums_power,
    random_multilinear,
    reduce_depth_delta,
)
from circflat.circuit import add_gate, const_gate, input_gate, mul_gate
from circflat.errors import ExpansionTooLarge, FieldTooSmall, InvalidParams
from circflat.field import MERSENNE61, FieldSpec
from circflat.sparse import SparsePolynomial

from conftest import at_prime, build
from test_var import circuits

PRIMES = [MERSENNE61, 10007, 2]
# direct products below 2^31, folding at 2^61 - 1, Montgomery products up to
# 2^63 - 25 (the largest prime below 2^63), object arrays of Python ints at
# the last two
EVAL_PRIMES = [
    2, 10007, (1 << 31) - 1, MERSENNE61, (1 << 62) - 57, (1 << 63) - 25,
    (1 << 63) + 29, (1 << 64) - 59,
]


def _random(p, size, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, p, size, dtype=np.uint64)


@pytest.mark.parametrize("p", PRIMES + [(1 << 62) - 57, (1 << 63) - 25])
def test_mulmod_vec_matches_python(p):
    # random pairs, then (p - 1)^2 and products with 0
    a = np.append(_random(p, 500, 1), [p - 1, p - 1, 0, 0]).astype(np.uint64)
    b = np.append(_random(p, 500, 2), [p - 1, 0, p - 1, 0]).astype(np.uint64)
    got = backends.mulmod_vec(a, b, np.uint64(p))
    want = [(int(x) * int(y)) % p for x, y in zip(a, b)]
    assert [int(v) for v in got] == want


@pytest.mark.parametrize("p", PRIMES)
def test_merge_packed(p):
    # adversarial duplicates: few distinct keys, many repeats
    rng = np.random.Generator(np.random.Philox(key=7))
    keys = rng.integers(0, 13, 4000, dtype=np.uint64)
    coeffs = _random(p, 4000, 3)
    uk, uc = backends.merge_packed(keys, coeffs, p)
    ref = {}
    for k, c in zip(keys, coeffs):
        ref[int(k)] = (ref.get(int(k), 0) + int(c)) % p
    ref = {k: v for k, v in ref.items() if v}
    assert {int(k): int(c) for k, c in zip(uk, uc)} == ref
    assert list(uk) == sorted(uk)


@pytest.mark.parametrize("p", [MERSENNE61, 10007])
def test_mul_packed(p):
    rng = np.random.Generator(np.random.Philox(key=9))
    ka = np.unique(rng.integers(0, 1 << 20, 60, dtype=np.uint64))
    kb = np.unique(rng.integers(0, 1 << 20, 50, dtype=np.uint64))
    ca = _random(p - 1, ka.shape[0], 4) + np.uint64(1)
    cb = _random(p - 1, kb.shape[0], 5) + np.uint64(1)
    uk, uc = backends.mul_packed(ka, ca, kb, cb, p)
    ref = {}
    for k1, c1 in zip(ka, ca):
        for k2, c2 in zip(kb, cb):
            key = int(k1) + int(k2)
            ref[key] = (ref.get(key, 0) + int(c1) * int(c2)) % p
    ref = {k: v for k, v in ref.items() if v}
    assert {int(k): int(c) for k, c in zip(uk, uc)} == ref


@pytest.mark.parametrize(
    "p",
    [2, 3, (1 << 31) - 1, (1 << 31) + 11, MERSENNE61, (1 << 62) - 57, (1 << 63) - 25,
     (1 << 63) + 29, (1 << 64) - 59, (1 << 89) - 1],
)
def test_field_dtype_is_words_exactly_below_2_63(p):
    assert backends.field_dtype(p) == (np.uint64 if p < 1 << 63 else object)


def test_eval_program_matches_python(field):
    from circflat.generators import random_multilinear

    c = random_multilinear(40, 6, seed=3, field=field)
    points = backends.random_point_batch(11, 8, c.n, field.p)
    table = c.eval_table(points)
    # reference: per-point pure-Python evaluation of every gate
    for j in range(8):
        ref = c.gate_values([int(x) for x in points[j]])
        assert [int(v) for v in table[:, j]] == ref


def test_sparse_evaluate_batch():
    p = MERSENNE61
    poly = SparsePolynomial(2, FieldSpec(p), {(0, 0): 5, (1, 0): 3, (2, 1): 2})
    points = np.array([[2, 3], [0, 0]], dtype=np.uint64)
    got = poly.evaluate_batch(points)
    assert int(got[0]) == (5 + 3 * 2 + 2 * 4 * 3) % p
    assert int(got[1]) == 5


def _term_batch(p, n, npts, nterms, seed, worst):
    """Distinct exponent rows (a polynomial merges repeated ones), each
    exponent below ``top``, the smallest power of two from 4 up with room
    for twice as many rows, coefficients with zeros among them and reduced
    points.  When ``worst``, every coefficient and coordinate is p - 1 and
    every exponent even, so every term is p - 1, the largest addend the
    term sum can meet."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    top = 4
    while top**n < 2 * nterms:
        top *= 2
    codes = rng.choice(top**n, nterms, replace=False)
    exps = (codes[:, None] // top ** np.arange(n)) % top
    if worst:
        exps *= 2
        coeffs = np.full(nterms, p - 1, dtype=np.uint64)
        points = np.full((npts, n), p - 1, dtype=np.uint64)
    else:
        coeffs = rng.integers(0, p, nterms, dtype=np.uint64)
        coeffs[rng.random(nterms) < 0.25] = 0
        points = rng.integers(0, p, (npts, n), dtype=np.uint64)
    return exps, coeffs, points


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 10007, (1 << 31) - 1, MERSENNE61, (1 << 62) - 57]),
    n=st.integers(1, 4),
    npts=st.sampled_from([1, 20, 256]),
    size=st.sampled_from(["none", "one", "few", "chunks"]),
    seed=st.integers(0, 2**32 - 1),
    worst=st.booleans(),
)
@example(p=MERSENNE61, n=3, npts=256, size="chunks", seed=0, worst=True)
@example(p=MERSENNE61, n=2, npts=20, size="few", seed=3, worst=True)
@example(p=(1 << 31) - 1, n=2, npts=20, size="chunks", seed=1, worst=True)
@example(p=MERSENNE61, n=1, npts=20, size="none", seed=2, worst=False)
@example(p=(1 << 62) - 57, n=3, npts=20, size="chunks", seed=4, worst=True)
def test_sparse_evaluate_batch_matches_evaluate(p, n, npts, size, seed, worst):
    # "chunks": the top sum's children span several segment-sum blocks
    chunk = max(1, backends.LEVEL_BLOCK // npts)
    nterms = {"none": 0, "one": 1, "few": 9, "chunks": 2 * chunk + 3}[size]
    exps, coeffs, points = _term_batch(p, n, npts, nterms, seed, worst)
    terms = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
    oracle = SparsePolynomial(n, FieldSpec(p), terms)
    got = oracle.evaluate_batch(points)
    assert got.dtype == backends.field_dtype(p) and got.shape == (npts,)
    assert got.tolist() == [oracle.evaluate(pt) for pt in points.tolist()]


@pytest.mark.parametrize("p", EVAL_PRIMES)
@pytest.mark.parametrize("npts", [1, 256])
def test_sparse_evaluate_batch_of_zero_constant_and_last_variable(p, npts):
    # x_n alone leaves x_1 .. x_{n-1} unused
    field, n = FieldSpec(p), 3
    points = _points(n, p, npts - 1, 4)
    for poly, want in [
        (SparsePolynomial.zero(n, field), [0] * npts),
        (SparsePolynomial.const(n, field, p - 1), [p - 1] * npts),
        (SparsePolynomial.variable(n, field, n), points[:, n - 1].tolist()),
    ]:
        got = poly.evaluate_batch(points)
        assert got.dtype == backends.field_dtype(p) and got.shape == (npts,)
        assert got.tolist() == want


def test_sparse_evaluate_batch_runs_on_eval_program(monkeypatch):
    calls = []
    real = backends.eval_program

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends, "eval_program", spy)
    poly = SparsePolynomial(2, FieldSpec(MERSENNE61), {(1, 2): 3, (0, 0): 1})
    points = np.array([[2, 5]], dtype=np.uint64)
    assert poly.evaluate_batch(points).tolist() == [(3 * 2 * 25 + 1)]
    assert len(calls) == 1


def test_evaluate_batch_converts_only_the_output_row():
    """At a Montgomery prime, over more points than one TABLE_BLOCK chunk,
    the output row equals the per-point sweep, and eval_table still
    returns every row converted out of Montgomery form."""
    p = (1 << 62) - 57
    c = random_multilinear(60, 6, seed=4, field=FieldSpec(p))
    step = backends.TABLE_BLOCK // c.num_gates
    points = backends.random_point_batch(9, 2 * step + 5, c.n, p)
    got = c.evaluate_batch(points)
    assert got.dtype == np.uint64 and got.shape == (points.shape[0],)
    assert got.tolist() == [c.gate_values(x)[c.output] for x in points.tolist()]
    table = c.eval_table(points[:4])
    assert table.T.tolist() == [c.gate_values(x) for x in points[:4].tolist()]
    rows = [0, c.output]
    picked = backends.eval_program(*c.program(), points[:4], p, rows=rows)
    assert picked.tolist() == table[rows].tolist()


@settings(max_examples=80, deadline=None)
@given(circuits(), st.sampled_from(EVAL_PRIMES), st.integers(0, 1 << 16))
def test_batch_evaluators_match_per_point_property(c, p, seed):
    """Circuit, sparse and layered batch evaluation equal the per-point
    Python evaluators at every prime, on uint64 words or on object arrays.
    The last point has every coordinate p - 1."""
    c = at_prime(c, p)
    top = np.full((1, c.n), p - 1, dtype=np.uint64)
    points = np.vstack([backends.random_point_batch(seed, 3, c.n, p), top])
    rows = points.tolist()
    want = [c.evaluate(pt) for pt in rows]
    dtype = backends.field_dtype(p)

    def check(got):
        assert got.dtype == dtype and got.tolist() == want

    check(c.evaluate_batch(points))
    poly = brute_force_expand(c, budget=1 << 16)
    assert [poly.evaluate(pt) for pt in rows] == want
    check(poly.evaluate_batch(points))
    zero = SparsePolynomial.zero(c.n, c.field)
    products = [Summand(1, 3, (0, 1)), Summand(1, 1, (1,)), Summand(1, 2, (0,))]
    check(LayeredCircuit(c.n, c.field, 2, [zero, poly], products).evaluate_batch(points))
    try:
        layered, _ = reduce_depth_delta(c, 2)
    except FieldTooSmall:
        return  # balance interpolates at k + 1 distinct points; p <= k
    check(layered.evaluate_batch(points))


# -- level-by-level eval_program ------------------------------------------------

# the small primes, the direct, folding and Montgomery products, and object
# arrays above 2^63
LEVEL_PRIMES = [
    2, 3, 5, 7, (1 << 31) - 1, MERSENNE61, (1 << 62) - 57, (1 << 63) - 25, (1 << 63) + 29,
]


def _points(n, p, npts, seed):
    """npts random points, then one with every coordinate p - 1."""
    top = np.full((1, n), p - 1, dtype=np.uint64)
    return np.vstack([backends.random_point_batch(seed, npts, n, p), top])


def _assert_table_is_gate_values(c, points):
    table = c.eval_table(points)
    assert table.dtype == backends.field_dtype(c.field.p)
    assert table.T.tolist() == [c.gate_values(pt) for pt in points.tolist()]


@settings(max_examples=80, deadline=None)
@given(circuits(max_fanin=4), st.sampled_from(LEVEL_PRIMES), st.integers(0, 1 << 16))
def test_eval_table_matches_gate_values_property(c, p, seed):
    """Every gate's row of the level-by-level table equals the plain Python
    sweep, with sums and products of fan-in 2 to 4 sharing levels."""
    _assert_table_is_gate_values(at_prime(c, p), _points(c.n, p, 4, seed))


@pytest.mark.parametrize("npts", [1, 20])
def test_wide_sum_of_top_values(npts):
    # 2^12 children of p - 1 at 2^61 - 1: one uint64 sum of more than 8 of
    # them would overflow, so the 32-bit halves are summed apart.  At 1 point
    # the sum fills one block; at 20 points its children span many.
    p = int(MERSENNE61)
    fanin = 1 << 12
    gates = [input_gate(1), const_gate(p - 1), add_gate([0, 1] * (fanin // 2))]
    c = build(1, gates, field=FieldSpec(p))
    points = np.full((npts, 1), p - 1, dtype=np.uint64)
    assert c.eval_table(points)[2].tolist() == [fanin * (p - 1) % p] * npts
    assert c.evaluate_batch(points).tolist() == [fanin * (p - 1) % p] * npts


@pytest.mark.parametrize("p", LEVEL_PRIMES)
def test_eval_table_of_column_major_points(p):
    # the Montgomery entry converts a copy of the points in place, word by
    # word, which must not depend on their memory order
    c = random_multilinear(30, 5, seed=1, field=FieldSpec(p))
    _assert_table_is_gate_values(c, np.asfortranarray(_points(c.n, p, 7, 1)))


@pytest.mark.parametrize(
    "p", [(1 << 31) - 1, MERSENNE61, (1 << 62) - 57, (1 << 63) - 25, (1 << 63) + 29]
)
def test_one_level_of_products_with_fan_in_1_to_5(p):
    # every product reads inputs only, so all share level 1 and each child
    # slot multiplies a different prefix of them
    gates = [input_gate(i) for i in range(1, 6)]
    for fanin in (3, 1, 5, 2, 4, 5, 1, 2):
        gates.append(mul_gate([(fanin + j) % 5 for j in range(fanin)]))
    gates.append(add_gate(range(5, len(gates))))
    _assert_table_is_gate_values(build(5, gates, field=FieldSpec(p)), _points(5, p, 20, 1))


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 62) - 57, (1 << 63) - 25])
def test_level_wider_than_one_block(p):
    # At 256 points a block holds LEVEL_BLOCK / 256 gates or sum edges.  The
    # level above the inputs has several blocks of pair sums, fan-in-3 sums
    # (whose children straddle the block edges) and products of fan-in 1-4,
    # and the top sum's children span many blocks.
    n, npts = 6, 256
    width = 3 * (backends.LEVEL_BLOCK // npts) + 5
    gates = [input_gate(i) for i in range(1, n + 1)]
    for g in range(width):
        gates.append(add_gate([g % n, (g + 1) % n]))
        gates.append(add_gate([(g + j) % n for j in range(3)]))
        gates.append(mul_gate([(g + j) % n for j in range(1 + g % 4)]))
    gates.append(add_gate(range(n, len(gates))))
    _assert_table_is_gate_values(build(n, gates, field=FieldSpec(p)), _points(n, p, npts - 1, 2))


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 62) - 57, (1 << 63) - 25])
def test_evaluate_batch_in_chunks(p):
    c = random_multilinear(60, 6, seed=5, field=FieldSpec(p))
    chunk = backends.TABLE_BLOCK // c.num_gates
    dtype = backends.field_dtype(p)
    for npts in (0, 1, 2 * chunk + 3):
        points = _points(c.n, p, npts, 3)[1:]  # the last of them all p - 1
        got = c.evaluate_batch(points)
        assert got.dtype == dtype and got.shape == (npts,)
        assert got.tolist() == [c.evaluate(pt) for pt in points.tolist()]


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 62) - 57])
def test_layered_evaluate_batch_memory(p):
    # product_of_sums_power(6, 3, 2) at Delta = 2 flattens to 275 gates.  At
    # 256 points one whole table and whole-level Mersenne mulmods peaked at
    # 4.3-4.8 MiB; in blocks and chunks, at 0.7-1.6 MiB.
    c = product_of_sums_power(6, 3, 2, field=FieldSpec(p))
    layered, _ = reduce_depth_delta(c, 2)
    points = backends.random_point_batch(0, 256, c.n, p)
    tracemalloc.start()
    try:
        got = layered.evaluate_batch(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [c.evaluate(pt) for pt in points.tolist()]
    assert peak < 5 << 19


def test_random_points_deterministic():
    a = backends.random_points(42, 3, 6, MERSENNE61)
    b = backends.random_points(42, 3, 6, MERSENNE61)
    c = backends.random_points(42, 4, 6, MERSENNE61)
    assert (a == b).all()
    assert (a != c).any()
    # seed and trial are separate key words: (0, 1) and (1, 0) differ
    d = backends.random_points(0, 1, 6, MERSENNE61)
    e = backends.random_points(1, 0, 6, MERSENNE61)
    assert (d != e).any()


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 31) - 1, 2, 10007, (1 << 62) - 57])
def test_random_point_batch_rows_are_random_points(p):
    batch = backends.random_point_batch(9, 40, 5, p)
    assert batch.dtype == np.uint64 and batch.shape == (40, 5)
    for t in range(40):
        assert batch[t].tolist() == backends.random_points(9, t, 5, p).tolist()


# Every EVAL_PRIMES prime, and primes whose Lemire threshold is small
# (2^32 - 5, 2^32 + 15) or about half the range (2^31 + 11 on 32-bit
# halves, 2^63 + 29 on words), where about half the draws are redrawn and
# most rows fall back to random_points.
SWEEP_PRIMES = EVAL_PRIMES + [(1 << 31) + 11, (1 << 32) - 5, (1 << 32) + 15]


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(SWEEP_PRIMES),
    n=st.sampled_from([0, 1, 5, 48]),
    trials=st.sampled_from([0, 1, 20, 256]),
    seed=st.one_of(
        st.sampled_from([0, (1 << 63) + 5, (1 << 64) - 1]), st.integers(0, (1 << 64) - 1)
    ),
)
@example(p=(1 << 63) + 29, n=48, trials=256, seed=(1 << 64) - 1)
@example(p=(1 << 31) + 11, n=5, trials=20, seed=(1 << 63) + 5)
@example(p=(1 << 32) - 5, n=0, trials=0, seed=0)
def test_random_point_batch_sweep_matches_random_points(p, n, trials, seed):
    batch = backends.random_point_batch(seed, trials, n, p)
    assert batch.dtype == np.uint64 and batch.shape == (trials, n)
    assert batch.tolist() == [backends.random_points(seed, t, n, p).tolist() for t in range(trials)]


@pytest.mark.parametrize("p", [(1 << 31) + 11, (1 << 63) + 29])
def test_random_point_batch_redraws_rejected_rows(monkeypatch, p):
    # about half the draws are rejected at these primes, so with one
    # coordinate about half the rows fall back (9 of these 20)
    reference = backends.random_points
    redrawn = []

    def spy(seed, trial, n, p):
        redrawn.append(trial)
        return reference(seed, trial, n, p)

    monkeypatch.setattr(backends, "random_points", spy)
    batch = backends.random_point_batch(3, 20, 1, p)
    assert 0 < len(redrawn) < 20
    assert batch.tolist() == [reference(3, t, 1, p).tolist() for t in range(20)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: backends.random_point_batch(-1, 4, 3, MERSENNE61),
        lambda: backends.random_point_batch(1 << 64, 4, 3, MERSENNE61),
        lambda: backends.random_point_batch(0, -3, 3, MERSENNE61),
        lambda: backends.random_points(-1, 0, 3, MERSENNE61),
        lambda: backends.random_points(0, 1 << 64, 3, MERSENNE61),
    ],
)
def test_random_points_reject_bad_keys_and_trial_counts(call):
    with pytest.raises(InvalidParams):
        call()


# sha256 of repr(random_point_batch(5, 16, 6, p).tolist()), with its first row
POINT_BATCH_GOLDEN = [
    (
        MERSENNE61,
        "5e843b263f1728aab8b83a1d0b5eb94b4794252bec0d25f19cb2840359eef4f4",
        [1691902981900837265, 1361647900084346184, 479174793077740180,
         1022325686587482399, 574152217120240512, 1562417801392023163],
    ),
    (
        (1 << 31) - 1,
        "f0d88841450d7d85c8361ffded9176556ad35d0eada47317cff07d1b3d468068",
        [444499528, 1575707440, 113014051, 1268133427, 2061584976, 446266301],
    ),
    (
        (1 << 62) - 57,
        "2057bb1e76d65613f22690a22f62ca5d504ff54903d124f51aa2cc7c6d9338a2",
        [3383805963801674490, 2723295800168692336, 958349586155480348,
         2044651373174964774, 1148304434240481011, 3124835602784046289],
    ),
]


@pytest.mark.parametrize("p,digest,first", POINT_BATCH_GOLDEN)
def test_random_point_batch_golden(p, digest, first):
    batch = backends.random_point_batch(5, 16, 6, p).tolist()
    assert batch[0] == first
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == digest


def test_merge_refuses_oversize():
    keys = np.zeros(backends.MAX_MERGE_TERMS + 1, dtype=np.uint64)
    with pytest.raises(ExpansionTooLarge):
        backends.merge_packed(keys, keys.copy(), MERSENNE61)
    half = np.zeros(1 << 11, dtype=np.uint64)
    with pytest.raises(ExpansionTooLarge):
        backends.mul_packed(half, half, half, half, MERSENNE61)
