"""Cross-checks of the numpy kernels against a plain Python integer
reference."""

import numpy as np
import pytest

from circflat import backends
from circflat.errors import ExpansionTooLarge
from circflat.field import MERSENNE61

PRIMES = [MERSENNE61, 10007, 2]


def _random(p, size, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, p, size, dtype=np.uint64)


@pytest.mark.parametrize("p", PRIMES)
def test_mulmod_vec_matches_python(p):
    a = _random(p, 500, 1)
    b = _random(p, 500, 2)
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


def test_eval_program_matches_python(field):
    from circflat.generators import random_multilinear

    c = random_multilinear(40, 6, seed=3, field=field)
    points = backends.random_point_batch(11, 8, c.n, field.p)
    table = c.eval_table(points)
    # reference: per-point pure-Python evaluation of every gate
    from circflat.quotient import _python_eval_table

    for j in range(8):
        ref = _python_eval_table(c, [int(x) for x in points[j]])
        assert [int(v) for v in table[:, j]] == ref


def test_quotient_program_matches_python(field):
    from circflat.generators import random_multilinear
    from circflat.normalize import normalized
    from circflat.quotient import (
        _python_eval_table,
        _python_quotient_values,
        quotient_values_batch,
    )

    c = normalized(random_multilinear(40, 6, seed=4, field=field))
    points = backends.random_point_batch(13, 5, c.n, field.p)
    vals = c.eval_table(points)
    for v in range(0, c.num_gates, 7):
        q = quotient_values_batch(c, v, vals)
        for j in range(5):
            ref_vals = _python_eval_table(c, [int(x) for x in points[j]])
            ref_q = _python_quotient_values(c, v, ref_vals)
            assert [int(x) for x in q[:, j]] == ref_q


def test_eval_terms():
    p = MERSENNE61
    exps = np.array([[0, 0], [1, 0], [2, 1]], dtype=np.uint8)
    coeffs = np.array([5, 3, 2], dtype=np.uint64)
    points = np.array([[2, 3], [0, 0]], dtype=np.uint64)
    got = backends.eval_terms(exps, coeffs, points, p)
    assert int(got[0]) == (5 + 3 * 2 + 2 * 4 * 3) % p
    assert int(got[1]) == 5


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


def test_merge_refuses_oversize():
    keys = np.zeros(backends.MAX_MERGE_TERMS + 1, dtype=np.uint64)
    with pytest.raises(ExpansionTooLarge):
        backends.merge_packed(keys, keys.copy(), MERSENNE61)
    half = np.zeros(1 << 11, dtype=np.uint64)
    with pytest.raises(ExpansionTooLarge):
        backends.mul_packed(half, half, half, half, MERSENNE61)
