"""Kernels for field arithmetic, circuit evaluation and packed
sparse-polynomial algebra, written with numpy on uint64 words.

Fast arithmetic is available for two families of primes: the Mersenne prime
2^61 - 1 (products are reduced with shift/mask folding, no 128-bit
intermediate needed) and any prime below 2^31 (products fit a 64-bit word
directly).  For other primes the callers use plain Python integers; see
:func:`fast_prime_kind`.

The gate-program encoding consumed by the evaluation kernels is built in
``circuit.py``: per-gate kind codes, a payload word (variable index or
constant value) and a flattened child list with offsets.
"""

import numpy as np

from .errors import ExpansionTooLarge

MERSENNE61 = np.uint64((1 << 61) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)

KIND_INPUT = 0
KIND_CONST = 1
KIND_ADD = 2
KIND_MUL = 3

# Above this many packed terms the float64 bucket-sum trick in the merge
# could lose bits, so the packed kernels raise ExpansionTooLarge (the
# default expansion budget is below this).
MAX_MERGE_TERMS = 1 << 21


def active_backend() -> str:
    """Name of the kernel implementation, as the benchmark records it."""
    return "numpy"


def fast_prime_kind(p: int):
    """'mersenne61', 'small' (p < 2^31) or None when only the pure-Python
    integer path can serve this modulus."""
    if p == int(MERSENNE61):
        return "mersenne61"
    if p < (1 << 31):
        return "small"
    return None


def mulmod_vec(a, b, p):
    """Vectorized (a * b) mod p on uint64 arrays; p must be fast-capable."""
    if p == MERSENNE61:
        a0 = a & _MASK32
        a1 = a >> np.uint64(32)
        b0 = b & _MASK32
        b1 = b >> np.uint64(32)
        hi = a1 * b1
        mid = a1 * b0 + a0 * b1
        lo = a0 * b0
        t = (
            (hi << np.uint64(3))
            + (mid >> np.uint64(29))
            + ((mid & _MASK29) << np.uint64(32))
            + (lo >> np.uint64(61))
            + (lo & MERSENNE61)
        )
        t = (t >> np.uint64(61)) + (t & MERSENNE61)
        return np.where(t >= MERSENNE61, t - MERSENNE61, t)
    return (a * b) % p


def addmod_vec(a, b, p):
    """Vectorized (a + b) mod p on uint64 arrays of reduced values."""
    s = a + b
    return np.where(s >= p, s - p, s)


def eval_program(kinds, payload, child_off, children, points, p):
    """Evaluate every gate of an encoded circuit at a batch of points.

    Returns a (ngates, npoints) uint64 table of values mod p.
    """
    p = np.uint64(p)
    ngates = kinds.shape[0]
    npts = points.shape[0]
    vals = np.zeros((ngates, npts), dtype=np.uint64)
    for g in range(ngates):
        k = kinds[g]
        if k == KIND_INPUT:
            vals[g] = points[:, int(payload[g])]
        elif k == KIND_CONST:
            vals[g, :] = payload[g]
        else:
            lo = int(child_off[g])
            hi = int(child_off[g + 1])
            acc = vals[children[lo]].copy()
            if k == KIND_ADD:
                for idx in range(lo + 1, hi):
                    acc = addmod_vec(acc, vals[children[idx]], p)
            else:
                for idx in range(lo + 1, hi):
                    acc = mulmod_vec(acc, vals[children[idx]], p)
            vals[g] = acc
    return vals


def eval_quotient_program(kinds, child_off, children, target, vals, p):
    """Gate-quotient values [g : target] for every gate g, given the plain
    value table ``vals`` from :func:`eval_program`.

    Also returns the per-gate reachability mask of the quotient recursion
    (snipping descends into the last child of every product gate).
    """
    p = np.uint64(p)
    ngates, npts = vals.shape
    qvals = np.zeros((ngates, npts), dtype=np.uint64)
    reach = np.zeros(ngates, dtype=np.bool_)
    for g in range(ngates):
        if g == target:
            reach[g] = True
            qvals[g, :] = np.uint64(1)
            continue
        k = kinds[g]
        if k == KIND_ADD:
            lo = int(child_off[g])
            hi = int(child_off[g + 1])
            acc = None
            for idx in range(lo, hi):
                c = children[idx]
                if reach[c]:
                    reach[g] = True
                    acc = qvals[c] if acc is None else addmod_vec(acc, qvals[c], p)
            if acc is not None:
                qvals[g] = acc
        elif k == KIND_MUL:
            lo = int(child_off[g])
            hi = int(child_off[g + 1])
            last = children[hi - 1]
            if reach[last]:
                reach[g] = True
                acc = qvals[last].copy()
                for idx in range(lo, hi - 1):
                    acc = mulmod_vec(acc, vals[children[idx]], p)
                qvals[g] = acc
    return qvals, reach


def merge_packed(keys, coeffs, p):
    """Canonicalize packed terms: sort by key, sum duplicate keys mod p and
    drop zero coefficients."""
    if keys.shape[0] > MAX_MERGE_TERMS:
        raise ExpansionTooLarge(
            f"packed merge of {keys.shape[0]} terms exceeds {MAX_MERGE_TERMS}"
        )
    if keys.shape[0] == 0:
        return keys, coeffs
    p = np.uint64(p)
    uniq, inverse = np.unique(keys, return_inverse=True)
    lo = (coeffs & _MASK32).astype(np.float64)
    hi = (coeffs >> np.uint64(32)).astype(np.float64)
    slo = np.bincount(inverse, weights=lo, minlength=uniq.shape[0])
    shi = np.bincount(inverse, weights=hi, minlength=uniq.shape[0])
    slo = slo.astype(np.uint64) % p
    shi = shi.astype(np.uint64) % p
    shift = np.uint64((1 << 32) % int(p))
    vals = addmod_vec(mulmod_vec(shi, np.full_like(shi, shift), p), slo, p)
    keep = vals != 0
    return uniq[keep], vals[keep]


def mul_packed(ka, ca, kb, cb, p):
    """Product of two packed polynomials (exponent keys add, coefficients
    multiply mod p), canonicalized."""
    if ka.shape[0] * kb.shape[0] > MAX_MERGE_TERMS:
        raise ExpansionTooLarge(
            f"packed product of {ka.shape[0]} x {kb.shape[0]} terms exceeds {MAX_MERGE_TERMS}"
        )
    if ka.shape[0] == 0 or kb.shape[0] == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    p = np.uint64(p)
    keys = (ka[:, None] + kb[None, :]).ravel()
    coeffs = mulmod_vec(np.repeat(ca, cb.shape[0]), np.tile(cb, ca.shape[0]), p)
    return merge_packed(keys, coeffs, p)


def eval_terms(exps, coeffs, points, p):
    """Evaluate an exponent-matrix polynomial at a batch of points."""
    p = np.uint64(p)
    npts = points.shape[0]
    acc = np.zeros(npts, dtype=np.uint64)
    for t in range(exps.shape[0]):
        term = np.full(npts, coeffs[t], dtype=np.uint64)
        for i in range(exps.shape[1]):
            e = int(exps[t, i])
            for _ in range(e):
                term = mulmod_vec(term, points[:, i], p)
        acc = addmod_vec(acc, term, p)
    return acc


def random_points(seed: int, trial: int, n: int, p: int) -> np.ndarray:
    """One row of n field elements drawn from the counter-based Philox stream
    keyed by the two words (seed, trial).  Identical (seed, trial) always
    yields the same point, independent of evaluation order, and distinct
    pairs never share a stream."""
    key = np.array([seed, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, p, size=n, dtype=np.uint64)


def random_point_batch(seed: int, trials: int, n: int, p: int) -> np.ndarray:
    """(trials, n) matrix of evaluation points, one Philox stream per trial."""
    pts = np.empty((trials, n), dtype=np.uint64)
    for t in range(trials):
        pts[t] = random_points(seed, t, n, p)
    return pts
