"""Kernels for field arithmetic, circuit evaluation and sparse-polynomial
evaluation, written with numpy.

Word arithmetic on uint64 arrays is available for two families of primes:
the Mersenne prime 2^61 - 1 (products are reduced with shift/mask folding,
no 128-bit intermediate needed) and any prime below 2^31 (products fit a
64-bit word directly).  For every other prime the evaluation kernels
(:func:`eval_program`, :func:`eval_terms`) run the same code on object
arrays of Python ints, whose products never overflow; :func:`field_dtype`
picks the dtype from the prime.

The gate-program encoding consumed by the evaluation kernels is built in
``circuit.py``: per-gate kind codes, a payload word (variable index or
constant value) and a flattened child list with offsets.  Sparse
polynomials are evaluated from an exponent matrix by :func:`eval_terms`,
vectorized over terms in chunks of bounded size.
"""

import numpy as np

from .errors import ExpansionTooLarge, InvalidParams

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

# eval_terms works on (terms, points) blocks of at most this many words, so
# its memory stays flat however many terms a polynomial has.  A Mersenne
# mulmod keeps about ten block-sized temporaries alive, so a 2^12-word
# (32 KB) block costs a few hundred KB; larger blocks ran no faster.
TERM_BLOCK = 1 << 12


def active_backend() -> str:
    """Name of the kernel implementation, as the benchmark records it."""
    return "numpy"


def field_dtype(p: int) -> np.dtype:
    """Element dtype of the evaluation kernels' arrays at prime p: uint64
    for the word kernels (2^61 - 1 and primes below 2^31), else object
    (Python ints).  ``field_dtype(p).type(p)`` is the modulus as a matching
    scalar."""
    p = int(p)
    return np.dtype(np.uint64 if p == int(MERSENNE61) or p < (1 << 31) else object)


def mulmod_vec(a, b, p):
    """Vectorized (a * b) mod p on arrays of reduced values of
    ``field_dtype(p)``, with p the matching scalar."""
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
    """Vectorized (a + b) mod p on arrays of reduced values."""
    s = a + b
    if s.dtype == object:
        return s % p
    return np.where(s >= p, s - p, s)


def eval_program(kinds, payload, child_off, children, points, p):
    """Evaluate every gate of an encoded circuit at a batch of points.

    Returns a (ngates, npoints) table of values mod p, of
    ``field_dtype(p)``; the payload must have that dtype too.
    """
    dtype = field_dtype(p)
    p = dtype.type(int(p))
    ngates = kinds.shape[0]
    npts = points.shape[0]
    vals = np.zeros((ngates, npts), dtype=dtype)
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


def _join_halves(shi, slo, p):
    """(shi * 2^32 + slo) mod p from uint64 sums of the high and the low
    32-bit halves of reduced values; exact while neither sum overflows."""
    shift = np.uint64((1 << 32) % int(p))
    return addmod_vec(mulmod_vec(shi % p, shift, p), slo % p, p)


def _sum_rows(block, p):
    """Column sums mod p of a (rows, points) block of values.  Python ints
    are summed directly.  When the rows could overflow one uint64 sum, the
    high and the low 32-bit halves are summed apart."""
    if block.dtype == object or block.shape[0] <= ((1 << 64) - 1) // (int(p) - 1):
        return block.sum(axis=0) % p
    return _join_halves(
        (block >> np.uint64(32)).sum(axis=0), (block & _MASK32).sum(axis=0), p
    )


# No caller in src/: kept for perfbench/spans.py until ROADMAP item 1 moves tracing in.
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
    vals = _join_halves(shi.astype(np.uint64), slo.astype(np.uint64), p)
    keep = vals != 0
    return uniq[keep], vals[keep]


# No caller in src/: kept for perfbench/spans.py until ROADMAP item 1 moves tracing in.
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
    """Evaluate an exponent-matrix polynomial at a batch of points.

    Vectorized over terms: the powers of every variable that occurs are
    built once, up to the largest exponent; then each chunk of terms, a
    (terms, points) block of at most ``TERM_BLOCK`` entries, takes one
    multiply per occurring variable, gathering x_i^e for every term, and is
    summed mod p.  uint64 blocks are reduced after every multiply; object
    blocks of Python ints only once, when the chunk is summed.  The result
    has ``field_dtype(p)``; a polynomial without terms evaluates to zeros.
    """
    dtype = field_dtype(p)
    p = dtype.type(int(p))
    nterms = exps.shape[0]
    npts = points.shape[0]
    if nterms == 0:
        return np.zeros(npts, dtype=dtype)
    coeffs = coeffs.astype(dtype, copy=False)
    used = np.flatnonzero(exps.any(axis=0))
    exps = exps[:, used]
    emax = int(exps.max(initial=1))
    # pows[e, j] = x_used[j]^e
    pows = np.empty((emax + 1, used.size, npts), dtype=dtype)
    pows[0] = 1
    pows[1] = points[:, used].T
    for e in range(2, emax + 1):
        pows[e] = mulmod_vec(pows[e - 1], pows[1], p)
    step = max(1, TERM_BLOCK // max(npts, 1))
    acc = None
    for lo in range(0, nterms, step):
        sub = exps[lo : lo + step]
        block = coeffs[lo : lo + step, None]
        for j in range(used.size):
            power = pows[sub[:, j], j]
            block = block * power if dtype == object else mulmod_vec(block, power, p)
        part = _sum_rows(np.broadcast_to(block, (sub.shape[0], npts)), p)
        acc = part if acc is None else addmod_vec(acc, part, p)
    return acc


def _require_word_points(p: int) -> None:
    if p > 1 << 64:
        raise InvalidParams(
            f"modulus {p} exceeds 2^64: random point streams draw uint64 words"
        )


def random_points(seed: int, trial: int, n: int, p: int) -> np.ndarray:
    """One row of n field elements drawn from the counter-based Philox stream
    keyed by the two words (seed, trial).  Identical (seed, trial) always
    yields the same point, independent of evaluation order, and distinct
    pairs never share a stream.  Raises InvalidParams for p > 2^64."""
    _require_word_points(p)
    key = np.array([seed, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, p, size=n, dtype=np.uint64)


def random_point_batch(seed: int, trials: int, n: int, p: int) -> np.ndarray:
    """(trials, n) matrix of evaluation points, one Philox stream per trial.

    Row t equals ``random_points(seed, t, n, p)``.  One generator serves
    every row: before each draw its state is reset to the fresh state of
    key (seed, t), which is cheaper than building a new generator."""
    _require_word_points(p)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    pts = np.empty((trials, n), dtype=np.uint64)
    for t in range(trials):
        fresh["state"]["key"] = np.array([seed, t], dtype=np.uint64)
        bitgen.state = fresh
        pts[t] = rng.integers(0, p, size=n, dtype=np.uint64)
    return pts
