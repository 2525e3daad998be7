"""Kernels for field arithmetic and circuit evaluation, written with numpy.

Every prime below 2^63 has word arithmetic on uint64 arrays, by one of
three products: the Mersenne prime 2^61 - 1 reduces with shift/mask
folding, primes below 2^31 multiply directly (a product fits a word), and
every other odd prime below 2^63 multiplies in Montgomery form (REDC with
R = 2^64, built from 32-bit limb products).  Sums never overflow a word
below 2^63.  Primes above 2^63 run the same evaluator (:func:`eval_program`)
on object arrays of Python ints, whose products never overflow;
:func:`field_dtype` picks the dtype from the prime.

:func:`eval_program` is the one batched evaluator.  Its gate-program
encoding is built in ``circuit.py``: per-gate kind codes, a payload word
(variable index or constant value) and a flattened child list with
offsets.  It evaluates the program level by level: a gate's level is one
more than the largest of its children's, and all the sums, then all the
products, of one level take a few numpy calls together (gathers, then one
addmod or segment sum, or one multiply per child slot), in blocks of at
most ``LEVEL_BLOCK`` words.  At a Montgomery prime the points and
constants enter Montgomery form once, and the table leaves it once, in
blocks.  ``Circuit.evaluate_batch`` passes its points in chunks whose
(gates, points) table holds at most ``TABLE_BLOCK`` words.  Sparse
polynomials and layered circuits are evaluated as the circuits they
flatten to, a sparse polynomial as its sum of monomials.

Random points come from numpy's Philox4x64-10 stream keyed by (seed,
trial): :func:`random_points` draws one row through numpy's generator, and
:func:`random_point_batch` computes every row's stream in one vectorized
sweep, then numpy's bounded draw, bit for bit.
"""

import functools
from typing import NamedTuple, Optional

import numpy as np

from .errors import ExpansionTooLarge, InvalidParams

MERSENNE61 = np.uint64((1 << 61) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_S32 = np.uint64(32)
_ZERO = np.uint64(0)

KIND_INPUT = 0
KIND_CONST = 1
KIND_ADD = 2
KIND_MUL = 3

# Above this many packed terms the float64 bucket-sum trick in the merge
# could lose bits, so the packed kernels raise ExpansionTooLarge (the
# default expansion budget is below this).
MAX_MERGE_TERMS = 1 << 21

# eval_program works on each level in blocks of at most LEVEL_BLOCK words
# (gates, or child edges of sums, times points), and Circuit.evaluate_batch
# splits its points so that one (gates, points) table holds at most
# TABLE_BLOCK words.  Whole-level Mersenne mulmods and whole-batch object
# tables would cost megabytes at 256 points.
LEVEL_BLOCK = 1 << 12
TABLE_BLOCK = 1 << 15


def active_backend() -> str:
    """Name of the kernel implementation, as the benchmark records it."""
    return "numpy"


def field_dtype(p: int) -> np.dtype:
    """Element dtype of the evaluation kernels' arrays at prime p: uint64
    for every p below 2^63 (Mersenne folding at 2^61 - 1, direct products
    below 2^31, Montgomery products in between), else object (Python
    ints).  ``field_dtype(p).type(p)`` is the modulus as a matching
    scalar."""
    return np.dtype(np.uint64 if int(p) < (1 << 63) else object)


class _Redc(NamedTuple):
    """Montgomery constants of an odd prime p < 2^63, with R = 2^64: p and
    its 32-bit halves, p^-1 mod R, R^2 mod p and 2^32 R mod p."""

    p: np.uint64
    p0: np.uint64
    p1: np.uint64
    pinv: np.uint64
    r2: np.uint64
    shift32: np.uint64


@functools.lru_cache(maxsize=16)
def _redc_constants(p: int) -> Optional[_Redc]:
    """The Montgomery constants of p when its products run in Montgomery
    form: odd p in [2^31, 2^63) other than 2^61 - 1, whose folding is
    faster.  None for every other prime."""
    if p % 2 == 0 or not (1 << 31) <= p < (1 << 63) or p == int(MERSENNE61):
        return None
    u = np.uint64
    return _Redc(
        u(p), u(p & 0xFFFFFFFF), u(p >> 32), u(pow(p, -1, 1 << 64)),
        u((1 << 128) % p), u((1 << 96) % p),
    )


def _mulhi(x, y0, y1):
    """High words of the 128-bit products x * y of uint64 words, from x and
    the 32-bit halves y0, y1 of y, by four 32 x 32-bit limb products."""
    x0 = x & _MASK32
    x1 = x >> _S32
    t = x0 * y0
    u = x1 * y0 + (t >> _S32)
    w = x0 * y1 + (u & _MASK32)
    return x1 * y1 + (u >> _S32) + (w >> _S32)


def _redc(hi, lo, c: _Redc):
    """Montgomery reduction (hi * 2^64 + lo) / R mod p, for hi < p: with
    m = lo p^-1 mod R the low words of m p and lo agree, so the result is
    hi - mulhi(m, p), plus p if that underflows."""
    mh = _mulhi(lo * c.pinv, c.p0, c.p1)
    r = hi - mh
    return np.where(hi < mh, r + c.p, r)


def _mul(a, b, p):
    """The kernels' product of a and b: a b / R mod p in Montgomery form
    at a Montgomery prime (:func:`_redc_constants`), a b mod p otherwise
    (folded at 2^61 - 1, direct below 2^31, of Python ints above 2^63)."""
    if p == MERSENNE61:
        a0 = a & _MASK32
        a1 = a >> _S32
        b0 = b & _MASK32
        b1 = b >> _S32
        hi = a1 * b1
        mid = a1 * b0 + a0 * b1
        lo = a0 * b0
        t = (
            (hi << np.uint64(3))
            + (mid >> np.uint64(29))
            + ((mid & _MASK29) << _S32)
            + (lo >> np.uint64(61))
            + (lo & MERSENNE61)
        )
        t = (t >> np.uint64(61)) + (t & MERSENNE61)
        return np.where(t >= MERSENNE61, t - MERSENNE61, t)
    c = _redc_constants(int(p))
    if c is not None:
        return _redc(_mulhi(a, b & _MASK32, b >> _S32), a * b, c)
    return (a * b) % p


def mulmod_vec(a, b, p):
    """Vectorized (a * b) mod p on arrays of reduced values of
    ``field_dtype(p)``, with p the matching scalar.  At a Montgomery prime
    the Montgomery product a b / R is multiplied back by R^2."""
    c = _redc_constants(int(p))
    ab = _mul(a, b, p)
    return ab if c is None else _mul(ab, c.r2, p)


def addmod_vec(a, b, p):
    """Vectorized (a + b) mod p on arrays of reduced values."""
    s = a + b
    if s.dtype == object:
        return s % p
    return np.where(s >= p, s - p, s)


def eval_program(kinds, payload, child_off, children, points, p, *, rows=None):
    """Evaluate every gate of an encoded circuit at a batch of points,
    level by level.

    A gate's level is 1 + the largest level of its children; inputs and
    constants are level 0, so a level reads only the levels below it.  Each
    level's sums and then its products are evaluated together, in blocks of
    at most ``LEVEL_BLOCK`` words (:func:`_sums`, :func:`_products`).
    Returns a (ngates, npoints) table of values mod p, of
    ``field_dtype(p)``; the payload must have that dtype too.  Given
    ``rows`` (a gate index or index array), it returns ``table[rows]``
    only.  At a Montgomery prime the points and constants enter Montgomery
    form (times R^2, then REDC) and the returned values leave it (REDC), in
    blocks of ``LEVEL_BLOCK`` words, so unselected rows are never
    converted.
    """
    dtype = field_dtype(p)
    redc = _redc_constants(int(p))
    p = dtype.type(int(p))
    vals = np.empty((kinds.shape[0], points.shape[0]), dtype=dtype)
    consts = np.flatnonzero(kinds == KIND_CONST)
    cvals = payload[consts]
    if redc is not None:
        points = _in_blocks(points.astype(np.uint64, order="C"), lambda x: _mul(x, redc.r2, p))
        cvals = _mul(cvals, redc.r2, p)
    inputs = np.flatnonzero(kinds == KIND_INPUT)
    vals[inputs] = points.T[payload[inputs].astype(np.intp)]
    vals[consts] = cvals[:, None]
    step = max(1, LEVEL_BLOCK // max(points.shape[0], 1))
    gates, fan, groups = _schedule(
        kinds.astype(np.int8, copy=False).tobytes(),
        child_off.astype(np.int64, copy=False).tobytes(),
        children.astype(np.int64, copy=False).tobytes(),
    )
    first = child_off[gates]
    for lo, hi, kernel in groups:
        kernel(vals, gates[lo:hi], fan[lo:hi], first[lo:hi], children, p, step)
    if rows is not None:
        vals = np.ascontiguousarray(vals[rows])
    if redc is not None:
        _in_blocks(vals, lambda x: _redc(_ZERO, x, redc))
    return vals


def _in_blocks(a, f):
    """Replace the C-contiguous array a by f(a), elementwise, in blocks of
    ``LEVEL_BLOCK`` words, and return a."""
    flat = a.reshape(-1)
    for lo in range(0, flat.shape[0], LEVEL_BLOCK):
        flat[lo : lo + LEVEL_BLOCK] = f(flat[lo : lo + LEVEL_BLOCK])
    return a


@functools.lru_cache(maxsize=8)
def _schedule(kinds, child_off, children):
    """The sum and product gates of a program, from the bytes of its int8
    kinds and int64 offsets and children, in evaluation order: by level,
    and within a level the sums of fan-in other than 2, the fan-in-2 sums
    and the products, each by fan-in, largest first.  Returns those gates,
    their fan-ins and one (lo, hi, kernel) range per level and kernel.
    ``Circuit.evaluate_batch`` calls :func:`eval_program` once per chunk of
    points with the same program, so the last few schedules are kept."""
    kinds = np.frombuffer(kinds, dtype=np.int8)
    child_off = np.frombuffer(child_off, dtype=np.int64)
    gates = np.flatnonzero(kinds >= KIND_ADD)
    kids = memoryview(children).cast("q")  # int64 child ids, no list of ints
    level = [0] * kinds.shape[0]
    at = level.__getitem__
    for g, lo, hi in zip(gates.tolist(), child_off[gates].tolist(), child_off[gates + 1].tolist()):
        level[g] = 1 + max(map(at, kids[lo:hi]))
    fan = child_off[gates + 1] - child_off[gates]
    # kernel code: 0 segment sums, 1 pair sums, 2 products
    code = np.where(kinds[gates] == KIND_MUL, 2, fan == 2)
    key = 3 * np.asarray(level)[gates] + code
    order = np.lexsort((-fan, key))
    gates, fan, key = gates[order], fan[order], key[order]
    gates.flags.writeable = fan.flags.writeable = False  # shared by every caller
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), gates.shape[0]]
    return gates, fan, tuple(
        (lo, hi, _KERNELS[key[lo] % 3]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    )


def _products(vals, gates, fan, first, children, p, step):
    """One level's products, fan-ins descending, in blocks of ``step``
    gates: one gather of every first child, then per child slot j one
    gather and one multiply for the leading gates whose fan-in exceeds j.
    Object blocks are reduced once, after the last slot."""
    wide = vals.dtype == object
    for lo in range(0, gates.shape[0], step):
        f = fan[lo : lo + step].tolist()
        at = first[lo : lo + step]
        acc = vals[children[at]]
        m = len(f)
        for j in range(1, f[0]):
            while f[m - 1] <= j:  # the gates with fan-in above j: a prefix
                m -= 1
            factor = vals[children[at[:m] + j]]
            acc[:m] = acc[:m] * factor if wide else _mul(acc[:m], factor, p)
        vals[gates[lo : lo + step]] = acc % p if wide else acc


def _pair_sums(vals, gates, fan, first, children, p, step):
    """One level's fan-in-2 sums, ``step`` gates at a time: one addmod of
    their gathered first and second children."""
    for lo in range(0, gates.shape[0], step):
        at = first[lo : lo + step]
        vals[gates[lo : lo + step]] = addmod_vec(vals[children[at]], vals[children[at + 1]], p)


def _sums(vals, gates, fan, first, children, p, step):
    """One level's other sums: segment sums over blocks of ``step`` child
    edges, where a gate's children may run on into the next block."""
    ends = np.cumsum(fan)
    starts = ends - fan
    edges = children[np.repeat(first - starts, fan) + np.arange(ends[-1])]
    longest = min(int(fan[0]), step)
    for e0 in range(0, int(ends[-1]), step):
        g0 = np.searchsorted(ends, e0, side="right")  # first gate ending past e0
        g1 = np.searchsorted(starts, e0 + step)  # gates starting in this block
        part = _sum_segments(
            vals[edges[e0 : e0 + step]], np.maximum(starts[g0:g1] - e0, 0), longest, p
        )
        if starts[g0] < e0:  # its sum so far, from the blocks before
            part[0] = addmod_vec(part[0], vals[gates[g0]], p)
        vals[gates[g0:g1]] = part


_KERNELS = (_sums, _pair_sums, _products)


def _join_halves(shi, slo, p):
    """(shi * 2^32 + slo) mod p from uint64 sums of the high and the low
    32-bit halves of reduced values; exact while neither sum overflows.
    At a Montgomery prime the shift is 2^32 R, which :func:`_mul` divides
    by R, so plain and Montgomery-form values both come out right."""
    redc = _redc_constants(int(p))
    shift = np.uint64((1 << 32) % int(p)) if redc is None else redc.shift32
    return addmod_vec(_mul(shi % p, shift, p), slo % p, p)


def _sum_segments(rows, starts, longest, p):
    """Sums mod p of the segments of a (rows, points) block that begin at
    the rows ``starts``, each at most ``longest`` rows long.  Python ints
    are summed directly.  When a segment could overflow one uint64 sum, the
    high and the low 32-bit halves are summed apart."""
    if rows.dtype == object or longest <= ((1 << 64) - 1) // (int(p) - 1):
        return np.add.reduceat(rows, starts, axis=0) % p
    return _join_halves(
        np.add.reduceat(rows >> np.uint64(32), starts, axis=0),
        np.add.reduceat(rows & _MASK32, starts, axis=0),
        p,
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


def _require_word_points(p: int) -> None:
    if p > 1 << 64:
        raise InvalidParams(
            f"modulus {p} exceeds 2^64: random point streams draw uint64 words"
        )


def _require_key(name: str, word: int) -> None:
    """A Philox key word, a seed or a trial index, is one uint64."""
    if not 0 <= word < 1 << 64:
        raise InvalidParams(f"{name} {word} outside [0, 2^64): stream keys are uint64 words")


def random_points(seed: int, trial: int, n: int, p: int) -> np.ndarray:
    """One row of n field elements drawn from the counter-based Philox stream
    keyed by the two words (seed, trial).  Identical (seed, trial) always
    yields the same point, independent of evaluation order, and distinct
    pairs never share a stream.  Raises InvalidParams for p > 2^64, or
    for a seed or trial outside [0, 2^64).  This is the reference that
    :func:`random_point_batch` reproduces."""
    _require_word_points(p)
    _require_key("seed", seed)
    _require_key("trial", trial)
    key = np.array([seed, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, p, size=n, dtype=np.uint64)


# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers of lanes 0
# and 2, and the Weyl increments of the two key words.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_PHILOX_ROUNDS = 10


def _philox_words(seed: int, trials: int, blocks: int) -> np.ndarray:
    """(trials, 4 * blocks) words: row t is the first 4 * blocks outputs of
    numpy's ``Philox(key=[seed, t])``, that is Philox4x64-10 of the
    counters 1 .. blocks under key (seed, t).  Both multiplied lanes of
    every row and block go through each round together, as one
    (2, trials, blocks) array; the key schedule is computed up front."""
    m = _PHILOX_M[:, None, None]
    m0, m1 = m & _MASK32, m >> _S32
    # round r's key is (seed, t) + r * _PHILOX_W, mod 2^64
    bump = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None] * _PHILOX_W
    keys = np.empty((_PHILOX_ROUNDS, 2, trials, 1), dtype=np.uint64)
    keys[:, 0] = (np.uint64(seed) + bump[:, :1])[:, :, None]
    keys[:, 1] = (np.arange(trials, dtype=np.uint64) + bump[:, 1:])[:, :, None]
    # lanes (0, 2) are multiplied, lanes (1, 3) are xored in
    mult = np.zeros((2, trials, blocks), dtype=np.uint64)
    mult[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    rest = np.zeros_like(mult)
    for key in keys:
        lo = mult * m
        hi = _mulhi(mult, m0, m1)
        mult, rest = hi[::-1] ^ rest ^ key, lo[::-1]
    return np.stack([mult[0], rest[0], mult[1], rest[1]], axis=-1).reshape(trials, 4 * blocks)


def random_point_batch(seed: int, trials: int, n: int, p: int) -> np.ndarray:
    """(trials, n) matrix of evaluation points, one Philox stream per trial.

    Row t equals ``random_points(seed, t, n, p)``.  Every row's stream comes
    from one vectorized Philox sweep (:func:`_philox_words`), then numpy's
    bounded draw, Lemire's multiply-and-keep-the-high-half: for p > 2^32
    on whole words, otherwise on their 32-bit halves, low half first.  A
    draw whose low half falls below Lemire's threshold makes numpy draw
    again, so such a row is drawn by :func:`random_points` instead.
    Raises InvalidParams for p > 2^64, a seed outside [0, 2^64) or
    trials < 0."""
    _require_word_points(p)
    _require_key("seed", seed)
    if trials < 0:
        raise InvalidParams(f"trials must be >= 0, got {trials}")
    p = int(p)
    if p > 1 << 32:
        blocks = -(-n // 4)
        words = _philox_words(seed, trials, blocks)[:, :n]
        if p == 1 << 64:  # numpy returns the raw words
            return words
        pw = np.uint64(p)
        pts = _mulhi(words, pw & _MASK32, pw >> _S32)
        low = words * pw
        threshold = np.uint64(((1 << 64) - p) % p)
    else:
        blocks = -(-n // 8)
        words = _philox_words(seed, trials, blocks)
        halves = np.stack([words & _MASK32, words >> _S32], axis=-1)
        wide = halves.reshape(trials, 8 * blocks)[:, :n] * np.uint64(p)
        pts = wide >> _S32
        low = wide & _MASK32
        threshold = np.uint64(((1 << 32) - p) % p)
    for t in np.flatnonzero((low < threshold).any(axis=1)).tolist():
        pts[t] = random_points(seed, t, n, p)
    return pts
