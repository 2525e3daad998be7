"""Kernels for field arithmetic and circuit evaluation, written with numpy.

Word arithmetic on uint64 arrays is available for two families of primes:
the Mersenne prime 2^61 - 1 (products are reduced with shift/mask folding,
no 128-bit intermediate needed) and any prime below 2^31 (products fit a
64-bit word directly).  For every other prime the evaluator
(:func:`eval_program`) runs the same code on object arrays of Python ints,
whose products never overflow; :func:`field_dtype` picks the dtype from
the prime.

:func:`eval_program` is the one batched evaluator.  Its gate-program
encoding is built in ``circuit.py``: per-gate kind codes, a payload word
(variable index or constant value) and a flattened child list with
offsets.  It evaluates the program level by level: a gate's level is one
more than the largest of its children's, and all the sums, then all the
products, of one level take a few numpy calls together (gathers, then one
addmod or segment sum, or one multiply per child slot), in blocks of at
most ``LEVEL_BLOCK`` words.  ``Circuit.evaluate_batch`` passes its points
in chunks whose (gates, points) table holds at most ``TABLE_BLOCK`` words.
Sparse polynomials and layered circuits are evaluated as the circuits
they flatten to, a sparse polynomial as its sum of monomials.
"""

import functools

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
    """Evaluate every gate of an encoded circuit at a batch of points,
    level by level.

    A gate's level is 1 + the largest level of its children; inputs and
    constants are level 0, so a level reads only the levels below it.  Each
    level's sums and then its products are evaluated together, in blocks of
    at most ``LEVEL_BLOCK`` words (:func:`_sums`, :func:`_products`).
    Returns a (ngates, npoints) table of values mod p, of
    ``field_dtype(p)``; the payload must have that dtype too.
    """
    dtype = field_dtype(p)
    p = dtype.type(int(p))
    vals = np.empty((kinds.shape[0], points.shape[0]), dtype=dtype)
    inputs = np.flatnonzero(kinds == KIND_INPUT)
    vals[inputs] = points.T[payload[inputs].astype(np.intp)]
    consts = np.flatnonzero(kinds == KIND_CONST)
    vals[consts] = payload[consts, None]
    step = max(1, LEVEL_BLOCK // max(points.shape[0], 1))
    gates, fan, groups = _schedule(
        kinds.astype(np.int8, copy=False).tobytes(),
        child_off.astype(np.int64, copy=False).tobytes(),
        children.astype(np.int64, copy=False).tobytes(),
    )
    first = child_off[gates]
    for lo, hi, kernel in groups:
        kernel(vals, gates[lo:hi], fan[lo:hi], first[lo:hi], children, p, step)
    return vals


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
            acc[:m] = acc[:m] * factor if wide else mulmod_vec(acc[:m], factor, p)
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
    32-bit halves of reduced values; exact while neither sum overflows."""
    shift = np.uint64((1 << 32) % int(p))
    return addmod_vec(mulmod_vec(shi % p, shift, p), slo % p, p)


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
