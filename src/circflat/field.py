"""Prime field plumbing.

All circuit semantics in this package are taken over a prime field F_p.  The
default modulus is the Mersenne prime 2^61 - 1, which is large enough to make
randomized identity testing essentially error-free at desk scale and small
enough that the accelerated kernels can do arithmetic in 64-bit words.
"""

from dataclasses import dataclass

from .errors import InvalidParams

MERSENNE61 = (1 << 61) - 1

DEFAULT_PRIME = MERSENNE61

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality check (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p, declared once per pipeline run."""

    prime_modulus: int = DEFAULT_PRIME

    def __post_init__(self):
        p = self.prime_modulus
        if not isinstance(p, int) or p < 2:
            raise InvalidParams(f"modulus must be an integer >= 2, got {p!r}")
        if not is_prime(p):
            raise InvalidParams(f"modulus {p} is not prime")

    @property
    def p(self) -> int:
        return self.prime_modulus

    def reduce(self, value: int) -> int:
        """Canonical residue of an arbitrary integer."""
        return value % self.prime_modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.prime_modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.prime_modulus

    def neg(self, a: int) -> int:
        return (-a) % self.prime_modulus

    def inv(self, a: int) -> int:
        if a % self.prime_modulus == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.prime_modulus - 2, self.prime_modulus)


def lagrange_interpolate(xs, ys, field: FieldSpec):
    """Coefficients (low degree first) of the unique poly of degree < len(xs)
    through the points (xs[i], ys[i]) over F_p, by the quadratic-time
    textbook method.

    The pipeline no longer calls it: balance reads each base key, which is
    affine in one variable, at two points.  It stays because the benchmark's
    span list (``perfbench/spans.py``) wraps it by name.
    """
    p = field.p
    npts = len(xs)
    coeffs = [0] * npts
    for i in range(npts):
        # Numerator polynomial prod_{j != i} (X - x_j), times the scalar
        # y_i / prod_{j != i} (x_i - x_j).
        denom = 1
        for j in range(npts):
            if j != i:
                denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * field.inv(denom) % p
        basis = [1]
        for j in range(npts):
            if j == i:
                continue
            nxt = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] = (nxt[d] - c * xs[j]) % p
                nxt[d + 1] = (nxt[d + 1] + c) % p
            basis = nxt
        for d, c in enumerate(basis):
            coeffs[d] = (coeffs[d] + scale * c) % p
    return coeffs
