"""Sparse multivariate polynomials over F_p.

Terms map length-n exponent tuples to nonzero field coefficients; the
all-zero tuple is the constant term.  These polynomials are the exact
semantic reference for every circuit transformation, so the arithmetic
here is deliberately straightforward dictionary algebra.

Gate expansion (:mod:`circflat.expand`) and proof-tree enumeration
(:mod:`circflat.verify`) give polynomials in packed form: a dict from a
Python-int key, where variable i owns bytes [w*i, w*(i+1)) of the
little-endian key, to a coefficient.  ``terms`` unpacks it on first read,
and two polynomials packed at the same width compare their packed dicts,
so checking one expansion against another builds no exponent tuples.
"""

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from .circuit import Builder, Circuit
from .errors import IncompatibleArity
from .field import FieldSpec

Exponents = Tuple[int, ...]


def key_width(top: int) -> int:
    """Bytes per variable of packed keys whose exponents reach ``top``."""
    return max((top.bit_length() + 7) // 8, 1)


def variable_key(var: int, width: int) -> int:
    """Packed key of the monomial x_var, for a 1-based variable index."""
    return 1 << (8 * width * (var - 1))


def unpack_keys(keys: Iterable[int], n: int, width: int) -> List[Exponents]:
    """Exponent tuple of each packed key: variable i is read from bytes
    [width*i, width*(i+1)) of the little-endian key."""
    nbytes = width * n
    raws = (key.to_bytes(nbytes, "little") for key in keys)
    if width == 1:
        return [tuple(raw) for raw in raws]
    cuts = range(0, nbytes, width)
    return [tuple(int.from_bytes(raw[i : i + width], "little") for i in cuts) for raw in raws]


class SparsePolynomial:
    def __init__(self, n: int, field: FieldSpec, terms: Optional[Dict[Exponents, int]] = None):
        self.n = n
        self.field = field
        self._packed: Optional[Dict[int, int]] = None
        self._width = 0
        self.terms: Dict[Exponents, int] = {}
        if terms:
            for e, c in terms.items():
                c %= field.p
                if c:
                    self.terms[tuple(e)] = c

    @cached_property
    def terms(self) -> Dict[Exponents, int]:
        """Exponent tuple -> coefficient; a packed polynomial unpacks on
        first read, and the dict is then an attribute like any other."""
        packed = self._packed
        return dict(zip(unpack_keys(packed, self.n, self._width), packed.values()))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_packed(cls, n: int, field: FieldSpec, width: int, packed: Dict[int, int]):
        """Polynomial over packed terms at ``width`` bytes per variable.
        Trusted, not re-normalized: every coefficient must be reduced mod p
        and nonzero, and every exponent must fit its bytes.  The dict is
        kept, not copied, so the caller must not change it afterwards."""
        poly = cls.__new__(cls)
        poly.n, poly.field, poly._packed, poly._width = n, field, packed, width
        return poly

    @classmethod
    def zero(cls, n, field):
        return cls(n, field)

    @classmethod
    def const(cls, n, field, value):
        value %= field.p
        if not value:
            return cls(n, field)
        return cls(n, field, {(0,) * n: value})

    @classmethod
    def variable(cls, n, field, var_index):
        """Monomial x_i for a 1-based variable index."""
        exps = tuple(1 if j == var_index - 1 else 0 for j in range(n))
        return cls(n, field, {exps: 1})

    # -- shape -----------------------------------------------------------

    def num_terms(self) -> int:
        return len(self.terms if self._packed is None else self._packed)

    def is_zero(self) -> bool:
        return not (self.terms if self._packed is None else self._packed)

    def is_multilinear(self) -> bool:
        return all(all(e <= 1 for e in exps) for exps in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def per_var_degrees(self) -> Exponents:
        degs = [0] * self.n
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)

    def var_mass(self) -> int:
        """Sum of per-variable max degrees: the |Var| of the polynomial's
        support, used for the bottom-layer threshold checks."""
        return sum(self.per_var_degrees())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SparsePolynomial"):
        if self.n != other.n or self.field.p != other.field.p:
            raise IncompatibleArity("polynomial arity or modulus mismatch")

    def add(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check(other)
        p = self.field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePolynomial(self.n, self.field, out)

    def mul(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check(other)
        p = self.field.p
        out: Dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = (out.get(e, 0) + ca * cb) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePolynomial(self.n, self.field, out)

    def __eq__(self, other):
        if not (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.field.p == other.field.p
        ):
            return False
        if self._packed is not None and other._packed is not None and self._width == other._width:
            return self._packed == other._packed
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.field.p, frozenset(self.terms.items())))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> int:
        p = self.field.p
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term = term * pow(int(point[i]) % p, e, p) % p
            total = (total + term) % p
        return total

    def evaluate_batch(self, points):
        """Values at each row of points, of ``backends.field_dtype(p)``:
        the batch evaluation of the polynomial's sum-of-monomials circuit
        (:meth:`Builder.polynomial`)."""
        b = Builder(self.n, self.field)
        out = b.polynomial(self)
        return Circuit(self.n, b.gates, out, self.field).evaluate_batch(points)

    # -- serialization -------------------------------------------------------

    def serialize_text(self) -> str:
        """One term per line: ``<coeff> * x1^e1 ... xn^en`` in ascending
        lexicographic exponent order.  The zero polynomial prints ``0``."""
        if not self.terms:
            return "0\n"
        lines = []
        for exps in sorted(self.terms):
            factors = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            coeff = self.terms[exps]
            lines.append(f"{coeff} * {factors}" if factors else str(coeff))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.field.p,
            "monomials": [
                {"exponents": list(e), "coeff": self.terms[e]} for e in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data, field: Optional[FieldSpec] = None):
        field = field if field is not None else FieldSpec(data["modulus"])
        terms = {tuple(m["exponents"]): m["coeff"] for m in data["monomials"]}
        return cls(data["n"], field, terms)

    def __repr__(self):
        return f"SparsePolynomial(n={self.n}, terms={self.num_terms()})"
