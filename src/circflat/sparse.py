"""Sparse multivariate polynomials over F_p.

Terms are stored as a map from length-n exponent tuples to nonzero field
coefficients; the all-zero tuple is the constant term.  These polynomials
are the exact semantic reference for every circuit transformation, so the
arithmetic here is deliberately straightforward dictionary algebra.
Gate expansion (:mod:`circflat.expand`), which also expands layered
circuits through their flattened form, works on dicts keyed by packed
Python ints and converts to this type at the edge.
"""

from typing import Dict, Optional, Tuple

import numpy as np

from . import backends
from .errors import IncompatibleArity
from .field import FieldSpec

Exponents = Tuple[int, ...]


class SparsePolynomial:
    def __init__(self, n: int, field: FieldSpec, terms: Optional[Dict[Exponents, int]] = None):
        self.n = n
        self.field = field
        self.terms: Dict[Exponents, int] = {}
        if terms:
            for e, c in terms.items():
                c %= field.p
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors ----------------------------------------------------

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
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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

    def scale(self, c: int) -> "SparsePolynomial":
        c %= self.field.p
        return SparsePolynomial(
            self.n, self.field, {e: v * c % self.field.p for e, v in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.field.p == other.field.p
            and self.terms == other.terms
        )

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

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of points through :func:`backends.eval_terms`,
        for every prime: uint64 words where a word kernel exists, Python ints
        in an object array otherwise."""
        exps, coeffs = self.to_term_arrays()
        return backends.eval_terms(exps, coeffs, points, self.field.p)

    def to_term_arrays(self):
        """(terms, n) exponent matrix of the narrowest unsigned dtype that
        holds the largest exponent, plus coefficients of
        ``backends.field_dtype(p)``, in canonical term order."""
        keys = sorted(self.terms)
        top = max((max(e, default=0) for e in keys), default=0)
        exps = np.array(keys, dtype=np.min_scalar_type(top)).reshape(len(keys), self.n)
        coeffs = np.array(
            [self.terms[e] for e in keys], dtype=backends.field_dtype(self.field.p)
        )
        return exps, coeffs

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
