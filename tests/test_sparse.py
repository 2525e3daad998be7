import tracemalloc

import numpy as np
import pytest

from circflat import LayeredCircuit, Summand, brute_force_expand, proof_tree_sum
from circflat.errors import IncompatibleArity
from circflat.field import FieldSpec
from circflat.generators import full_multilinear
from circflat.sparse import SparsePolynomial


@pytest.fixture
def f():
    return FieldSpec()


def test_construction_drops_zero_coeffs(f):
    poly = SparsePolynomial(2, f, {(1, 0): 0, (0, 1): 5})
    assert poly.terms == {(0, 1): 5}


def test_add_mul(f):
    x1 = SparsePolynomial.variable(2, f, 1)
    x2 = SparsePolynomial.variable(2, f, 2)
    s = x1.add(x2)
    prod = s.mul(s)
    assert prod.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert prod.total_degree() == 2
    assert not prod.is_multilinear()
    assert x1.mul(x2).is_multilinear()


def test_cancellation(f):
    a = SparsePolynomial(1, f, {(1,): 1})
    b = SparsePolynomial(1, f, {(1,): f.p - 1})
    assert a.add(b).is_zero()


def test_arity_mismatch(f):
    a = SparsePolynomial.variable(2, f, 1)
    b = SparsePolynomial.variable(3, f, 1)
    with pytest.raises(IncompatibleArity):
        a.add(b)


def test_var_mass_and_degrees(f):
    poly = SparsePolynomial(3, f, {(2, 0, 1): 4, (1, 1, 0): 2})
    assert poly.per_var_degrees() == (2, 1, 1)
    assert poly.var_mass() == 4
    assert poly.total_degree() == 3


def test_evaluate_and_batch(f):
    poly = SparsePolynomial(2, f, {(0, 0): 7, (1, 1): 3, (2, 0): 1})
    pt = [5, 9]
    want = (7 + 3 * 45 + 25) % f.p
    assert poly.evaluate(pt) == want
    pts = np.array([[5, 9], [0, 0]], dtype=np.uint64)
    got = poly.evaluate_batch(pts)
    assert int(got[0]) == want and int(got[1]) == 7


def test_text_serialization_canonical(f):
    poly = SparsePolynomial(2, f, {(1, 1): 2, (0, 0): 9, (2, 0): 1})
    # one term per line, ascending lexicographic exponent order
    assert poly.serialize_text() == "9\n2 * x1^1 x2^1\n1 * x1^2\n"
    assert SparsePolynomial.zero(2, f).serialize_text() == "0\n"


def test_json_roundtrip(f):
    poly = SparsePolynomial(2, f, {(1, 1): 2, (0, 0): 9})
    again = SparsePolynomial.from_json_dict(poly.to_json_dict())
    assert again == poly


@pytest.mark.parametrize("p", [(1 << 61) - 1, (1 << 62) - 57])
def test_evaluate_batch_exponent_above_a_byte(p):
    # x1^256: one past the largest uint8 exponent
    field = FieldSpec(p)
    poly = SparsePolynomial(1, field, {(256,): 1})
    pts = np.array([[3], [p - 2], [0]], dtype=np.uint64)
    want = [poly.evaluate(pt) for pt in pts.tolist()]
    assert poly.evaluate_batch(pts).tolist() == want
    layered = LayeredCircuit(1, field, 2, [poly], [Summand(1, 1, (0,))])
    assert layered.evaluate_batch(pts).tolist() == want


@pytest.mark.parametrize("p", [(1 << 61) - 1, (1 << 62) - 57])
def test_evaluate_batch_high_power_memory(p):
    # x1^(2^16): a power table up to the largest exponent would hold
    # 2^16 + 1 rows of 256 words, 128 MiB
    poly = SparsePolynomial(1, FieldSpec(p), {(1 << 16,): 1})
    pts = np.array([[(7 * i + 3) % p] for i in range(255)] + [[p - 1]], dtype=np.uint64)
    tracemalloc.start()
    try:
        got = poly.evaluate_batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [poly.evaluate(pt) for pt in pts.tolist()]
    assert peak < 4 << 20


def test_packed_form_reads_like_terms(f):
    # x1^2 x2 + 5 + (p - 1) x2^3 at one byte per variable
    packed = {2 | 1 << 8: 1, 0: 5, 3 << 8: f.p - 1}
    poly = SparsePolynomial.from_packed(2, f, 1, packed)
    plain = SparsePolynomial(2, f, {(2, 1): 1, (0, 0): 5, (0, 3): -1})
    assert poly.num_terms() == 3 and not poly.is_zero()
    assert poly.terms == plain.terms
    assert poly == plain and plain == poly and hash(poly) == hash(plain)
    wide = SparsePolynomial.from_packed(2, f, 2, {2 | 1 << 16: 1, 0: 5, 3 << 16: f.p - 1})
    assert wide == poly and hash(wide) == hash(poly)
    assert SparsePolynomial.from_packed(2, f, 1, {}).is_zero()


def test_packed_polynomials_that_differ_compare_unequal(f):
    base = {1: 3, 1 << 8: 4}
    poly = SparsePolynomial.from_packed(2, f, 1, base)
    other_coeff = SparsePolynomial.from_packed(2, f, 1, {1: 3, 1 << 8: 5})
    other_key = SparsePolynomial.from_packed(2, f, 1, {2: 3, 1 << 8: 4})
    assert poly != other_coeff and poly != other_key
    assert SparsePolynomial.from_packed(3, f, 1, base) != poly
    assert SparsePolynomial.from_packed(2, FieldSpec(101), 1, base) != poly


def test_equality_of_same_width_expansions_stays_packed():
    # comparing two expansions must not build exponent tuples: the verify
    # path compares the oracle with the layered and proof-tree polynomials
    c = full_multilinear(6)
    a = brute_force_expand(c)
    b = proof_tree_sum(c, c.output)
    assert a == b
    assert "terms" not in vars(a) and "terms" not in vars(b)
    assert a.terms == b.terms and a == b
