import numpy as np
import pytest

from circflat import LayeredCircuit, Summand
from circflat.errors import IncompatibleArity
from circflat.field import FieldSpec
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
