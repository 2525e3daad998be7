import pytest

from circflat import FieldSpec, random_multilinear
from circflat.circuit import Circuit, add_gate, const_gate, input_gate, mul_gate

# 50 seeded multilinear circuits, n <= 12 and at most 100 gates, with a
# sprinkle of <= 16-gate instances so the exhaustive proof-tree checks have
# something to chew on.
_NS = (4, 6, 8, 10, 12)
_SIZES = (14, 16, 24, 40, 60, 80, 100)


def _min_gates(n: int) -> int:
    return 2 * (n + max(1, n // 4)) + 1


def corpus_plan():
    plan = []
    for seed in range(50):
        n = _NS[seed % len(_NS)]
        g = max(_SIZES[seed % len(_SIZES)], _min_gates(n))
        plan.append((seed, n, g))
    return plan


@pytest.fixture(scope="session")
def field():
    return FieldSpec()


@pytest.fixture(scope="session")
def corpus(field):
    return [random_multilinear(g, n, seed=seed, field=field) for seed, n, g in corpus_plan()]


@pytest.fixture(scope="session")
def small_corpus(corpus):
    small = [c for c in corpus if c.num_gates <= 16]
    assert small, "corpus plan must include small circuits"
    return small


def build(n, gates, output=None, field=None, name="t"):
    """Shorthand circuit constructor for tests."""
    out = len(gates) - 1 if output is None else output
    return Circuit(n, gates, out, field=field or FieldSpec(), name=name)


def at_prime(c, p):
    """The same gates over F_p, constants reduced mod p."""
    gates = [const_gate(g.value % p) if g.kind == "const" else g for g in c.gates]
    return Circuit(c.n, gates, c.output, field=FieldSpec(p), name=c.name)


def pos22(field=None):
    """(x1 + x2) * (x3 + x4), binary gates."""
    gates = [
        input_gate(1),
        input_gate(2),
        input_gate(3),
        input_gate(4),
        add_gate((0, 1)),
        add_gate((2, 3)),
        mul_gate((4, 5)),
    ]
    return build(4, gates, field=field)
