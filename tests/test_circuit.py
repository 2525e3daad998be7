import numpy as np
import pytest

from circflat import (
    FieldSpec,
    check_decomposition,
    count_proof_trees,
    decomposition_terms,
    enumerate_proof_trees,
    eval_quotient,
    expand_gate,
    extract_subcircuit,
    normalized,
    proof_tree_sum,
    random_multilinear,
)
from circflat.circuit import Circuit, Gate, input_gate, mul_gate, parse, validate
from circflat.errors import InvalidCircuit, ParseError

from conftest import build, pos22


def test_minimal_wellformed():
    c = build(1, [input_gate(1)])
    assert validate(c) == []


def test_unknown_child():
    c = build(2, [input_gate(1), Gate("add", children=(2,))], output=1)
    diags = validate(c)
    assert len(diags) == 1
    assert diags[0].code == "unknown_child"
    assert diags[0].gate == 1 and diags[0].child == 2


def test_child_not_smaller():
    c = build(2, [input_gate(1), Gate("add", children=(1,))], output=1)
    diags = validate(c)
    assert [d.code for d in diags] == ["child_not_smaller"]
    assert diags[0].gate == 1


def test_other_diagnostics():
    f = FieldSpec(101)
    c = Circuit(1, [Gate("input", var=5), Gate("const", value=200), Gate("mul", children=())], 7, field=f)
    codes = {d.code for d in validate(c)}
    assert codes == {"bad_variable", "bad_const", "empty_fanin", "bad_output"}


def test_parse_serialize_roundtrip():
    text = """# a comment
circuit demo
nvars 4
gate 0 = input x1
gate 1 = input x2   # inline comment
gate 2 = input x3
gate 3 = input x4
gate 4 = add 0 1
gate 5 = add 2 3
gate 6 = mul 4 5
output 6
"""
    c = parse(text)
    assert c.name == "demo"
    assert c.structurally_equal(pos22())
    again = parse(c.serialize())
    assert again.structurally_equal(c)
    assert again.serialize() == c.serialize()


def test_parse_gap_renumbering():
    text = "circuit g\nnvars 1\ngate 0 = input x1\ngate 7 = add 0 0\noutput 7\n"
    c = parse(text)
    assert c.num_gates == 2
    assert c.gates[1].children == (0, 0)
    assert c.output == 1


def test_parse_const_reduced():
    f = FieldSpec(97)
    c = parse("circuit k\nnvars 1\ngate 0 = const 100\noutput 0\n", field=f)
    assert c.gates[0].value == 3


@pytest.mark.parametrize(
    "bad",
    [
        "nvars 1\ngate 0 = input x1\n",  # no output
        "circuit c\ngate 0 = input x1\noutput 0\n",  # no nvars
        "circuit c\nnvars 1\ngate 0 = add 1\noutput 0\n",  # forward child
        "circuit c\nnvars 1\ngate 0 = input x1\ngate 0 = input x1\noutput 0\n",  # ids not increasing
        "circuit c\nnvars 1\ngate 0 = frob 1\noutput 0\n",  # unknown kind
        "circuit c\nnvars 1\ngate 0 = input x1\noutput 3\n",  # undefined output
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_evaluate_matches_hand_computation():
    c = pos22()
    p = c.field.p
    assert c.evaluate([1, 2, 3, 4]) == (1 + 2) * (3 + 4) % p
    assert c.evaluate([0, 0, 5, 9]) == 0


def test_evaluate_batch_matches_single(field):
    c = pos22(field)
    pts = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 0, 0]], dtype=np.uint64)
    batch = c.evaluate_batch(pts)
    for j, row in enumerate(pts):
        assert int(batch[j]) == c.evaluate([int(x) for x in row])


def test_corpus_roundtrip(corpus):
    for c in corpus[:12]:
        again = parse(c.serialize(), field=c.field)
        assert again.structurally_equal(c)


def test_size_counts_edges():
    c = pos22()
    assert c.size() == 6
    assert build(1, [input_gate(1)]).size() == 0
    assert build(2, [input_gate(1), input_gate(2), mul_gate((0, 1, 0))]).size() == 3


# The public entries that take a gate id, called with that id as ``g``.
GATE_ID_ENTRIES = {
    "check_decomposition u": lambda c, g: check_decomposition(c, g, None, 2),
    "check_decomposition v": lambda c, g: check_decomposition(c, 36, g, 2),
    "decomposition_terms": lambda c, g: decomposition_terms(c, g, 2),
    "eval_quotient u": lambda c, g: eval_quotient(c, g, 0, [1] * c.n),
    "eval_quotient v": lambda c, g: eval_quotient(c, 36, g, [1] * c.n),
    "extract_subcircuit": lambda c, g: extract_subcircuit(c, g),
    "expand_gate": lambda c, g: expand_gate(c, g),
    "count_proof_trees root": lambda c, g: count_proof_trees(c, g),
    "count_proof_trees snip": lambda c, g: count_proof_trees(c, 36, g),
    "enumerate_proof_trees snip": lambda c, g: enumerate_proof_trees(c, 36, g),
    "proof_tree_sum root": lambda c, g: proof_tree_sum(c, g),
}


@pytest.mark.parametrize("entry", sorted(GATE_ID_ENTRIES))
@pytest.mark.parametrize("past_end", [False, True])
def test_gate_ids_out_of_range_raise(entry, past_end):
    # a negative id used to index from the end: check_decomposition said
    # "fails" on gate -1 where the same gate, 36, holds
    c = normalized(random_multilinear(40, 6, seed=0))
    assert c.num_gates == 37 and check_decomposition(c, 36, None, 2).holds
    g = c.num_gates if past_end else -1
    with pytest.raises(InvalidCircuit, match=f"no gate {g}$"):
        GATE_ID_ENTRIES[entry](c, g)
