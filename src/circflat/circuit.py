"""Circuit intermediate representation, text format and evaluation.

A circuit is an immutable DAG of gates over a prime field.  Gates are stored
in a dense, topologically numbered sequence: every child id is strictly
smaller than its parent's id, so a single forward sweep visits children
before parents.  The size of a circuit is its number of edges (the sum of
all fan-ins).

Text format (UTF-8, ``#`` starts a comment):

    circuit <name>
    nvars <n>
    gate <id> = input x<i>        # 1 <= i <= n
    gate <id> = const <integer>   # reduced mod p at load
    gate <id> = add <id> <id> [<id> ...]
    gate <id> = mul <id> <id> [<id> ...]
    output <id>

Ids must be strictly increasing in file order and children must precede use.
Files may leave gaps in the id sequence; gates are renumbered densely on
load, preserving order.
"""

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from . import backends
from .errors import InvalidCircuit, ParseError
from .field import FieldSpec

INPUT = "input"
CONST = "const"
ADD = "add"
MUL = "mul"

_KIND_CODE = {
    INPUT: backends.KIND_INPUT,
    CONST: backends.KIND_CONST,
    ADD: backends.KIND_ADD,
    MUL: backends.KIND_MUL,
}


@dataclass(frozen=True)
class Gate:
    """One gate: ``input`` (carries a 1-based variable index), ``const``
    (carries a canonical residue) or ``add``/``mul`` over child gate ids."""

    kind: str
    var: Optional[int] = None
    value: Optional[int] = None
    children: tuple = ()

    def fanin(self) -> int:
        return len(self.children)


def input_gate(i: int) -> Gate:
    return Gate(INPUT, var=i)


def const_gate(value: int) -> Gate:
    return Gate(CONST, value=value)


def add_gate(children: Iterable[int]) -> Gate:
    return Gate(ADD, children=tuple(children))


def mul_gate(children: Iterable[int]) -> Gate:
    return Gate(MUL, children=tuple(children))


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation found by :func:`validate`."""

    code: str
    gate: Optional[int] = None
    child: Optional[int] = None
    detail: str = ""

    def __str__(self):
        loc = f" at gate {self.gate}" if self.gate is not None else ""
        extra = f" (child {self.child})" if self.child is not None else ""
        msg = f": {self.detail}" if self.detail else ""
        return f"{self.code}{loc}{extra}{msg}"


class Circuit:
    """Immutable circuit value.  All analyses treat instances as read-only;
    transformation passes build new instances."""

    def __init__(self, n, gates, output, field=None, name="c"):
        self.n = int(n)
        self.gates = tuple(gates)
        self.output = int(output)
        self.field = field if field is not None else FieldSpec()
        self.name = name
        self._program = None
        self._reachable = None

    # -- basic shape ---------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def size(self) -> int:
        """Number of edges."""
        return sum(len(g.children) for g in self.gates)

    def structurally_equal(self, other: "Circuit") -> bool:
        return (
            self.n == other.n
            and self.output == other.output
            and self.field.p == other.field.p
            and self.gates == other.gates
        )

    def cone(self, gate: int) -> List[bool]:
        """Mask over all gates, True for ``gate`` and every gate it reads
        directly or transitively."""
        mask = [False] * self.num_gates
        mask[gate] = True
        for g in range(gate, -1, -1):
            if mask[g]:
                for c in self.gates[g].children:
                    mask[c] = True
        return mask

    def reachable_from_output(self) -> np.ndarray:
        """Boolean mask of gates in the cone of the output."""
        if self._reachable is None:
            self._reachable = np.asarray(self.cone(self.output))
        return self._reachable

    # -- evaluation ----------------------------------------------------

    def program(self):
        """Encoded arrays for the batched kernels (cached)."""
        if self._program is None:
            ng = self.num_gates
            kinds = np.zeros(ng, dtype=np.int8)
            payload = np.zeros(ng, dtype=np.uint64)
            offs = np.zeros(ng + 1, dtype=np.int64)
            flat = []
            for i, g in enumerate(self.gates):
                kinds[i] = _KIND_CODE[g.kind]
                if g.kind == INPUT:
                    payload[i] = g.var - 1
                elif g.kind == CONST:
                    payload[i] = g.value
                flat.extend(g.children)
                offs[i + 1] = len(flat)
            children = np.asarray(flat, dtype=np.int64)
            self._program = (kinds, payload, offs, children)
        return self._program

    def eval_table(self, points: np.ndarray) -> np.ndarray:
        """Values of every gate at each row of ``points`` ((npts, n) uint64).
        Requires a kernel-capable modulus."""
        if backends.fast_prime_kind(self.field.p) is None:
            raise InvalidCircuit(
                f"modulus {self.field.p} is not kernel-capable; use evaluate()"
            )
        kinds, payload, offs, children = self.program()
        return backends.eval_program(kinds, payload, offs, children, points, self.field.p)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Output-gate values at a batch of points."""
        if backends.fast_prime_kind(self.field.p) is not None:
            return self.eval_table(points)[self.output]
        return np.asarray(
            [self.evaluate([int(x) for x in row]) for row in points], dtype=object
        )

    def evaluate(self, point) -> int:
        """Output value at a single point (pure Python, any prime)."""
        p = self.field.p
        vals = [0] * self.num_gates
        for i, g in enumerate(self.gates):
            if g.kind == INPUT:
                vals[i] = int(point[g.var - 1]) % p
            elif g.kind == CONST:
                vals[i] = g.value
            elif g.kind == ADD:
                acc = 0
                for c in g.children:
                    acc += vals[c]
                vals[i] = acc % p
            else:
                acc = 1
                for c in g.children:
                    acc = acc * vals[c] % p
                vals[i] = acc
        return vals[self.output]

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        lines = [f"circuit {self.name}", f"nvars {self.n}"]
        for i, g in enumerate(self.gates):
            if g.kind == INPUT:
                lines.append(f"gate {i} = input x{g.var}")
            elif g.kind == CONST:
                lines.append(f"gate {i} = const {g.value}")
            else:
                kids = " ".join(str(c) for c in g.children)
                lines.append(f"gate {i} = {g.kind} {kids}")
        lines.append(f"output {self.output}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"Circuit({self.name!r}, n={self.n}, gates={self.num_gates}, "
            f"size={self.size()}, p={self.field.p})"
        )


def validate(circuit: Circuit) -> list:
    """Check every structural invariant; returns one diagnostic per
    violation and never raises."""
    diags = []
    ng = circuit.num_gates
    if circuit.n < 0:
        diags.append(Diagnostic("bad_nvars", detail=f"nvars {circuit.n} is negative"))
    for i, g in enumerate(circuit.gates):
        if g.kind == INPUT:
            if g.var is None or not (1 <= g.var <= circuit.n):
                diags.append(
                    Diagnostic("bad_variable", gate=i, detail=f"x{g.var} with n={circuit.n}")
                )
        elif g.kind == CONST:
            if g.value is None or not (0 <= g.value < circuit.field.p):
                diags.append(
                    Diagnostic("bad_const", gate=i, detail=f"{g.value} not a canonical residue")
                )
        elif g.kind in (ADD, MUL):
            if len(g.children) < 1:
                diags.append(Diagnostic("empty_fanin", gate=i))
            for c in g.children:
                if not (0 <= c < ng):
                    diags.append(Diagnostic("unknown_child", gate=i, child=c))
                elif c >= i:
                    diags.append(Diagnostic("child_not_smaller", gate=i, child=c))
        else:
            diags.append(Diagnostic("bad_kind", gate=i, detail=g.kind))
    if not (0 <= circuit.output < ng):
        diags.append(Diagnostic("bad_output", detail=f"output {circuit.output}"))
    return diags


def require_valid(circuit: Circuit) -> None:
    diags = validate(circuit)
    if diags:
        raise InvalidCircuit("; ".join(str(d) for d in diags))


def parse(text: str, field: Optional[FieldSpec] = None) -> Circuit:
    """Parse the textual format.  Constants are reduced mod p; gate ids are
    renumbered densely in file order."""
    field = field if field is not None else FieldSpec()
    name = "c"
    n = None
    output_raw = None
    gates = []
    idmap = {}
    last_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "circuit":
            if len(parts) != 2:
                raise ParseError("expected 'circuit <name>'", lineno)
            name = parts[1]
        elif head == "nvars":
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise ParseError("expected 'nvars <n>'", lineno)
            n = int(parts[1])
        elif head == "gate":
            if len(parts) < 4 or parts[2] != "=":
                raise ParseError("expected 'gate <id> = <kind> ...'", lineno)
            try:
                gid = int(parts[1])
            except ValueError:
                raise ParseError(f"bad gate id {parts[1]!r}", lineno)
            if gid <= last_id:
                raise ParseError(
                    f"gate id {gid} is not strictly increasing", lineno
                )
            kind = parts[3]
            if kind == INPUT:
                if len(parts) != 5 or not parts[4].startswith("x"):
                    raise ParseError("expected 'input x<i>'", lineno)
                try:
                    var = int(parts[4][1:])
                except ValueError:
                    raise ParseError(f"bad variable {parts[4]!r}", lineno)
                gate = input_gate(var)
            elif kind == CONST:
                if len(parts) != 5:
                    raise ParseError("expected 'const <integer>'", lineno)
                try:
                    value = int(parts[4])
                except ValueError:
                    raise ParseError(f"bad constant {parts[4]!r}", lineno)
                gate = const_gate(field.reduce(value))
            elif kind in (ADD, MUL):
                try:
                    kids = [int(t) for t in parts[4:]]
                except ValueError:
                    raise ParseError("bad child id", lineno)
                if not kids:
                    raise ParseError(f"{kind} gate with no children", lineno)
                mapped = []
                for c in kids:
                    if c not in idmap:
                        raise ParseError(f"child {c} used before definition", lineno)
                    mapped.append(idmap[c])
                gate = Gate(kind, children=tuple(mapped))
            else:
                raise ParseError(f"unknown gate kind {kind!r}", lineno)
            idmap[gid] = len(gates)
            last_id = gid
            gates.append(gate)
        elif head == "output":
            if len(parts) != 2:
                raise ParseError("expected 'output <id>'", lineno)
            try:
                output_raw = int(parts[1])
            except ValueError:
                raise ParseError(f"bad output id {parts[1]!r}", lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if n is None:
        raise ParseError("missing 'nvars' line")
    if output_raw is None:
        raise ParseError("missing 'output' line")
    if output_raw not in idmap:
        raise ParseError(f"output gate {output_raw} not defined")
    return Circuit(n, gates, idmap[output_raw], field=field, name=name)


def load(path, field: Optional[FieldSpec] = None) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), field=field)


def save(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit.serialize())
