"""circflat: depth reduction for syntactically multilinear and multi-k-ic
algebraic circuits over prime fields.

The pipeline: validate and normalize a circuit (binary fan-in,
right-heavy products), balance it via gate-quotient frontier
decompositions (product fan-in <= 5, factors at half potential), then
collapse it to product depth Delta as a layered sum-of-products form.
Every transformation is checked against an exact sparse-polynomial oracle
or randomized identity testing.
"""

from .analysis import VarTable, check_multi_k_ic, compute_var, inferred_k
from .backends import active_backend
from .balance import BalanceReport, BalanceScan, balance, check_balanced
from .circuit import (
    Circuit,
    Diagnostic,
    Gate,
    add_gate,
    const_gate,
    input_gate,
    load,
    mul_gate,
    parse,
    save,
    validate,
)
from .depth_reduce import (
    ExpansionReport,
    LayeredCircuit,
    Schedule,
    Summand,
    choose_t,
    extract_subcircuit,
    reduce_depth4,
    reduce_depth_delta,
)
from .errors import (
    CircflatError,
    ExpansionTooLarge,
    IncompatibleArity,
    InvalidCircuit,
    InvalidParams,
    InvalidSpec,
    NotBalanced,
    ParseError,
    PreconditionViolated,
    TooManyProofTrees,
)
from .expand import brute_force_expand, expand_gate, expansion_bound
from .field import DEFAULT_PRIME, MERSENNE61, FieldSpec, is_prime
from .generators import (
    GeneratorSpec,
    full_multilinear,
    generate,
    product_of_sums,
    product_of_sums_power,
    random_multi_k_ic,
    random_multilinear,
)
from .normalize import make_right_heavy, normalize_fanin2, normalized
from .quotient import (
    DecompositionCheck,
    FrontierSet,
    QuotientTable,
    check_decomposition,
    decomposition_terms,
    eval_quotient,
    frontier_edges,
    quotient_table,
)
from .sparse import SparsePolynomial
from .verify import (
    BoundReport,
    EquivResult,
    StructuralReport,
    check_bounds,
    count_proof_trees,
    enumerate_proof_trees,
    proof_tree_sum,
    random_equiv,
    structural_report,
)

__version__ = "0.1.0"
