"""Exact partition functions on multigraphs: evaluation, a tractability
classifier with checkable certificates, model/oracle comparisons, and
identity suites, all over exact rings (integers, rationals, polynomials)."""

from .connection import (
    ConnectionMatrix,
    GraphBasis,
    connection_matrix,
    connection_matrix_for,
    connection_report,
    enumerate_klabeled,
    is_psd,
    non_psd_witness,
    rank_bound_check,
)
from .errors import (
    ArityMismatch,
    AsymmetricTensor,
    BadParameter,
    BadPartition,
    BudgetExceeded,
    DegeneratePoint,
    DimensionMismatch,
    DuplicateNode,
    FactorizationFailure,
    FormatError,
    InputError,
    LabelMismatch,
    NegativeEntries,
    NotPowerMatrix,
    NotSimple,
    NotSymmetric,
    NotTractable,
    OracleFailure,
    ParallelEdges,
    PartfunError,
    PinningConflict,
    RingUnsupported,
    TooLarge,
    UnsupportedModulus,
)
from .evaluator import (
    DEFAULT_BUDGET,
    DiagonalWeights,
    EdgeModel,
    SymmetricTensor,
    WeightMatrix,
    config_weight,
    count_configs,
    current_budget,
    perfect_matching_model,
    potential_weights,
    z_brute,
    z_directed,
    z_edge_model,
    z_hypergraph,
)
from .fastpath import (
    BlockDecomposition,
    Classification,
    MatrixComponent,
    blocks,
    classify,
    classify01,
    underlying_graph,
    z_fast,
)
from .formats import (
    diagonal_to_json,
    dump_graph,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_diagonal,
    parse_graph,
    parse_matrix,
)
from .graph import (
    EMPTY_PINNING,
    DirectedGraph,
    Hypergraph,
    LabeledGraph,
    Multigraph,
    Pinning,
    VertexPartition,
    bipartition,
    components,
    glue,
    quotient,
    stretch,
    thicken,
)
from .models import (
    INVARIANT_KINDS,
    INVARIANTS,
    MODEL_NAMES,
    NamedModel,
    constant_diagonal_matrix,
    count_invariant,
    ising_polynomial,
    matrix_of,
    potts_partition,
    tutte_contraction_deletion,
    tutte_eval_brute,
    verify_tutte_identity,
)
from .moebius import (
    MobiusTable,
    enumerate_partitions,
    mobius,
    schrijver_condition,
    y_injective,
    zeta_check,
)
from .reductions import (
    TwinResolution,
    matrix_stretch,
    matrix_thicken,
    prime_transform,
    recover_counts,
    rename,
    twin_resolvent,
)
from .rings import INT, POLY, RAT, RINGS, Polynomial, Ring, X, exact_rank, vandermonde_solve
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"
