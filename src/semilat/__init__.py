"""Commuting idempotent families in finite full transformation semigroups.

Construction and verification of subsemilattices of T(n), the extremal
collapse families, the n -> n-1 reduction, and exhaustive enumeration of all
maximal subsemilattices for small n.
"""

from .transform import (
    MAX_POINTS,
    Transformation,
    commutes,
    commuting_masks,
    compose,
    constant,
    enumerate_idempotents,
    identity,
    is_idempotent,
    points,
)
from .semilattice import (
    BooleanLatticeResult,
    MaximalityResult,
    PosetRelation,
    Semilattice,
    SemilatticeError,
    Violation,
    collapse_map,
    collapse_semilattice,
    find_violation,
    is_boolean_lattice,
    is_injective_except_sink,
    is_maximal,
    natural_order,
    semilattice_of_size,
    transitivity_order,
    verify_semilattice,
)
from .reduction import (
    Anchor,
    ContractViolation,
    EmbeddingHypothesisError,
    ReductionResult,
    collapse_embedding,
    find_anchor,
    is_valid_anchor,
    redirect,
    reduce_semilattice,
)
from .enumeration import (
    DEFAULT_CAP,
    HARD_CAP,
    ORACLE_CAP,
    CapExceeded,
    CommutingGraph,
    SpectrumEntry,
    SpectrumReport,
    brute_force_subsemilattices,
    build_commuting_graph,
    enumerate_maximal_semilattices,
    extremal_clauses,
    max_size_semilattices,
    spectrum,
)

__version__ = "0.1.0"
