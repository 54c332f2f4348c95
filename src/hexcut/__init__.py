"""Hexagonal grid graphs, their 3-cut complexes, and shelling verification."""

__version__ = "0.1.0"

from .cutcomplex import (
    CutComplex,
    FVector,
    enumerate_facets,
    f_vector,
    hex_facet_count,
    induced_p3_count,
    is_face,
)
from .errors import (
    ConstructionInvariantViolated,
    CountWithoutFailure,
    EmptySubset,
    HexCutError,
    IncompleteOrder,
    InvalidParams,
    NoTailFacets,
    OrdinalOutOfRange,
    ResourceGuard,
    TailFacetInvariantViolated,
    TailFacetNotFound,
    UnverifiedOrder,
    VertexOutOfRange,
)
from .hexgraph import (
    Graph,
    HexGraph,
    StructureReport,
    build_hex_graph,
    cycle_graph,
    girth,
    induced_p3_list,
    validate_structure,
)
from .homology import (
    BettiVector,
    betti_numbers,
    betti_numbers_from_facets,
    reduced_euler_closed,
    reduced_euler_exhaustive,
    reduced_euler_from_fvector,
    wedge_check,
)
from .shelling import (
    ExploreVerdict,
    ShellingOrder,
    SpanningReport,
    TailFacet,
    VerifyResult,
    check_spanning_structure,
    non_spanning_pair_table,
    non_spanning_witnesses,
    order_with_tail_reinserted,
    shelling_order,
    spanning_count_formula,
    spanning_facets,
    swap_set,
    tail_facet_count,
    tail_facets,
    verify_k_cut_order,
    verify_shelling,
    verify_tail_obstruction,
)
