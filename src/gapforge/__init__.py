"""gapforge: threshold-graph gap reductions from error-correcting codes.

Build threshold graphs out of arbitrary codes, compose them with MaxCover
and SetCover instances to create hardness gaps, and verify every
completeness/soundness guarantee at desk scale with exact brute-force
oracles.
"""

from .codes import (
    Code,
    CollisionReport,
    DistanceReport,
    INFINITE,
    PerfectHashFamily,
    code_from_json,
    code_to_json,
    col_bounds,
    collision_number,
    encode,
    explicit_code,
    find_phf,
    phf_to_code,
    random_code,
    reed_solomon,
    relative_distance,
)
from .errors import GapforgeError
from .frontends import (
    Cnf3,
    DecidedNo,
    Graph,
    PartitionedGraph,
    clique_to_maxcover,
    colorful_lift,
    make_graph,
    make_partitioned_graph,
    parse_dimacs_cnf,
    parse_edge_list,
    sat_to_maxcover,
)
from .maxcover import (
    FULL,
    GapCertificate,
    MaxCoverInstance,
    PROJECTION,
    ProjectionProfile,
    VIOLATION,
    compose_gap,
    compose_gap_k2_bounded,
    gap_certificate,
    maxcover_from_json,
    maxcover_to_json,
    maxcover_value,
    projection_profile,
)
from .pipeline import PipelineReport, eth_pipeline, wone_pipeline
from .setcover import (
    ComposedSetCover,
    CoverReport,
    SetCoverInstance,
    compose_setcover,
    min_cover_size,
    setcover_certificate,
    setcover_from_json,
    setcover_to_json,
)
from .threshold import (
    ThresholdGraph,
    ThresholdVerdict,
    adjacent,
    build_threshold,
    common_neighbor,
    export_edges,
    verify_threshold,
)

__version__ = "0.1.0"
