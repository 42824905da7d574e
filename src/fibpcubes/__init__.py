"""Exact-arithmetic engine for Fibonacci p-cubes.

Builds the gap-constrained hypercube subgraphs explicitly, computes their
invariants both by closed formula and by brute-force oracle, and checks
every generating-function identity through truncated formal power series.
"""

from .cubes import InducedCube, count_cubes_at_distance, cube_census, enumerate_cubes
from .errors import SizeLimitError
from .graph import (
    PCubeGraph,
    bfs_distances,
    build,
    direction_edge_count,
    direction_edge_count_closed,
    direction_edge_counts_closed,
    graph_json,
    to_dot,
    total_edges_closed,
)
from .invariants import (
    ImbalanceRow,
    imbalance_census,
    irregularity_closed,
    irregularity_oracle,
    left_pairs,
    lift_edge,
    mostar_closed,
    mostar_oracle,
    project_pair,
    right_pairs,
    wiener_closed,
    wiener_oracle,
)
from .polynomials import (
    BivarPoly,
    Polynomial,
    cube_count_closed,
    cube_poly_closed,
    dist_cube_count_closed,
    dist_cube_poly_closed,
    substitute,
    weight_poly,
)
from .sequences import PFibTable, binomial, kfold_convolution, pfib
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    pfib_series,
    rational_gf,
    verify_cube_count_gf,
    verify_weight_gf_expansion,
)
from .strings import (
    PString,
    count_by_weight,
    enumerate_pstrings,
    is_pvalid,
    max_weight,
    weight_census,
)

__version__ = "0.1.0"
