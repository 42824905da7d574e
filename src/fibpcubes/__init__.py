"""Exact-arithmetic engine for Fibonacci p-cubes.

Builds the gap-constrained hypercube subgraphs explicitly, computes their
invariants both by closed formula and by brute-force oracle, and checks
every generating-function identity by the recurrence of its rational series.

The public names below are imported from their submodule on first access
(PEP 562), so importing the package, or running one command, loads only
the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "cubes": "InducedCube count_cubes_at_distance cube_census enumerate_cubes",
        "errors": "SizeLimitError",
        "graph": "PCubeGraph bfs_distances build direction_edge_count "
        "direction_edge_count_closed direction_edge_counts_closed graph_json "
        "to_dot",
        "invariants": "ImbalanceRow imbalance_census irregularity_closed "
        "irregularity_oracle left_pairs lift_edge mostar_closed mostar_oracle "
        "project_pair right_pairs wiener_closed wiener_oracle",
        "polynomials": "BivarPoly Polynomial cube_count_closed cube_poly_closed "
        "dist_cube_count_closed dist_cube_poly_closed substitute weight_poly",
        "sequences": "binomial kfold_convolution pfib total_edges_closed",
        "series": "DEFAULT_ORDER TruncatedSeries gf_terms pfib_series "
        "rational_gf verify_cube_count_gf verify_weight_gf_expansion",
        "strings": "PString count_by_weight enumerate_pstrings is_pvalid "
        "max_weight weight_census",
    }.items()
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
