"""Optimal experimental design search on unit networks.

Represents experiments (including blocked, row-column, and crossover layouts)
as networks of units, evaluates the pairwise treatment-variance criterion
under a linear network effects response model, and prunes design-space
searches to one representative per graph-automorphism orbit.
"""

from .network import (
    BlockRole,
    Network,
    NetworkError,
    ParseError,
    augment_blocks,
    augment_crossover,
    augment_row_column,
    format_edge_list,
    load_network_file,
    parse_edge_list,
    parse_network,
    serialize_network,
)
from .automorph import (
    AutomorphismGroup,
    GroupSizeLimitError,
    count_orbits_bruteforce,
    cycle_notation,
    find_automorphisms,
)
from .lnem import (
    Design,
    DesignEvaluator,
    ModelSpec,
    RANK_TOL,
    criterion_for_design,
    evaluate_criterion,
)
from .search import (
    SearchConfig,
    SearchReport,
    coordinate_descent,
    enumerate_designs,
    exhaustive_search,
    run_search,
    run_with_plugins,
)
from .examples import example_network, example_names, fixture_dir

__version__ = "0.1.0"

__all__ = [
    "AutomorphismGroup",
    "BlockRole",
    "Design",
    "DesignEvaluator",
    "GroupSizeLimitError",
    "ModelSpec",
    "Network",
    "NetworkError",
    "ParseError",
    "RANK_TOL",
    "SearchConfig",
    "SearchReport",
    "augment_blocks",
    "augment_crossover",
    "augment_row_column",
    "coordinate_descent",
    "count_orbits_bruteforce",
    "criterion_for_design",
    "cycle_notation",
    "enumerate_designs",
    "evaluate_criterion",
    "example_names",
    "example_network",
    "exhaustive_search",
    "find_automorphisms",
    "fixture_dir",
    "format_edge_list",
    "load_network_file",
    "parse_edge_list",
    "parse_network",
    "run_search",
    "run_with_plugins",
    "serialize_network",
]
