"""Approximation algorithms for directed minimum-degree spanning trees.

Two purely combinatorial solvers over a shared in-tree structure: a gated
improvement-path local search and a layered augmenting-path search.  Both
certify their stalls with independently verifiable blocking-set lower
bounds; a small exact oracle provides ground truth on desk-scale
instances.
"""

from .augmenting import (
    AugmentingPath,
    LayeredState,
    apply_augmenting_path,
    run_augmenting_search,
    validate_augmenting_path,
)
from .certificate import (
    BlockingCertificate,
    CertificateError,
    EmptyWitness,
    extract_certificate,
    verify_blocking,
)
from .config import Config
from .generators import gen_blocker, gen_complete, gen_instar, gen_path, gen_random
from .graph import (
    Digraph,
    GraphFormatError,
    load_graph,
    parse_graph,
    save_graph,
    serialize_graph,
)
from .local_search import (
    AdjustDelta,
    ImprovementPath,
    apply_improvement_path,
    choose_k,
    find_improvement_path,
    psi,
    run_local_search,
)
from .oracle import exact_min_degree
from .report import SolveReport
from .search import power_table, rank_table
from .tree import InTree, build_initial_tree, tree_from_parents

__version__ = "0.1.0"

__all__ = [
    "AdjustDelta",
    "AugmentingPath",
    "BlockingCertificate",
    "CertificateError",
    "Config",
    "Digraph",
    "EmptyWitness",
    "GraphFormatError",
    "ImprovementPath",
    "InTree",
    "LayeredState",
    "SolveReport",
    "apply_augmenting_path",
    "apply_improvement_path",
    "build_initial_tree",
    "choose_k",
    "exact_min_degree",
    "extract_certificate",
    "find_improvement_path",
    "gen_blocker",
    "gen_complete",
    "gen_instar",
    "gen_path",
    "gen_random",
    "load_graph",
    "parse_graph",
    "power_table",
    "psi",
    "rank_table",
    "run_augmenting_search",
    "run_local_search",
    "save_graph",
    "serialize_graph",
    "tree_from_parents",
    "validate_augmenting_path",
    "verify_blocking",
]
