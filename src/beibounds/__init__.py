"""Exact graph invariants for binomial edge ideals, an independent
regularity oracle, and corpus-scale verification of the bound chain
L <= reg <= eta <= c."""

from .errors import FieldDisagreementError, ParseError, ResourceLimitError
from .graphs import Graph, edge
from .graphio import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .invariants import (
    CliqueDisjointSet,
    eta,
    extend_clique_disjoint,
    in_common_clique,
    is_clique_disjoint,
    longest_induced_path,
    maximal_cliques,
)
from .compatibility import (
    BoundChainReport,
    CompatibilityReport,
    bound_chain,
    check_compatibility,
    eta_value,
    iv_lemma_failures,
    nonfree_vertex_failures,
    recursion_failures,
)
from .regularity import (
    RegularityResult,
    SquarefreeIdeal,
    homology_dims,
    initial_ideal,
    regularity_bei,
    regularity_squarefree,
)
from . import generators

__version__ = "0.1.0"

__all__ = [
    "BoundChainReport",
    "CliqueDisjointSet",
    "CompatibilityReport",
    "FieldDisagreementError",
    "Graph",
    "ParseError",
    "RegularityResult",
    "ResourceLimitError",
    "SquarefreeIdeal",
    "bound_chain",
    "check_compatibility",
    "decode_graph6",
    "edge",
    "encode_graph6",
    "eta",
    "eta_value",
    "extend_clique_disjoint",
    "format_edge_list",
    "generators",
    "homology_dims",
    "in_common_clique",
    "initial_ideal",
    "is_clique_disjoint",
    "iv_lemma_failures",
    "longest_induced_path",
    "maximal_cliques",
    "nonfree_vertex_failures",
    "parse_edge_list",
    "recursion_failures",
    "regularity_bei",
    "regularity_squarefree",
]
