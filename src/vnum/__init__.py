"""Exact v-numbers, regularity, and Cohen-Macaulay classification of edge ideals."""

from .clutters import Clutter, Graph, ZeroIdealError
from .classify import (
    CrossRouteError,
    InvariantReport,
    edge_criticality,
    full_report,
    has_linear_resolution,
    is_edge_critical,
    is_w2,
    symbolic_square_cm,
)
from .complexes import (
    Field,
    SimplicialComplex,
    independence_complex,
    is_cohen_macaulay,
    is_vertex_decomposable,
    regularity,
)
from .monomials import symbolic_power, v_number_algebraic

__all__ = [
    "Clutter",
    "CrossRouteError",
    "Field",
    "Graph",
    "InvariantReport",
    "SimplicialComplex",
    "ZeroIdealError",
    "edge_criticality",
    "full_report",
    "has_linear_resolution",
    "independence_complex",
    "is_cohen_macaulay",
    "is_edge_critical",
    "is_vertex_decomposable",
    "is_w2",
    "regularity",
    "symbolic_power",
    "symbolic_square_cm",
    "v_number_algebraic",
]
