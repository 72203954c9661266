"""Solvers, generators, and oracles for the maximum common star forest subgraph problem."""

from .graph import (
    Embedding,
    Graph,
    Instance,
    StarForest,
    bfs_levels,
    max_matching,
    min_vertex_cover,
    parse_graph,
    parse_instance,
    serialize_graph,
    serialize_instance,
    verify_embedding,
)

__all__ = [
    "Embedding",
    "Graph",
    "Instance",
    "StarForest",
    "bfs_levels",
    "max_matching",
    "min_vertex_cover",
    "parse_graph",
    "parse_instance",
    "serialize_graph",
    "serialize_instance",
    "verify_embedding",
]
