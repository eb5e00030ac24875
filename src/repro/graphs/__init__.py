"""Graph substrate: CSR directed graphs, loaders, generators, datasets, stats."""

from repro.graphs.digraph import DiGraph
from repro.graphs.loaders import load_edge_list, save_edge_list, stream_edge_array
from repro.graphs.store import GraphRef, GraphStore
from repro.graphs.generators import (
    community_powerlaw,
    copying_model,
    erdos_renyi,
    karate_like_fixture,
    powerlaw_configuration,
)
from repro.graphs.datasets import DatasetSpec, hep, phy, wiki, get_dataset, DATASETS
from repro.graphs.stats import (
    GraphSummary,
    clustering_coefficient,
    degree_assortativity,
    degree_ccdf,
    effective_diameter,
    summarize,
)

__all__ = [
    "DiGraph",
    "GraphRef",
    "GraphStore",
    "load_edge_list",
    "save_edge_list",
    "stream_edge_array",
    "community_powerlaw",
    "copying_model",
    "erdos_renyi",
    "karate_like_fixture",
    "powerlaw_configuration",
    "DatasetSpec",
    "hep",
    "phy",
    "wiki",
    "get_dataset",
    "DATASETS",
    "GraphSummary",
    "degree_ccdf",
    "clustering_coefficient",
    "degree_assortativity",
    "effective_diameter",
    "summarize",
]
