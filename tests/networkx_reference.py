"""networkx as an outside reference for graph statistics.

networkx is a test-only dependency: the library never imports it.
"""

from __future__ import annotations

from repro.graphs.digraph import DiGraph


def networkx_digraph(graph: DiGraph):
    """*graph* as a :class:`networkx.DiGraph`, built from its edge arrays."""
    import networkx as nx

    out = nx.DiGraph()
    out.add_nodes_from(range(graph.num_nodes))
    src, dst = graph.edge_array()
    out.add_edges_from(zip(src.tolist(), dst.tolist()))
    return out
