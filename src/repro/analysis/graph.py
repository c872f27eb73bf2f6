"""Gossip-graph connectivity analysis (section 8.4 "Scalability").

The paper argues its gossip fabric scales because (a) the random peer
graph has one giant connected component containing almost all users, and
(b) dissemination time grows with that component's diameter, which is
logarithmic in the number of users [45]; the few users that land outside
the giant component recover when peers reshuffle next round [22].

These claims are measurable properties of the generated topology; this
module measures them with :mod:`networkx` on graphs drawn by the
simulator's own peer-selection rule,
:func:`repro.network.gossip.draw_peers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MissingExtraError
from repro.network.gossip import draw_peers

try:
    import networkx as nx
except ModuleNotFoundError as error:
    raise MissingExtraError("networkx", "analysis", __name__) from error


def build_gossip_graph(num_nodes: int, peers_per_node: int,
                       rng: np.random.Generator) -> nx.Graph:
    """The gossip topology the simulator draws from ``rng``
    (:func:`~repro.network.gossip.draw_peers`), as an undirected graph."""
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(
        (node, peer) for node, peers in draw_peers(
            rng, list(range(num_nodes)), peers_per_node).items()
        for peer in peers)
    return graph


@dataclass(frozen=True)
class TopologyReport:
    """Connectivity metrics of one generated gossip graph."""

    num_nodes: int
    peers_per_node: int
    giant_component_fraction: float
    diameter: int            # of the giant component
    average_degree: float
    isolated_nodes: int


def analyze_topology(num_nodes: int, peers_per_node: int = 4,
                     seed: int = 0) -> TopologyReport:
    """Measure the section 8.4 claims for one graph instance."""
    rng = np.random.default_rng(seed)
    graph = build_gossip_graph(num_nodes, peers_per_node, rng)
    components = sorted(nx.connected_components(graph), key=len,
                        reverse=True)
    # Materialised: a subgraph *view* filters every adjacency lookup,
    # and the diameter is one BFS per node (40 s vs 6 s at n = 3,200).
    giant = graph.subgraph(components[0]).copy()
    return TopologyReport(
        num_nodes=num_nodes,
        peers_per_node=peers_per_node,
        giant_component_fraction=len(giant) / num_nodes,
        diameter=nx.diameter(giant),
        average_degree=2 * graph.number_of_edges() / num_nodes,
        isolated_nodes=sum(1 for _, degree in graph.degree()
                           if degree == 0),
    )


def diameter_scaling(sizes: list[int] | None = None,
                     peers_per_node: int = 4,
                     seed: int = 0) -> list[TopologyReport]:
    """Diameter vs network size — the logarithmic-growth claim [45]."""
    if sizes is None:
        sizes = [50, 200, 800, 3200]
    return [analyze_topology(n, peers_per_node, seed=seed + i)
            for i, n in enumerate(sizes)]
