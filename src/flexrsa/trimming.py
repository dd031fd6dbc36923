"""Reach-based preprocessing: useful (demand, link, color) triples.

For each demand d and candidate first color c, an edge survives iff it lies on
at least one walk from s_d to t_d of total length <= reach in the range graph
of colors {c .. c+w_d-1}; surviving edges contribute c to the per-link first
color set and the whole range to the useful triple set. Demands whose every
range graph leaves t_d out of reach are non re-routable, which alone proves
the instance infeasible.

The module's Dijkstra is the package's only shortest-path search; the loader's
first-fit router (:mod:`flexrsa.testgen`) uses it too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import OpticalNetwork, RestorationInstance

INF = float("inf")


@dataclass(frozen=True)
class UsefulTripleSet:
    """Trimming output.

    Attributes:
        useful: Undirected useful triples (demand_id, link_id, color).
        first_colors: (demand_id, link_id) -> colors that can start the
            demand's range on that link (C_dl). Links with no entry have none.
        valid_first_colors: demand_id -> colors c whose range graph contains a
            reach-feasible s-t path.
        non_reroutable: demand ids with no valid first color at all.
    """

    useful: frozenset
    first_colors: Mapping
    valid_first_colors: Mapping
    non_reroutable: frozenset

    def first_colors_of(self, demand_id: int, link_id: int) -> frozenset:
        return self.first_colors.get((demand_id, link_id), frozenset())

    def useful_colors_by_link(self, demand_id: int) -> dict:
        """demand's useful colors grouped per link id."""
        out: dict[int, set[int]] = {}
        for d, l, c in self.useful:
            if d == demand_id:
                out.setdefault(l, set()).add(c)
        return out


def adjacency(network: OpticalNetwork) -> list:
    """Per node index (position in `network.nodes`): the (edge index, other
    node index) pairs of its links, in link-id order. Edge e is network.links[e]."""
    node_index = {n: i for i, n in enumerate(network.nodes)}
    adj: list = [[] for _ in network.nodes]
    for e, link in enumerate(network.links):
        u, v = node_index[link.u], node_index[link.v]
        adj[u].append((e, v))
        adj[v].append((e, u))
    return adj


def dijkstra(adj: list, lengths: list, active: list, root: int):
    """Shortest distances from `root` over the edges e with active[e].

    Returns (dist, pred): dist[n] is INF for unreachable nodes; pred[n] is the
    edge by which the shortest path enters n (-1 for the root and unreachable
    nodes). Distances sum edge lengths in walk order from the root, and a
    node's distance changes only on a strictly shorter one, so among equal
    paths the first found (lowest node index off the heap, then lowest edge
    index) wins.
    """
    dist = [INF] * len(adj)
    pred = [-1] * len(adj)
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for e, other in adj[node]:
            if not active[e]:
                continue
            nd = d + lengths[e]
            if nd < dist[other]:
                dist[other] = nd
                pred[other] = e
                heapq.heappush(heap, (nd, other))
    return dist, pred


def free_windows(avail: np.ndarray, width: int) -> list:
    """For an (edges x colors) availability matrix: list indexed by first
    color - 1 of per-edge flags, True iff the edge has all `width` colors
    from that first color on free."""
    if width > avail.shape[1]:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(avail, width, axis=1)
    return windows.all(axis=2).T.tolist()


def availability(network: OpticalNetwork) -> np.ndarray:
    """(edges x colors) bool matrix: [e, c - 1] iff color c is free on links[e]."""
    avail = np.zeros((len(network.links), network.slot_count), dtype=bool)
    for e, link in enumerate(network.links):
        avail[e, [c - 1 for c in network.available[link.id]]] = True
    return avail


def compute_useful_triples(instance: RestorationInstance) -> UsefulTripleSet:
    """Run the trimming scan for every demand of the instance."""
    net = instance.network
    node_index = {n: i for i, n in enumerate(net.nodes)}
    adj = adjacency(net)
    lengths = [l.length for l in net.links]
    ends = [(node_index[l.u], node_index[l.v]) for l in net.links]
    avail = availability(net)

    useful = set()
    first_colors: dict = {}
    valid_first: dict = {}
    non_reroutable = set()

    for demand in sorted(instance.demands, key=lambda d: d.id):
        s, t, reach = node_index[demand.s], node_index[demand.t], demand.reach
        valid = []
        marks: list = [[] for _ in ends]  # edge -> first colors it lies on
        for c, active in enumerate(free_windows(avail, demand.width), start=1):
            dist_s, _ = dijkstra(adj, lengths, active, s)
            if dist_s[t] > reach:
                continue
            valid.append(c)
            dist_t, _ = dijkstra(adj, lengths, active, t)
            for e, (u, v) in enumerate(ends):
                if not active[e]:
                    continue
                ln = lengths[e]
                if dist_s[u] + ln + dist_t[v] <= reach or dist_s[v] + ln + dist_t[u] <= reach:
                    marks[e].append(c)
        valid_first[demand.id] = frozenset(valid)
        if not valid:
            non_reroutable.add(demand.id)
            continue
        for link, cols in zip(net.links, marks):
            if not cols:
                continue
            first_colors[(demand.id, link.id)] = frozenset(cols)
            for c in cols:
                for cc in range(c, c + demand.width):
                    useful.add((demand.id, link.id, cc))

    return UsefulTripleSet(
        useful=frozenset(useful),
        first_colors=first_colors,
        valid_first_colors=valid_first,
        non_reroutable=frozenset(non_reroutable),
    )


def triples_to_dict(triples: UsefulTripleSet, instance: RestorationInstance) -> dict:
    """JSON form emitted by the `trim` CLI subcommand."""
    net = instance.network
    total = sum(len(net.available[l.id]) for l in net.links) * len(instance.demands)
    return {
        "useful": [list(t) for t in sorted(triples.useful)],
        "first_colors": {
            f"{d}:{l}": sorted(cs)
            for (d, l), cs in sorted(triples.first_colors.items())
        },
        "valid_first_colors": {
            str(d): sorted(cs) for d, cs in sorted(triples.valid_first_colors.items())
        },
        "non_reroutable": sorted(triples.non_reroutable),
        "stats": {
            "triples_total": total,
            "triples_useful": len(triples.useful),
        },
    }
