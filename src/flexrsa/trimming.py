"""Reach-based preprocessing: useful (demand, link, color) triples.

For each demand d and candidate first color c, an edge survives iff it lies on
at least one walk from s_d to t_d of total length <= reach in the range graph
of colors {c .. c+w_d-1}; surviving edges contribute c to the per-link first
color set and the whole range to the useful triple set. Demands whose every
range graph leaves t_d out of reach are non re-routable, which alone proves
the instance infeasible.

The scan reads the network's index form (`OpticalNetwork.adj`, `ends`,
`node_index`, and the free-slot matrix `free`) and builds no graph or
spectrum matrix of its own. The module's Dijkstra is the package's only
shortest-path search; the loader's first-fit router (:mod:`flexrsa.testgen`)
uses it too, and `free_windows` is the one rule for which links can carry a
color window (the MILP builder's notrim first colors come from it as well).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import RestorationInstance

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


def dijkstra(adj, lengths: list, active: list, root: int):
    """Shortest distances from `root` over the edges e with active[e].

    adj is a network's `OpticalNetwork.adj`: per node position, its (edge
    position, other node position) pairs; edge e is network.links[e].

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
    """For an (edges x colors) free-slot matrix such as `OpticalNetwork.free`:
    list indexed by first color - 1 of per-edge flags, True iff the edge has
    all `width` colors from that first color on free."""
    if width > avail.shape[1]:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(avail, width, axis=1)
    return windows.all(axis=2).T.tolist()


def compute_useful_triples(instance: RestorationInstance) -> UsefulTripleSet:
    """Run the trimming scan for every demand of the instance."""
    net = instance.network
    adj, ends, node_index = net.adj, net.ends, net.node_index
    lengths = [l.length for l in net.links]

    useful = set()
    first_colors: dict = {}
    valid_first: dict = {}
    non_reroutable = set()

    for demand in sorted(instance.demands, key=lambda d: d.id):
        s, t, reach = node_index[demand.s], node_index[demand.t], demand.reach
        valid = []
        marks: list = [[] for _ in ends]  # edge -> first colors it lies on
        for c, active in enumerate(free_windows(net.free, demand.width), start=1):
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
    total = int(net.free.sum()) * len(instance.demands)
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
