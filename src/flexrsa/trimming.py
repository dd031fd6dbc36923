"""Reach-based preprocessing: useful (demand, link, color) triples.

For each demand d and candidate first color c, an edge survives iff it lies on
at least one walk from s_d to t_d of total length <= reach in the range graph
of colors {c .. c+w_d-1}; surviving edges contribute c to the per-link first
color set and the whole range to the useful triple set. Demands whose every
range graph leaves t_d out of reach are non re-routable, which alone proves
the instance infeasible. These sets are the paper's, and the `trim` command
prints them.

The same scan also trims arcs, one direction of a link, for the `trimmed`
MILP. An arc a->b keeps first color c iff b != s_d, a != t_d and
dist(s_d, a avoiding b) + length + dist(b, t_d avoiding a) <= reach in the
range graph of c. Every simple s-t path within reach passes this test on
each arc it traverses: its prefix up to a avoids b and its suffix from b
avoids a. Routings are simple paths (extraction certifies nothing else), so
dropping the other arcs loses no routing. A node-avoiding distance differs
from the plain one only when the avoided node lies on the plain shortest
path; only then is a Dijkstra run with that node's links inactive, once per
(root, node) and window.

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
        arc_first_colors: (demand_id, link_id, forward) -> first colors c for
            which the arc (u -> v if forward, else v -> u) lies on a
            reach-feasible simple s-t path of c's range graph, by the arc
            test above; a subset of the link's first colors.
    """

    useful: frozenset
    first_colors: Mapping
    valid_first_colors: Mapping
    non_reroutable: frozenset
    arc_first_colors: Mapping

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


def free_windows(avail: np.ndarray, width: int) -> np.ndarray:
    """For an (edges x colors) free-slot matrix such as `OpticalNetwork.free`:
    the (first colors x edges) bool array whose row c - 1 flags the edges
    with all `width` colors from first color c on free; no rows when
    `width` exceeds the colors. Callers convert the rows they read."""
    if width > avail.shape[1]:
        return np.zeros((0, avail.shape[0]), dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(avail, width, axis=1)
    return windows.all(axis=2).T


def _avoiding(adj, lengths, active, ends, root: int, dist, pred):
    """f(node, avoid): the distance from `root` to a reachable `node` in the
    window graph (the edges e with active[e]) without node `avoid`, neither
    the root nor `node`. dist and pred are that graph's shortest-path tree
    from the root, which gives the answer unless `avoid` lies on its path."""
    detours: dict = {}  # avoided node -> distances without it

    def distance(node: int, avoid: int) -> float:
        x = node
        while x != root:
            u, v = ends[pred[x]]
            x = u if v == x else v
            if x == avoid:
                break
        else:
            return dist[node]
        if avoid not in detours:
            cut = list(active)
            for e, _ in adj[avoid]:
                cut[e] = False
            detours[avoid] = dijkstra(adj, lengths, cut, root)[0]
        return detours[avoid][node]

    return distance


def _scan_window(adj, ends, lengths, active, s: int, t: int, reach: float):
    """One range graph (the edges e with active[e]): None if t is out of
    reach from s; else (edges on a walk within reach, forward arcs and
    backward arcs passing the arc test), as edge position lists."""
    dist_s, pred_s = dijkstra(adj, lengths, active, s)
    if dist_s[t] > reach:
        return None
    dist_t, pred_t = dijkstra(adj, lengths, active, t)
    from_s = _avoiding(adj, lengths, active, ends, s, dist_s, pred_s)
    to_t = _avoiding(adj, lengths, active, ends, t, dist_t, pred_t)
    walks, forward, backward = [], [], []
    for e, (u, v) in enumerate(ends):
        if not active[e]:
            continue
        ln = lengths[e]
        fwd = dist_s[u] + ln + dist_t[v] <= reach
        bwd = dist_s[v] + ln + dist_t[u] <= reach
        if not (fwd or bwd):
            continue
        walks.append(e)
        # the arc test; node-avoiding distances are never shorter
        for arcs, ok, a, b in ((forward, fwd, u, v), (backward, bwd, v, u)):
            if ok and b != s and a != t:
                head = from_s(a, b) + ln
                if head + dist_t[b] <= reach and head + to_t(b, a) <= reach:
                    arcs.append(e)
    return walks, forward, backward


def compute_useful_triples(instance: RestorationInstance) -> UsefulTripleSet:
    """Run the trimming scan for every demand of the instance. Windows with
    the same range graph share one scan, for demands with the same
    endpoints and reach too."""
    net = instance.network
    adj, ends, node_index = net.adj, net.ends, net.node_index
    lengths = [l.length for l in net.links]

    useful = set()
    first_colors: dict = {}
    arc_first: dict = {}
    valid_first: dict = {}
    non_reroutable = set()
    scans: dict = {}  # (s, t, reach, range graph) -> its _scan_window
    widths = {d.width for d in instance.demands}
    windows = {w: list(map(tuple, free_windows(net.free, w).tolist())) for w in widths}

    for demand in sorted(instance.demands, key=lambda d: d.id):
        s, t, reach = node_index[demand.s], node_index[demand.t], demand.reach
        valid = []
        # edge -> first colors it lies on: on a walk, as forward, as backward arc
        marks: tuple = tuple([[] for _ in ends] for _ in range(3))
        for c, active in enumerate(windows[demand.width], start=1):
            key = (s, t, reach, active)
            if key not in scans:
                scans[key] = _scan_window(adj, ends, lengths, active, s, t, reach)
            scan = scans[key]
            if scan is None:
                continue
            valid.append(c)
            for by_edge, edges in zip(marks, scan):
                for e in edges:
                    by_edge[e].append(c)
        valid_first[demand.id] = frozenset(valid)
        if not valid:
            non_reroutable.add(demand.id)
            continue
        for link, cols, fwd_cols, bwd_cols in zip(net.links, *marks):
            if not cols:
                continue
            first_colors[(demand.id, link.id)] = frozenset(cols)
            for c in cols:
                for cc in range(c, c + demand.width):
                    useful.add((demand.id, link.id, cc))
            for forward, arc_cols in ((True, fwd_cols), (False, bwd_cols)):
                if arc_cols:
                    arc_first[(demand.id, link.id, forward)] = frozenset(arc_cols)

    return UsefulTripleSet(
        useful=frozenset(useful),
        first_colors=first_colors,
        valid_first_colors=valid_first,
        non_reroutable=frozenset(non_reroutable),
        arc_first_colors=arc_first,
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
