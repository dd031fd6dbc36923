"""Reach-based preprocessing: useful (demand, link, color) triples.

For each demand d and candidate first color c, an edge survives iff it lies on
at least one walk from s_d to t_d of total length <= reach in the range graph
of colors {c .. c+w_d-1}; surviving edges contribute c to the per-link first
color set and the whole range to the useful triple set. Demands whose every
range graph leaves t_d out of reach are non re-routable, which alone proves
the instance infeasible. These sets are the paper's, and the `trim` command
prints them. The scan records the first colors only: the useful triple set
(`UsefulTripleSet.useful`) follows from them and the demands' widths, and is
derived only when read, since the MILP builder never reads it.

The same scan also trims arcs, one direction of a link, for the `trimmed`
MILP. An arc a->b keeps first color c iff b != s_d, a != t_d and
dist(s_d, a avoiding b) + length + dist(b, t_d avoiding a) <= reach in the
range graph of c. Every simple s-t path within reach passes this test on
each arc it traverses: its prefix up to a avoids b and its suffix from b
avoids a. Routings are simple paths (extraction certifies nothing else), so
dropping the other arcs loses no routing. A node-avoiding distance differs
from the plain one only when the avoided node lies on the plain shortest
path; only then is a Dijkstra run with that node's links inactive, once per
(root, node) and window graph.

One call scans each demand's windows once per reach region. The region of
a demand is the set of links that pass the walk test, against
reach * (1 + 1e-9), in the union of its width's window graphs. A link on a
walk within reach in one window graph passes there too, since no union
distance is longer, so a scan finds nothing outside the region. Scanning a
window graph therefore gives what scanning its restriction to the region
gives: each distance that can make a test pass runs over region links only,
and a test that fails still fails on the smaller graph. First colors whose
window graphs agree on the region form a group, and the group gets one scan,
on the window graph of its first color; each scanned link takes the whole
group's colors at once. The slack keeps a link whose walk sums to the reach
in another order inside the region. Shortest-path trees and node-avoiding
detours are computed once per (root, window graph) and shared by every
demand of the call, and demands with the same endpoints and reach share
scans.

The scan reads the network's index form (`OpticalNetwork.adj`, `ends`,
`node_index`, and the free-slot matrix `free`) and builds no graph or
spectrum matrix of its own; only numpy is needed. The module's Dijkstra is
the package's only shortest-path search by length; the loader's first-fit
router (:mod:`flexrsa.testgen`) uses it too (the hop-layered search of
:mod:`flexrsa.heuristic` answers another question, fewest hops within a
reach), and `free_windows` is the one rule for which links can carry a
color window (the MILP builder's notrim first colors and the hop bound's
window graphs come from it as well).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .model import RestorationInstance

INF = float("inf")


@dataclass(frozen=True)
class UsefulTripleSet:
    """Trimming output.

    Attributes:
        first_colors: (demand_id, link_id) -> colors that can start the
            demand's range on that link (C_dl). Links with no entry have none.
        valid_first_colors: demand_id -> colors c whose range graph contains a
            reach-feasible s-t path.
        non_reroutable: demand ids with no valid first color at all.
        arc_first_colors: (demand_id, link_id, forward) -> first colors c for
            which the arc (u -> v if forward, else v -> u) lies on a
            reach-feasible simple s-t path of c's range graph, by the arc
            test above; a subset of the link's first colors.
        widths: demand_id -> width.

    The undirected useful triples (`useful`) are derived from the first
    colors and the widths only when read.
    """

    first_colors: Mapping
    valid_first_colors: Mapping
    non_reroutable: frozenset
    arc_first_colors: Mapping
    widths: Mapping

    @cached_property
    def useful(self) -> frozenset:
        """Undirected useful triples (demand_id, link_id, color): each color
        of every window that starts at one of a link's first colors."""
        return frozenset(
            (d, l, c + i)
            for (d, l), colors in self.first_colors.items()
            for c in colors
            for i in range(self.widths[d])
        )

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


class _Trees:
    """Shortest-path trees and node-avoiding distances over numbered window
    graphs (graphs[g]: active flags per edge), each computed once per
    (root, window graph) and shared by every scan of one call."""

    def __init__(self, adj, ends, lengths, graphs) -> None:
        self.adj, self.ends, self.lengths, self.graphs = adj, ends, lengths, graphs
        self.trees: dict = {}  # (root, g) -> (dist, pred)
        self.detours: dict = {}  # (root, g, avoided node) -> dist

    def tree(self, root: int, g: int):
        key = (root, g)
        if key not in self.trees:
            self.trees[key] = dijkstra(self.adj, self.lengths, self.graphs[g], root)
        return self.trees[key]

    def avoiding(self, root: int, g: int, node: int, avoid: int) -> float:
        """The distance from `root` to a reachable `node` in window graph g
        without node `avoid`, neither the root nor `node`. The tree, built
        already, gives it unless `avoid` lies on the tree's path."""
        dist, pred = self.trees[root, g]
        x = node
        while x != root:
            u, v = self.ends[pred[x]]
            x = u if v == x else v
            if x == avoid:
                break
        else:
            return dist[node]
        key = (root, g, avoid)
        if key not in self.detours:
            cut = list(self.graphs[g])
            for e, _ in self.adj[avoid]:
                cut[e] = False
            self.detours[key] = dijkstra(self.adj, self.lengths, cut, root)[0]
        return self.detours[key][node]


def _scan_window(trees: _Trees, g: int, s: int, t: int, reach: float, region):
    """Window graph g: None if t is out of reach from s; else (edges on a walk
    within reach, forward arcs and backward arcs passing the arc test), as
    edge position lists. `region` lists, ascending, edge positions that hold
    every edge of g on a walk within reach; the others are not tested."""
    dist_s = trees.tree(s, g)[0]
    if dist_s[t] > reach:
        return None
    dist_t = trees.tree(t, g)[0]
    active, ends, lengths = trees.graphs[g], trees.ends, trees.lengths
    walks, forward, backward = [], [], []
    for e in region:
        if not active[e]:
            continue
        u, v = ends[e]
        ln = lengths[e]
        fwd = dist_s[u] + ln + dist_t[v] <= reach
        bwd = dist_s[v] + ln + dist_t[u] <= reach
        if not (fwd or bwd):
            continue
        walks.append(e)
        # the arc test; a node-avoiding distance is never the shorter, so
        # passing it implies head + dist_t[b] <= reach
        for arcs, ok, a, b in ((forward, fwd, u, v), (backward, bwd, v, u)):
            if ok and b != s and a != t:
                head = trees.avoiding(s, g, a, b) + ln
                if head + trees.avoiding(t, g, b, a) <= reach:
                    arcs.append(e)
    return walks, forward, backward


def compute_useful_triples(instance: RestorationInstance) -> UsefulTripleSet:
    """Run the trimming scan for every demand of the instance: one scan per
    group of first colors whose window graphs agree on the demand's reach
    region, for demands with the same endpoints and reach too."""
    net = instance.network
    adj, ends, node_index = net.adj, net.ends, net.node_index
    lengths = [l.length for l in net.links]

    first_colors: dict = {}
    arc_first: dict = {}
    valid_first: dict = {}
    non_reroutable = set()
    scans: dict = {}  # (s, t, reach, window graph) -> its _scan_window

    # number the distinct window graphs; masks[g] has bit e iff edge e is in g
    graphs: list = []
    masks: list = []
    numbers: dict = {}

    def number(active: tuple) -> int:
        if active not in numbers:
            numbers[active] = len(graphs)
            graphs.append(active)
            masks.append(sum(1 << e for e, on in enumerate(active) if on))
        return numbers[active]

    firsts: dict = {}  # width -> window graph per first color
    union: dict = {}  # width -> the union of its window graphs
    for w in sorted({d.width for d in instance.demands}):
        rows = free_windows(net.free, w)
        firsts[w] = [number(active) for active in map(tuple, rows.tolist())]
        union[w] = number(tuple(rows.any(axis=0).tolist()))
    trees = _Trees(adj, ends, lengths, graphs)

    for demand in sorted(instance.demands, key=lambda d: d.id):
        s, t, reach, w = node_index[demand.s], node_index[demand.t], demand.reach, demand.width
        # the region: links on a walk within reach in the union graph, where
        # no distance is longer; the slack covers sums taken in another order
        u_graph = union[w]
        dist_s, dist_t = trees.tree(s, u_graph)[0], trees.tree(t, u_graph)[0]
        bound = reach * (1 + 1e-9)
        region = [
            e for e, (u, v) in enumerate(ends)
            if graphs[u_graph][e] and (
                dist_s[u] + lengths[e] + dist_t[v] <= bound
                or dist_s[v] + lengths[e] + dist_t[u] <= bound
            )
        ]
        # window graphs equal on the region scan alike: one scan per group
        region_mask = sum(1 << e for e in region)
        groups: dict = {}  # restricted window graph -> (first window's graph, colors)
        for c, g in enumerate(firsts[w], start=1):
            groups.setdefault(masks[g] & region_mask, (g, []))[1].append(c)
        valid = []
        # edge -> first colors it lies on: on a walk, as forward, as backward arc
        marks: tuple = tuple([[] for _ in ends] for _ in range(3))
        for g, cols in groups.values():
            key = (s, t, reach, g)
            if key not in scans:
                scans[key] = _scan_window(trees, g, s, t, reach, region)
            scan = scans[key]
            if scan is None:
                continue
            valid += cols
            for by_edge, edges in zip(marks, scan):
                for e in edges:
                    by_edge[e] += cols
        valid_first[demand.id] = frozenset(valid)
        if not valid:
            non_reroutable.add(demand.id)
            continue
        for e in region:
            cols, fwd_cols, bwd_cols = (by_edge[e] for by_edge in marks)
            if not cols:
                continue
            link_id = net.links[e].id
            first_colors[(demand.id, link_id)] = frozenset(cols)
            for forward, arc_cols in ((True, fwd_cols), (False, bwd_cols)):
                if arc_cols:
                    arc_first[(demand.id, link_id, forward)] = frozenset(arc_cols)

    return UsefulTripleSet(
        first_colors=first_colors,
        valid_first_colors=valid_first,
        non_reroutable=frozenset(non_reroutable),
        arc_first_colors=arc_first,
        widths={d.id: d.width for d in instance.demands},
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
