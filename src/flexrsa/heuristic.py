"""Answers without a solver: fewest-hop first-fit against the hop lower bound.

Every routing of a demand costs its width times the hops of its path, and no
path of demand d has fewer hops than h_d, the fewest hops of any s-t path
within reach in one of d's window graphs (the links with `width` colors free
from one first color on: `trimming.free_windows` over `OpticalNetwork.adj`).
So the sum of width_d * h_d is a lower bound on the slot count of every
routing that the verifier accepts (`model.path_violations`), whichever MILP
variant found it.

`hop_bound_routing` places the demands widest first, then by id. Each goes
on a path over its trimmed arcs (`UsefulTripleSet.arc_first_colors`) with
the fewest hops of any first color whose window is still free of earlier
placements on every link of the path, at the lowest such first color. The
first demand with no such path ends the attempt. Only once every demand is
placed is the bound checked: a demand with a path of fewer hops than its
own, within reach in any of its window graphs, ends the attempt too. A
routing that passes meets the bound, so it is optimal without branch and
bound; in maxsubset mode it restores every demand, at the least cost.

The bound is taken over whole window graphs, never over trimmed arcs. The
arc test sums a path's length in another order than the verifier and can
drop an arc of a path the verifier accepts, so a bound over trimmed arcs
could overstate the optimum of `notrim` and `base`. A demand's path is
first compared with the fewest hops in the union of its width's window
graphs, which holds each of them; only when the union allows fewer are the
distinct window graphs searched one by one.

Fewest hops within a reach is a resource-constrained path problem: the
shortest path by length can have more hops than a longer path within reach,
so a Dijkstra over length does not give it, and the search here is not a
second Dijkstra. It is hop-layered: layer k holds, per node, the shortest
length of a walk of exactly k hops from the source, summed in walk order as
`model.path_violations` sums a path, and a node beyond the reach is dropped.
The first layer that holds the target gives the fewest hops, and its walk is
a simple path: a walk with a repeated node has a shortcut with fewer hops
that is no longer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import RestorationInstance, RoutedPath
from .trimming import UsefulTripleSet, free_windows


def _fewest_hops(out, lengths: list, s: int, t: int, reach: float, most: int):
    """The link positions, in walk order, of a fewest-hop walk from s to t of
    at most `most` hops within reach; None if there is none. out[node] lists
    the (link position, head) pairs of the arcs leaving that node position."""
    layers = [{s: (0.0, -1, -1)}]  # per layer: node -> (length, link in, node before)
    while len(layers) <= most:
        layer: dict = {}
        for u, (d, _, _) in layers[-1].items():
            for e, v in out[u]:
                nd = d + lengths[e]
                if nd <= reach and (v not in layer or nd < layer[v][0]):
                    layer[v] = (nd, e, u)
        if not layer:
            return None
        layers.append(layer)
        if t in layer:
            walk, node = [], t
            for step in reversed(layers[1:]):
                _, e, node = step[node]
                walk.append(e)
            return walk[::-1]
    return None


def hop_bound_routing(
    instance: RestorationInstance, triples: UsefulTripleSet
) -> Optional[dict]:
    """Demand id -> RoutedPath for every demand of the instance, each on a
    path with its fewest hops within reach, so that the slot count meets the
    hop lower bound; None when first-fit leaves a demand unplaced or off
    that bound. The triples are the instance's trimming output."""
    net = instance.network
    n = len(net.nodes)
    lengths = [l.length for l in net.links]
    used = [0] * len(net.links)  # per link position: bit c - 1 iff color c is placed
    unions: dict = {}  # width -> the union of its window graphs, as out lists
    windows: dict = {}  # width -> its distinct window graphs, as out lists
    floors: dict = {}  # (s, t, reach, width) -> fewest hops in the union graph
    placed = []  # (demand, s, t, walk, first color)

    def out_lists(active) -> list:
        return [[(e, v) for e, v in net.adj[u] if active[e]] for u in range(n)]

    for d in sorted(instance.demands, key=lambda d: (-d.width, d.id)):
        s, t = net.node_index[d.s], net.node_index[d.t]
        if d.width not in unions:
            unions[d.width] = out_lists(free_windows(net.free, d.width).any(axis=0))
        key = (s, t, d.reach, d.width)
        if key not in floors:
            walk = _fewest_hops(unions[d.width], lengths, s, t, d.reach, n - 1)
            floors[key] = n if walk is None else len(walk)
        by_color: dict = {}  # first color -> the demand's trimmed arcs
        for e, (u, v) in enumerate(net.ends):
            for forward, tail, head in ((True, u, v), (False, v, u)):
                arc = (d.id, net.links[e].id, forward)
                for c in triples.arc_first_colors.get(arc, ()):
                    by_color.setdefault(c, []).append((e, tail, head))
        block = (1 << d.width) - 1
        best = None
        most = n - 1
        for c in sorted(by_color):
            window = block << (c - 1)
            out: list = [[] for _ in range(n)]
            for e, tail, head in by_color[c]:
                if not used[e] & window:
                    out[tail].append((e, head))
            walk = _fewest_hops(out, lengths, s, t, d.reach, most)
            if walk is not None:
                best, most = (walk, c), len(walk) - 1
                if len(walk) == floors[key]:
                    break
        if best is None:
            return None
        walk, c = best
        for e in walk:
            used[e] |= block << (c - 1)
        placed.append((d, s, t, walk, c))

    for d, s, t, walk, c in placed:
        if len(walk) > floors[s, t, d.reach, d.width]:
            if d.width not in windows:
                rows = np.unique(free_windows(net.free, d.width), axis=0)
                windows[d.width] = [out_lists(active) for active in rows]
            for out in windows[d.width]:
                if _fewest_hops(out, lengths, s, t, d.reach, len(walk) - 1) is not None:
                    return None
    return {
        d.id: RoutedPath(tuple(net.links[e] for e in walk), c, d.width)
        for d, s, t, walk, c in placed
    }
