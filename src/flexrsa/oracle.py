"""Exhaustive ground-truth solver for small instances.

Everything here is deliberately independent of the production code paths:
shortest distances use Bellman-Ford (not Dijkstra), usefulness is established
by enumerating walks (not by the range-graph marking conditions), and joint
feasibility by backtracking over explicit path/color candidates (not MILP).

Usefulness is defined over standard multigraph walks (node and link revisits
allowed): an occupation (d, l, c) is useful iff some walk from s_d to t_d of
total length <= reach traverses l in a range graph whose colors contain c.
Walk enumeration requires strictly positive link lengths; the guard refuses
zero-length links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    Demand,
    Link,
    OpticalNetwork,
    RestorationInstance,
    RoutedPath,
)
from .trimming import UsefulTripleSet

INF = float("inf")


class OracleGuardError(RuntimeError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleGuard:
    max_nodes: int = 8
    max_colors: int = 6
    max_demands: int = 4

    def check(self, instance: RestorationInstance, walks: bool = False) -> None:
        net = instance.network
        if len(net.nodes) > self.max_nodes:
            raise OracleGuardError(f"|V|={len(net.nodes)} exceeds {self.max_nodes}")
        if net.slot_count > self.max_colors:
            raise OracleGuardError(f"C={net.slot_count} exceeds {self.max_colors}")
        if len(instance.demands) > self.max_demands:
            raise OracleGuardError(
                f"|D|={len(instance.demands)} exceeds {self.max_demands}"
            )
        if walks and any(l.length <= 0 for l in net.links):
            raise OracleGuardError("walk enumeration requires positive link lengths")


def _neighbors(links) -> dict:
    """Node id -> its (link, other node id) pairs, in the order of `links`.
    The oracle's own adjacency, kept apart from `OpticalNetwork.adj`."""
    adj: dict = {}
    for l in links:
        adj.setdefault(l.u, []).append((l, l.v))
        adj.setdefault(l.v, []).append((l, l.u))
    return adj


def bellman_ford_distances(edges, nodes, root) -> dict:
    """Shortest distances from root over undirected weighted (u, v, length) edges."""
    dist = {n: INF for n in nodes}
    dist[root] = 0.0
    for _ in range(max(len(dist) - 1, 0)):
        changed = False
        for u, v, ln in edges:
            if dist[u] + ln < dist[v]:
                dist[v] = dist[u] + ln
                changed = True
            if dist[v] + ln < dist[u]:
                dist[u] = dist[v] + ln
                changed = True
        if not changed:
            break
    return dist


# ---------------------------------------------------------------------------
# Candidate enumeration (simple paths and feasible first colors)
# ---------------------------------------------------------------------------

def enumerate_simple_paths(network: OpticalNetwork, demand: Demand) -> list:
    """All simple paths s->t of total length <= reach, as link tuples."""
    lb = bellman_ford_distances(
        [(l.u, l.v, l.length) for l in network.links], network.nodes, demand.t
    )
    adj = _neighbors(network.links)
    paths = []

    def dfs(node, visited, acc, links):
        if node == demand.t:
            paths.append(tuple(links))
            return
        for link, other in adj.get(node, ()):
            if other in visited:
                continue
            nd = acc + link.length
            if nd + lb[other] > demand.reach:
                continue
            visited.add(other)
            links.append(link)
            dfs(other, visited, nd, links)
            links.pop()
            visited.remove(other)

    if lb[demand.s] <= demand.reach:
        dfs(demand.s, {demand.s}, 0.0, [])
    return paths


def candidate_routings(network: OpticalNetwork, demand: Demand) -> list:
    """All (RoutedPath) candidates for a demand: simple path x feasible first color."""
    w = demand.width
    out = []
    for links in enumerate_simple_paths(network, demand):
        for c0 in range(1, network.slot_count - w + 2):
            needed = range(c0, c0 + w)
            if all(
                all(c in network.available[l.id] for c in needed) for l in links
            ):
                out.append(RoutedPath(links=links, first_color=c0, width=w))
    return out


def _conflicts(a: RoutedPath, b: RoutedPath) -> bool:
    if a.first_color >= b.first_color + b.width:
        return False
    if b.first_color >= a.first_color + a.width:
        return False
    return bool(set(a.link_ids()) & set(b.link_ids()))


# ---------------------------------------------------------------------------
# Joint solving
# ---------------------------------------------------------------------------

@dataclass
class OracleOutcome:
    """Result of an exhaustive solve.

    For feasibility mode, `optima_count` counts complete routings achieving
    `min_total_slots`; for maxsubset mode it counts distinct maximum subsets.
    """

    mode: str
    feasible: bool
    min_total_slots: Optional[int] = None
    optima_count: int = 0
    witness: dict = field(default_factory=dict)
    max_subset_size: Optional[int] = None
    restored: frozenset = frozenset()


def _slots(path: RoutedPath) -> int:
    return path.width * len(path.links)


def oracle_solve(
    instance: RestorationInstance,
    mode: str = "feasibility",
    guard: OracleGuard = OracleGuard(),
) -> OracleOutcome:
    """Exhaustive solve; see OracleOutcome. Raises OracleGuardError when too big."""
    guard.check(instance)
    if mode not in ("feasibility", "maxsubset"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    demands = sorted(instance.demands, key=lambda d: d.id)
    cands = {d.id: candidate_routings(instance.network, d) for d in demands}
    order = sorted(demands, key=lambda d: len(cands[d.id]))

    if mode == "feasibility":
        best = [INF, 0, {}]  # min slots, count, witness

        def dfs(i, chosen, total):
            if total > best[0]:
                return
            if i == len(order):
                if total < best[0]:
                    best[0] = total
                    best[1] = 1
                    best[2] = dict(chosen)
                elif total == best[0]:
                    best[1] += 1
                return
            d = order[i]
            for cand in cands[d.id]:
                if any(_conflicts(cand, p) for p in chosen.values()):
                    continue
                chosen[d.id] = cand
                dfs(i + 1, chosen, total + _slots(cand))
                del chosen[d.id]

        dfs(0, {}, 0)
        feasible = best[0] < INF
        return OracleOutcome(
            mode=mode,
            feasible=feasible,
            min_total_slots=int(best[0]) if feasible else None,
            optima_count=best[1],
            witness=best[2],
        )

    # maxsubset: maximize the number of routed demands.
    best_k = [0]
    subsets: set = {frozenset()}
    witness = [{}]

    def dfs2(i, chosen):
        remaining = len(order) - i
        if len(chosen) + remaining < best_k[0]:
            return
        if i == len(order):
            k = len(chosen)
            if k > best_k[0]:
                best_k[0] = k
                subsets.clear()
                witness[0] = dict(chosen)
            if k == best_k[0]:
                subsets.add(frozenset(chosen))
            return
        d = order[i]
        for cand in cands[d.id]:
            if any(_conflicts(cand, p) for p in chosen.values()):
                continue
            chosen[d.id] = cand
            dfs2(i + 1, chosen)
            del chosen[d.id]
        dfs2(i + 1, chosen)  # skip d

    dfs2(0, {})
    return OracleOutcome(
        mode=mode,
        feasible=best_k[0] == len(demands),
        optima_count=len(subsets),
        witness=witness[0],
        max_subset_size=best_k[0],
        restored=frozenset(witness[0]),
    )


# ---------------------------------------------------------------------------
# Usefulness by walk enumeration
# ---------------------------------------------------------------------------

def _mark_reachable_edges(network, active, s, t, reach):
    """Ids of active links lying on at least one s->t walk of length <= reach.

    Exhaustive DFS over walks (revisits allowed). Early exit is sound: an edge
    on a valid walk always satisfies dist(s,u)+len+dist(t,v) <= reach for one
    orientation (split the walk at a traversal of the edge), so `candidates`
    is a provable superset of the markable set and DFS may stop once it has
    witnessed a walk for every candidate.
    """
    edges = [(l.u, l.v, l.length) for l in active]
    dist_s = bellman_ford_distances(edges, network.nodes, s)
    dist_t = bellman_ford_distances(edges, network.nodes, t)
    candidates = set()
    for l in active:
        if (
            dist_s[l.u] + l.length + dist_t[l.v] <= reach
            or dist_s[l.v] + l.length + dist_t[l.u] <= reach
        ):
            candidates.add(l.id)
    if not candidates:
        return set()

    adj = _neighbors(active)
    marked: set = set()

    def dfs(node, acc, used):
        if node == t and used:
            marked.update(used)
            if marked == candidates:
                return True
        for link, other in adj.get(node, ()):
            nd = acc + link.length
            if nd + dist_t[other] > reach:
                continue
            used.append(link.id)
            if dfs(other, nd, used):
                used.pop()
                return True
            used.pop()
        return False

    dfs(s, 0.0, [])
    return marked


def oracle_useful_triples(
    instance: RestorationInstance, guard: OracleGuard = OracleGuard()
) -> UsefulTripleSet:
    """Brute-force usefulness; must coincide with trimming.compute_useful_triples.

    The walks give each link's first colors; the useful triples follow from
    them and the widths (`UsefulTripleSet.useful`), as trimming's do. Its
    arc first colors are exact: the arcs that the simple paths of
    `candidate_routings` traverse, in walk order, at their first colors.
    Trimming's arc test keeps a superset of them.
    """
    guard.check(instance, walks=True)
    net = instance.network
    first_colors: dict = {}
    arc_first: dict = {}
    valid_first: dict = {}
    non_reroutable = set()

    for demand in sorted(instance.demands, key=lambda d: d.id):
        for cand in candidate_routings(net, demand):
            node = demand.s
            for link in cand.links:  # in walk order
                key = (demand.id, link.id, link.u == node)
                arc_first.setdefault(key, set()).add(cand.first_color)
                node = link.other(node)
        w = demand.width
        valid: set = set()
        for c0 in range(1, net.slot_count - w + 2):
            needed = range(c0, c0 + w)
            active = [
                l
                for l in net.links
                if all(c in net.available[l.id] for c in needed)
            ]
            edges = [(l.u, l.v, l.length) for l in active]
            dist = bellman_ford_distances(edges, net.nodes, demand.s)
            if dist[demand.t] > demand.reach:
                continue
            valid.add(c0)
            marked = _mark_reachable_edges(net, active, demand.s, demand.t, demand.reach)
            for link_id in marked:
                key = (demand.id, link_id)
                first_colors.setdefault(key, set()).add(c0)
        valid_first[demand.id] = frozenset(valid)
        if not valid:
            non_reroutable.add(demand.id)

    return UsefulTripleSet(
        first_colors={k: frozenset(v) for k, v in first_colors.items()},
        valid_first_colors=valid_first,
        non_reroutable=frozenset(non_reroutable),
        arc_first_colors={k: frozenset(v) for k, v in arc_first.items()},
        widths={d.id: d.width for d in instance.demands},
    )


# ---------------------------------------------------------------------------
# Random small-instance corpus
# ---------------------------------------------------------------------------

# the sizes random_instance draws up to, all within the default OracleGuard
MAX_NODES = 6
MAX_LINKS = 9
MAX_COLORS = 5
MAX_DEMANDS = 3
MAX_WIDTH = 2


def random_instance(rng: random.Random) -> RestorationInstance:
    """Seeded random connected multigraph instance within the oracle guard.

    Integer lengths 1..5, random per-link color subsets, and reaches drawn as
    shortest-path length plus a small slack so that roughly half the demands
    are tight.
    """
    n = rng.randint(2, MAX_NODES)
    nodes = list(range(1, n + 1))
    links = []
    for i in range(2, n + 1):  # random spanning tree keeps it connected
        links.append((rng.randint(1, i - 1), i))
    for _ in range(rng.randint(0, max(MAX_LINKS - (n - 1), 0))):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u != v:
            links.append((u, v))
    link_objs = [
        Link(id=i + 1, u=u, v=v, length=float(rng.randint(1, 5)))
        for i, (u, v) in enumerate(links)
    ]
    slot_count = rng.randint(1, MAX_COLORS)
    available = {
        l.id: [c for c in range(1, slot_count + 1) if rng.random() < 0.75]
        for l in link_objs
    }
    network = OpticalNetwork(nodes, link_objs, available, slot_count)

    full_edges = [(l.u, l.v, l.length) for l in link_objs]
    demands = []
    for j in range(rng.randint(1, MAX_DEMANDS)):
        s, t = rng.sample(nodes, 2)
        width = rng.randint(1, min(MAX_WIDTH, slot_count))
        sp = bellman_ford_distances(full_edges, nodes, s)[t]
        base = sp if sp < INF else float(rng.randint(1, 8))
        reach = base + rng.choice([0, 0, 1, 2, 4])
        demands.append(Demand(id=j + 1, s=s, t=t, width=width, reach=float(reach)))
    return RestorationInstance(network=network, demands=tuple(demands))
