"""Core data model: networks, demands and routed paths.

All types here are immutable after construction and safe to share across
threads. Colors (spectrum slots) are 1-based integers in {1..C}; links are
undirected and may be parallel (the integer id disambiguates). Direction is
introduced only inside the MILP builder.

`OpticalNetwork` builds the one index form of its graph and spectrum at
construction (node and link positions, link ends, adjacency by position, and
the read-only link x color matrix of free slots) that trimming, the MILP
builder and the generator's router read. `path_violations` is the one rule
for whether a routed path serves a demand; `is_valid_path` and the verifier
both apply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

NodeId = Union[str, int]


class InputError(ValueError):
    """Malformed instance data or out-of-range arguments."""


@dataclass(frozen=True)
class Link:
    """Undirected fiber link between two distinct nodes.

    Attributes:
        id: Unique integer id within a network (parallel links get distinct ids).
        u, v: Endpoint nodes. The (u, v) order is kept as given; it only matters
            for naming the two directed copies used by the MILP builder.
        length: Finite, non-negative length in kilometers.
    """

    id: int
    u: NodeId
    v: NodeId
    length: float

    def endpoints(self) -> frozenset:
        return frozenset((self.u, self.v))

    def other(self, node: NodeId) -> NodeId:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise InputError(f"node {node!r} is not an endpoint of link {self.id}")


@dataclass(frozen=True)
class Demand:
    """Connection request: route `width` contiguous slots from s to t within `reach` km."""

    id: int
    s: NodeId
    t: NodeId
    width: int
    reach: float


@dataclass(frozen=True)
class RoutedPath:
    """A routed answer for one demand: a link walk plus the occupied slot range.

    The walk occupies colors {first_color .. first_color + width - 1} on every
    link of the sequence.
    """

    links: tuple[Link, ...]
    first_color: int
    width: int

    def colors(self) -> range:
        return range(self.first_color, self.first_color + self.width)

    def length(self) -> float:
        total = 0.0
        for link in self.links:
            total += link.length
        return total

    def link_ids(self) -> tuple[int, ...]:
        return tuple(link.id for link in self.links)


class OpticalNetwork:
    """Flex-grid optical network: nodes, parallel weighted links, per-link free colors.

    Attributes:
        slot_count: Number of spectrum slots C (same for every link).
        nodes: Node ids, in construction order.
        links: Links sorted by id.
        available: Mapping link id -> frozenset of free colors (subset of {1..C}).
        free: Read-only (links x colors) bool array: [e, c - 1] iff color c
            is free on links[e]; `available` as a matrix.
        node_index: Node id -> its position in `nodes`.
        link_index: Link id -> its position in `links`.
        ends: Per link position (index into `links`): the positions of its
            u and v.
        adj: Per node position: the (link position, other node position)
            pairs of its links, in link-id order.
    """

    __slots__ = (
        "slot_count", "nodes", "links", "available", "free",
        "node_index", "link_index", "ends", "adj",
    )

    def __init__(
        self,
        nodes: Iterable[NodeId],
        links: Iterable[Link],
        available: Mapping[int, Iterable[int]],
        slot_count: int,
    ) -> None:
        if not isinstance(slot_count, int) or slot_count < 1:
            raise InputError(f"slot_count must be a positive integer, got {slot_count!r}")
        self.slot_count = slot_count
        seen_nodes = []
        node_set = set()
        for n in nodes:
            if n in node_set:
                raise InputError(f"duplicate node {n!r}")
            node_set.add(n)
            seen_nodes.append(n)
        self.nodes = tuple(seen_nodes)

        by_id: dict[int, Link] = {}
        for link in links:
            if link.id in by_id:
                raise InputError(f"duplicate link id {link.id}")
            if link.u == link.v:
                raise InputError(f"link {link.id} is a self-loop at {link.u!r}")
            if link.u not in node_set or link.v not in node_set:
                raise InputError(f"link {link.id} endpoint not among the nodes")
            if not 0 <= link.length < math.inf:
                raise InputError(
                    f"link {link.id} has length {link.length}; "
                    "it must be finite and non-negative"
                )
            by_id[link.id] = link
        self.links = tuple(sorted(by_id.values(), key=lambda l: l.id))
        self.link_index = {l.id: e for e, l in enumerate(self.links)}

        avail: dict[int, frozenset[int]] = {}
        free = np.zeros((len(self.links), slot_count), dtype=bool)
        for e, link in enumerate(self.links):
            colors = frozenset(available.get(link.id, ()))
            for c in colors:
                if not isinstance(c, int) or not 1 <= c <= slot_count:
                    raise InputError(
                        f"link {link.id}: color {c!r} outside 1..{slot_count}"
                    )
            avail[link.id] = colors
            free[e, [c - 1 for c in colors]] = True
        free.flags.writeable = False
        self.available = avail
        self.free = free

        self.node_index = {n: i for i, n in enumerate(self.nodes)}
        self.ends = tuple(
            (self.node_index[l.u], self.node_index[l.v]) for l in self.links
        )
        adj: list = [[] for _ in self.nodes]
        for e, (u, v) in enumerate(self.ends):
            adj[u].append((e, v))
            adj[v].append((e, u))
        self.adj = tuple(tuple(pairs) for pairs in adj)

    def link(self, link_id: int) -> Link:
        try:
            return self.links[self.link_index[link_id]]
        except KeyError:
            raise InputError(f"unknown link id {link_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpticalNetwork(|V|={len(self.nodes)}, |L|={len(self.links)}, "
            f"C={self.slot_count})"
        )


@dataclass(frozen=True)
class RestorationInstance:
    """One solver input: a partially occupied network plus the demands to route."""

    network: OpticalNetwork
    demands: tuple[Demand, ...]

    def __post_init__(self) -> None:
        net = self.network
        node_set = set(net.nodes)
        seen = set()
        for i, d in enumerate(self.demands):
            where = f"demand #{i} (id={d.id})"
            if d.id in seen:
                raise InputError(f"{where}: duplicate demand id")
            seen.add(d.id)
            if d.s not in node_set or d.t not in node_set:
                raise InputError(f"{where}: endpoint not among network nodes")
            if d.s == d.t:
                raise InputError(f"{where}: source equals target")
            if not isinstance(d.width, int) or d.width < 1:
                raise InputError(f"{where}: width must be a positive integer")
            if d.width > net.slot_count:
                raise InputError(f"{where}: width {d.width} exceeds C={net.slot_count}")
            if not 0 < d.reach < math.inf:
                raise InputError(f"{where}: reach {d.reach} must be finite and positive")


# ---------------------------------------------------------------------------
# Path predicates
# ---------------------------------------------------------------------------

def walk_node_sequence(links: tuple[Link, ...], start: NodeId) -> Optional[list]:
    """Node sequence of a link walk starting at `start`, or None if malformed.

    Enforces the structural walk rules: every consecutive link pair shares
    exactly one endpoint, and that shared endpoint is the node the walk is
    currently at (which also rules out an immediate return through a parallel
    link at either end of the walk).
    """
    if not links:
        return None
    first = links[0]
    if start not in (first.u, first.v):
        return None
    seq = [start]
    cur = start
    prev: Optional[Link] = None
    for link in links:
        if cur not in (link.u, link.v):
            return None
        if prev is not None and len(prev.endpoints() & link.endpoints()) != 1:
            return None
        cur = link.other(cur)
        seq.append(cur)
        prev = link
    return seq


def path_violations(path: RoutedPath, demand: Demand, network: OpticalNetwork) -> list:
    """The (kind, detail) pairs of every way the path fails to route the
    demand; empty iff it routes it.

    A path must be a well-formed walk from demand.s ("structure"; when it is
    not, nothing else is checked) that ends at demand.t ("endpoints"), have
    the demand's width ("width") and colors within 1..C ("spectrum"), be
    within reach ("reach"), and find its colors free on every link
    ("availability", once per link).
    """
    seq = walk_node_sequence(path.links, demand.s)
    if seq is None:
        return [("structure", "links do not form a walk from the source")]
    out = []
    if seq[-1] != demand.t:
        out.append(("endpoints", f"walk ends at {seq[-1]!r}, not {demand.t!r}"))
    if path.width != demand.width:
        out.append((
            "width",
            f"path width {path.width} differs from demand width {demand.width}",
        ))
    last = path.first_color + path.width - 1
    if path.first_color < 1 or last > network.slot_count:
        out.append((
            "spectrum",
            f"colors {path.first_color}..{last} outside 1..{network.slot_count}",
        ))
    if path.length() > demand.reach:
        out.append(("reach", f"length {path.length()} exceeds reach {demand.reach}"))
    for link in path.links:
        free = network.available.get(link.id, frozenset())
        missing = [c for c in path.colors() if c not in free]
        if missing:
            out.append(("availability", f"colors {missing} not free on link {link.id}"))
    return out


def is_valid_path(path: RoutedPath, demand: Demand, network: OpticalNetwork) -> bool:
    """True iff the path routes the demand (no `path_violations`)."""
    return not path_violations(path, demand, network)


def paths_intersect(p1: RoutedPath, p2: RoutedPath) -> bool:
    """True iff the two paths occupy some common color on some common link."""
    lo = max(p1.first_color, p2.first_color)
    hi = min(p1.first_color + p1.width, p2.first_color + p2.width)
    if lo >= hi:
        return False
    return bool(set(p1.link_ids()) & set(p2.link_ids()))
