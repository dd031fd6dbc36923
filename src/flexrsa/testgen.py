"""Congested-instance generation via shared path protection and link breaks.

Loading discipline: repeatedly shuffle all ordered node pairs and, for each
pair, try to route a valid main path plus a link-disjoint valid recovery path
(first-fit lowest color, shortest valid route). Main paths never touch slots
reserved by any recovery. Recovery paths of main paths that share a link must
not intersect each other (no common slot on a common link); recoveries of
link-disjoint mains may even reuse each other's slots - that reuse is the
shared part of shared path protection. Each width phase makes one shuffled
pass, and the last repeats until a pass routes nothing. Afterwards all
recovery reservations are dropped.

The router keeps this state as two bool arrays in the layout of the
topology's `OpticalNetwork.free`: `free`, the slots no main uses, and
`held` (links x links x colors), where held[m] marks the slots reserved by
recoveries of mains that use links[m]. The reservation rules above are then
masks: a main may use free & ~held.any(axis=0), a recovery for main M may
use free & ~held[rows of M].any(axis=0).

First-fit skips the color windows that cannot reach t: those that s or t
touches with no link, and range graphs that already failed in the call.
The self-check maps each slot to its owners instead of comparing pairs.

First-kind scenarios break one eligible link (eligible: it carries a main of
width > 1); the freed broken demands are always jointly restorable, the
removed recovery paths being a witness. Second-kind scenarios re-provision
the broken demands and then break a second eligible link, with no guarantee.
Both kinds end in the same break of routed paths: the mains for the first
kind; for the second, the mains with the first break's demands re-provisioned,
whose eligible links leave out the first break.
"""

from __future__ import annotations

import importlib.resources
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import (
    Demand,
    OpticalNetwork,
    RestorationInstance,
    RoutedPath,
    is_valid_path,
)
from .trimming import dijkstra, free_windows

MODULATION_REACH_KM = {"bpsk": 5000.0, "qpsk": 2500.0, "8qam": 1250.0}

BUILTIN_TOPOLOGIES = ("ring14", "grid12")


class GenerationError(RuntimeError):
    pass


def builtin_topology_path(name: str) -> str:
    if name not in BUILTIN_TOPOLOGIES:
        raise GenerationError(
            f"unknown builtin topology {name!r}; available: {BUILTIN_TOPOLOGIES}"
        )
    return str(importlib.resources.files("flexrsa").joinpath(f"data/{name}.json"))


@dataclass(frozen=True)
class ProvisionedDemand:
    demand: Demand
    main: RoutedPath
    recovery: RoutedPath


@dataclass
class LoadedNetwork:
    """Provisioned network state with recovery reservations already dropped."""

    topology: OpticalNetwork
    network: OpticalNetwork  # availability = topology minus main occupations
    provisioned: tuple
    seed: int
    reach_km: float
    modulation: Optional[str]
    width_schedule: tuple
    log: tuple

    def eligible_links(self) -> list:
        """Links carrying at least one main path of width > 1."""
        return _eligible(
            {pd.demand.id: pd.main for pd in self.provisioned},
            {pd.demand.id: pd.demand for pd in self.provisioned},
        )


@dataclass(frozen=True)
class Scenario:
    kind: str  # "first" | "second"
    broken_link: int
    instance: RestorationInstance
    first_break: Optional[int] = None
    replacement_policy: Optional[str] = None
    manifest: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# First-fit routing machinery
# ---------------------------------------------------------------------------

class _Router:
    """First-fit shortest-valid routing over a mutable occupation state:
    `free` and `held`, as in the module docstring."""

    def __init__(self, topology: OpticalNetwork):
        self.node_index = topology.node_index
        self.link_index = topology.link_index
        self.links = topology.links
        self.adj = topology.adj
        self.incident = [[e for e, _ in pairs] for pairs in topology.adj]
        self.lengths = [l.length for l in self.links]
        self.free = topology.free.copy()
        m = len(self.links)
        self.held = np.zeros((m, m, topology.slot_count), dtype=bool)

    def occupy_main(self, path: RoutedPath) -> None:
        lo = path.first_color - 1
        for link in path.links:
            self.free[self.link_index[link.id], lo:lo + path.width] = False

    def reserve_recovery(self, path: RoutedPath, main_links: frozenset) -> None:
        rows = [self.link_index[i] for i in main_links]
        lo = path.first_color - 1
        for link in path.links:
            self.held[rows, self.link_index[link.id], lo:lo + path.width] = True

    def main_avail(self) -> np.ndarray:
        """Slots a main may use: free of mains and of every reservation."""
        return self.free & ~self.held.any(axis=0)

    def recovery_avail(self, main_links: frozenset) -> np.ndarray:
        """Slots a recovery for this main may use: free of mains, and reserved
        only by recoveries whose mains are link-disjoint from this one."""
        rows = [self.link_index[i] for i in main_links]
        return self.free & ~self.held[rows].any(axis=0)

    def first_fit(self, s, t, width, reach, avail, banned_links=frozenset()):
        """Lowest first color admitting a reach-valid route, plus the shortest
        such route in that color range. Dijkstra skips a window where s or t
        has no incident link carrying it, or whose range graph already failed
        in this call: it cannot reach t there, so the result is unchanged."""
        if banned_links:
            avail = avail.copy()
            avail[[self.link_index[i] for i in banned_links]] = False
        root, target = self.node_index[s], self.node_index[t]
        windows = free_windows(avail, width)
        at_s, at_t = (windows[:, self.incident[n]].any(axis=1) for n in (root, target))
        failed = set()  # range graphs (window rows as bytes) that missed t
        for c in np.flatnonzero(at_s & at_t).tolist():
            key = windows[c].tobytes()
            if key in failed:
                continue
            dist, pred = dijkstra(self.adj, self.lengths, windows[c].tolist(), root)
            if pred[target] < 0 or dist[target] > reach:
                failed.add(key)
                continue
            links, node = [], t
            while node != s:
                link = self.links[pred[self.node_index[node]]]
                links.append(link)
                node = link.other(node)
            return RoutedPath(links=tuple(reversed(links)), first_color=c + 1, width=width)
        return None


def _restrict_network(topology: OpticalNetwork, paths, drop_links=frozenset()):
    """Copy of the topology minus dropped links, minus the paths' slots."""
    router = _Router(topology)
    for path in paths:
        router.occupy_main(path)
    links = [l for l in topology.links if l.id not in drop_links]
    available = {
        l.id: (np.flatnonzero(router.free[router.link_index[l.id]]) + 1).tolist()
        for l in links
    }
    return OpticalNetwork(topology.nodes, links, available, topology.slot_count)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def generate_loaded_network(
    topology: OpticalNetwork,
    reach_km: float,
    width_schedule=(1, 4, 2, 1),
    seed: int = 0,
    modulation: Optional[str] = None,
) -> LoadedNetwork:
    """Load a pristine topology with shared-path-protected demands."""
    for link, row in zip(topology.links, topology.free):
        if not row.all():
            raise GenerationError(
                f"topology link {link.id} is not fully available; loading "
                "expects a pristine network"
            )
    for width in width_schedule:
        # a width-0 demand occupies nothing, so the last phase would never end
        if not 1 <= width <= topology.slot_count:
            raise GenerationError(
                f"width {width} is outside 1..{topology.slot_count} (the slot count)"
            )
    rng = random.Random(seed)
    router = _Router(topology)
    pairs = [(s, t) for s in topology.nodes for t in topology.nodes if s != t]

    provisioned: list[ProvisionedDemand] = []
    log: list[str] = []
    next_id = 1

    def attempt(s, t, width) -> bool:
        nonlocal next_id
        main = router.first_fit(s, t, width, reach_km, router.main_avail())
        if main is None:
            return False
        main_links = frozenset(main.link_ids())
        recovery = router.first_fit(
            s, t, width, reach_km,
            router.recovery_avail(main_links),
            banned_links=main_links,
        )
        if recovery is None:
            return False
        demand = Demand(id=next_id, s=s, t=t, width=width, reach=reach_km)
        next_id += 1
        router.occupy_main(main)
        router.reserve_recovery(recovery, main_links)
        provisioned.append(ProvisionedDemand(demand, main, recovery))
        log.append(
            f"routed d{demand.id} ({s}->{t} w={width}) main via "
            f"{list(main.link_ids())} c{main.first_color} recovery via "
            f"{list(recovery.link_ids())} c{recovery.first_color}"
        )
        return True

    # one shuffled pass per width phase, and the last phase repeats until a
    # pass routes nothing; exhausting an early width-1 phase would leave no
    # room for any wider demand, since a pair routable at width w is also
    # routable at width 1
    last = len(width_schedule) - 1
    for phase, width in enumerate(width_schedule):
        while True:
            order = pairs[:]
            rng.shuffle(order)
            progress = False
            for s, t in order:
                if attempt(s, t, width):
                    progress = True
            if phase < last or not progress:
                break

    network = _restrict_network(topology, (pd.main for pd in provisioned))
    loaded = LoadedNetwork(
        topology=topology,
        network=network,
        provisioned=tuple(provisioned),
        seed=seed,
        reach_km=reach_km,
        modulation=modulation,
        width_schedule=tuple(width_schedule),
        log=tuple(log),
    )
    _self_check(loaded)
    return loaded


def _self_check(loaded: LoadedNetwork) -> None:
    """Shared-protection invariants; violations are generator bugs. Paths
    must be valid, each recovery link-disjoint from its main; then, by slot
    owners: no slot has two mains, or a main and a recovery, or recoveries
    of mains that share a link."""
    for pd in loaded.provisioned:
        if not is_valid_path(pd.main, pd.demand, loaded.topology):
            raise GenerationError(f"main path of d{pd.demand.id} invalid")
        if not is_valid_path(pd.recovery, pd.demand, loaded.topology):
            raise GenerationError(f"recovery path of d{pd.demand.id} invalid")
        if set(pd.main.link_ids()) & set(pd.recovery.link_ids()):
            raise GenerationError(
                f"recovery of d{pd.demand.id} shares a link with its main"
            )

    def slots(path):
        return {(link_id, c) for link_id in path.link_ids() for c in path.colors()}

    main_of: dict = {}  # (link id, color) -> the demand whose main uses it
    for pd in loaded.provisioned:
        for slot in slots(pd.main):
            other = main_of.setdefault(slot, pd)
            if other is not pd:
                raise GenerationError(
                    f"mains of d{other.demand.id} and d{pd.demand.id} intersect"
                )
    recoveries_on: dict = {}  # (link id, color) -> demands whose recoveries use it
    for pd in loaded.provisioned:
        for slot in slots(pd.recovery):
            if slot in main_of:
                raise GenerationError("a main intersects a recovery reservation")
            on_slot = recoveries_on.setdefault(slot, [])
            for other in on_slot:
                if set(pd.main.link_ids()) & set(other.main.link_ids()):
                    raise GenerationError(
                        f"recoveries of d{other.demand.id}/d{pd.demand.id} "
                        "intersect although their mains share a link"
                    )
            on_slot.append(pd)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def _eligible(routed: dict, demands: dict, dropped=frozenset()) -> list:
    """Sorted ids of the links carrying a routed path of a width > 1 demand,
    minus the dropped links. routed and demands are keyed by demand id."""
    return sorted(
        {
            link_id
            for d_id, path in routed.items()
            if demands[d_id].width > 1
            for link_id in path.link_ids()
            if link_id not in dropped
        }
    )


def _break(topology, routed: dict, demands: dict, link: int, dropped):
    """Break `link` under the routed paths: the instance of the demands whose
    path uses it, on the topology minus the dropped links and minus the other
    paths' slots, and the sorted ids of those demands."""
    hit = {d_id for d_id, path in routed.items() if link in path.link_ids()}
    surviving = (path for d_id, path in routed.items() if d_id not in hit)
    network = _restrict_network(topology, surviving, drop_links=dropped)
    broken = sorted(hit)
    return RestorationInstance(network, tuple(demands[i] for i in broken)), broken


def make_scenario(
    loaded: LoadedNetwork,
    broken_link: int,
    kind: str = "first",
    first_break: Optional[int] = None,
) -> Scenario:
    if kind not in ("first", "second"):
        raise GenerationError(f"unknown scenario kind {kind!r}")
    if kind == "first" and first_break is not None:
        raise GenerationError(
            f"first break {first_break} given for a first-kind scenario; "
            "only the second kind has one"
        )
    routed = {pd.demand.id: pd.main for pd in loaded.provisioned}
    demands = {pd.demand.id: pd.demand for pd in loaded.provisioned}
    eligible = _eligible(routed, demands)
    dropped = {broken_link}
    second = {}  # the second kind's Scenario fields, also in its manifest
    if kind == "first" and broken_link not in eligible:
        raise GenerationError(
            f"link {broken_link} not eligible (needs a width>1 main); "
            f"eligible links: {eligible}"
        )
    if kind == "second":  # break, re-provision the broken demands, break again
        if first_break is None:
            candidates = [l for l in eligible if l != broken_link]
            if not candidates:
                raise GenerationError("no eligible link available for the first break")
            first_break = candidates[0]
        if first_break == broken_link:
            raise GenerationError("first and second break must differ")
        if first_break not in eligible:
            raise GenerationError(
                f"first break {first_break} not eligible; eligible links: {eligible}"
            )
        # replacement phase: first-fit in demand order, falling back to the
        # recorded recovery paths if the greedy pass gets stuck
        cut = [pd for pd in loaded.provisioned if first_break in pd.main.link_ids()]
        for pd in cut:
            del routed[pd.demand.id]
        post_break = _Router(loaded.topology)
        post_break.free[post_break.link_index[first_break]] = False
        for path in routed.values():
            post_break.occupy_main(path)
        policy = "first_fit"
        for pd in cut:
            d = pd.demand
            path = post_break.first_fit(d.s, d.t, d.width, d.reach, post_break.free)
            if path is None:
                policy = "recorded_recovery"
                routed.update((p.demand.id, p.recovery) for p in cut)
                break
            routed[d.id] = path
            post_break.occupy_main(path)
        dropped.add(first_break)
        eligible2 = _eligible(routed, demands, {first_break})
        if broken_link not in eligible2:
            raise GenerationError(
                f"link {broken_link} not eligible for the second break; "
                f"eligible links: {eligible2}"
            )
        second = {"first_break": first_break, "replacement_policy": policy}

    instance, broken = _break(loaded.topology, routed, demands, broken_link, dropped)
    manifest = {
        "seed": loaded.seed,
        "modulation": loaded.modulation,
        "reach_km": loaded.reach_km,
        "width_schedule": list(loaded.width_schedule),
        "demands_provisioned": len(loaded.provisioned),
        "kind": kind,
        "broken_link": broken_link,
        **second,
        "broken_demands": broken,
    }
    return Scenario(kind, broken_link, instance, manifest=manifest, **second)
