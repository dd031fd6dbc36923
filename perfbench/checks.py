"""Answer checks computed apart from the solve path.

Everything here works on the instance and solution JSON documents alone and
uses its own shortest-path code, so a fault in flexrsa's loader, trimming,
model, extraction or verifier cannot hide itself. Each check returns a list
of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    slot_count: int
    links: dict  # link id -> (u, v, length, frozenset of free colors)
    demands: dict  # demand id -> (s, t, width, reach)


def expand_colors(raw) -> frozenset:
    out = set()
    for item in raw:
        if isinstance(item, list):
            out.update(range(item[0], item[1] + 1))
        else:
            out.add(item)
    return frozenset(out)


def parse_instance(doc: dict) -> Instance:
    links = {
        l["id"]: (l["u"], l["v"], float(l["length_km"]), expand_colors(l["colors"]))
        for l in doc["links"]
    }
    demands = {
        d["id"]: (d["s"], d["t"], d["width"], float(d["reach_km"]))
        for d in doc.get("demands", [])
    }
    return Instance(doc["slot_count"], links, demands)


def range_distance(inst: Instance, s, t, first: int, width: int) -> float:
    """Shortest s-t length over links whose slots first..first+width-1 are free."""
    block = range(first, first + width)
    adj: dict = {}
    for u, v, length, free in inst.links.values():
        if all(c in free for c in block):
            adj.setdefault(u, []).append((length, v))
            adj.setdefault(v, []).append((length, u))
    dist = {s: 0.0}
    heap = [(0.0, 0, s)]
    tie = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node == t:
            return d
        if d > dist[node]:
            continue
        for length, other in adj.get(node, ()):
            nd = d + length
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, tie, other))
                tie += 1
    return math.inf


def is_reroutable(inst: Instance, demand_id) -> bool:
    """True iff some first color gives an s-t range-graph distance within reach."""
    s, t, width, reach = inst.demands[demand_id]
    return any(
        range_distance(inst, s, t, c, width) <= reach
        for c in range(1, inst.slot_count - width + 2)
    )


def non_reroutable(inst: Instance) -> list:
    return sorted(d for d in inst.demands if not is_reroutable(inst, d))


def path_problems(inst: Instance, paths: list) -> list:
    """Each path is a walk from s to t over the instance's links, within reach,
    on one contiguous block of its width free on every link; no (link, slot)
    pair is used twice across all paths."""
    problems = []
    used: dict = {}
    seen_demands = set()
    for entry in paths:
        d = entry["demand"]
        if d not in inst.demands:
            problems.append(f"path for unknown demand {d}")
            continue
        if d in seen_demands:
            problems.append(f"demand {d} has two paths")
        seen_demands.add(d)
        s, t, width, reach = inst.demands[d]
        if entry["width"] != width:
            problems.append(f"demand {d}: width {entry['width']} != {width}")
        block = range(entry["first_color"], entry["first_color"] + width)
        if not entry["links"]:
            problems.append(f"demand {d}: empty path")
            continue
        node = s
        length = 0.0
        for link_id in entry["links"]:
            if link_id not in inst.links:
                problems.append(f"demand {d}: link {link_id} not in the instance")
                break
            u, v, link_len, free = inst.links[link_id]
            if node == u:
                node = v
            elif node == v:
                node = u
            else:
                problems.append(f"demand {d}: link {link_id} does not continue the walk")
                break
            length += link_len
            missing = [c for c in block if c not in free]
            if missing:
                problems.append(f"demand {d}: slots {missing} not free on link {link_id}")
            for c in block:
                if (link_id, c) in used:
                    problems.append(
                        f"link {link_id} slot {c} used by demands {used[link_id, c]} and {d}"
                    )
                used[link_id, c] = d
        else:
            if node != t:
                problems.append(f"demand {d}: walk ends at {node!r}, not {t!r}")
            if length > reach:
                problems.append(f"demand {d}: length {length} exceeds reach {reach}")
    return problems


def slot_cost(paths: list) -> int:
    return sum(p["width"] * len(p["links"]) for p in paths)


def feasible_answer_problems(inst: Instance, sol: dict) -> list:
    """An optimal feasibility answer routes every demand with valid paths, and
    its objective is the slot count of those paths."""
    problems = path_problems(inst, sol["paths"])
    routed = {p["demand"] for p in sol["paths"]}
    if routed != set(inst.demands):
        problems.append(f"routed {sorted(routed)}, instance has {sorted(inst.demands)}")
    if sol["objective"] is None or abs(sol["objective"] - slot_cost(sol["paths"])) > 1e-6:
        problems.append(
            f"objective {sol['objective']} != slot cost {slot_cost(sol['paths'])}"
        )
    return problems


def maxsubset_answer_problems(inst: Instance, sol: dict) -> list:
    """A maxsubset answer is optimal, its restored set is the set of routed
    demands, and those paths are valid."""
    if sol["status"] != "optimal":
        return [f"maxsubset status {sol['status']}"]
    problems = path_problems(inst, sol["paths"])
    routed = sorted(p["demand"] for p in sol["paths"])
    if sorted(sol.get("restored", routed)) != routed:
        problems.append(f"restored {sol.get('restored')} != routed {routed}")
    return problems


def trim_proof_problems(inst: Instance, sol: dict) -> list:
    """A trim-proven infeasible answer lists demands that really have no first
    color whose range graph reaches t within reach."""
    listed = sol.get("meta", {}).get("non_reroutable", [])
    if not listed:
        return ["trim-proven answer lists no non-re-routable demand"]
    problems = []
    for d in listed:
        if d not in inst.demands:
            problems.append(f"non-re-routable demand {d} not in the instance")
        elif is_reroutable(inst, d):
            problems.append(f"demand {d} listed as non-re-routable but has a route")
    return problems
