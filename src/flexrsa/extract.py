"""Turn the columns a solve set back into routed paths and certify them.

A solve hands over `chosen`: the indices into `model.variables` of the
columns set to 1. Extraction groups each demand's chosen columns by arc, a
window column standing for its whole block of colors, and walks them from
the source. It accepts them iff every routed demand's arcs form one simple
s->t path, each arc carrying one contiguous block of `width` colors and
nothing else; split flow, leftover components or a broken block raise
ExtractionError - that indicates a model bug, not bad input. Verification
re-checks every routed path against the original instance and reports all
violations instead of raising; its per-path checks are
`model.path_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .milp import MilpModel, SelectVar, WindowVar
from .model import RestorationInstance, RoutedPath, path_violations, paths_intersect


class ExtractionError(RuntimeError):
    def __init__(self, demand_id, reason: str) -> None:
        super().__init__(f"demand {demand_id}: {reason}")
        self.demand_id = demand_id
        self.reason = reason


@dataclass
class ExtractResult:
    paths: dict
    restored: Optional[frozenset] = None  # maxsubset only

    def total_slots(self) -> int:
        return sum(p.width * len(p.links) for p in self.paths.values())


def extract_paths(
    chosen: Iterable[int], model: MilpModel, instance: RestorationInstance
) -> ExtractResult:
    """Reconstruct one RoutedPath per routed demand from the chosen columns.

    chosen: indices into `model.variables` of the columns set to 1. A window
    column counts as each color of its block. A demand's chosen columns are
    accepted iff they form one simple s->t path whose every arc carries
    exactly the block [c, c + width), c being the demand's lowest chosen
    color; in maxsubset an unselected demand must have none. Anything else
    raises ExtractionError.
    """
    net = instance.network
    width = {d.id: d.width for d in instance.demands}
    flows: dict = {}  # demand id -> (link id, forward) -> colors
    selected = set()
    for key in model.keys(chosen):
        if isinstance(key, SelectVar):
            selected.add(key.demand)
            continue
        if isinstance(key, WindowVar):
            colors = range(key.first, key.first + width[key.demand])
        else:
            colors = (key.color,)
        arcs = flows.setdefault(key.demand, {})
        arcs.setdefault((key.link, key.forward), set()).update(colors)

    maxsubset = model.mode == "maxsubset"
    paths: dict = {}
    for demand in sorted(instance.demands, key=lambda d: d.id):
        arcs = flows.get(demand.id, {})
        if maxsubset and demand.id not in selected:
            if arcs:
                raise ExtractionError(demand.id, "flow assigned to an unselected demand")
            continue
        if not arcs:
            raise ExtractionError(demand.id, "no flow assigned")

        first = min(min(colors) for colors in arcs.values())
        block = set(range(first, first + demand.width))
        leaving: dict = {}  # tail node -> [(link, head node)]
        for (link_id, forward), colors in arcs.items():
            if colors != block:
                raise ExtractionError(
                    demand.id,
                    f"occupied colors {sorted(colors)} on link {link_id} "
                    f"are not the contiguous block {sorted(block)}",
                )
            link = net.link(link_id)
            tail, head = (link.u, link.v) if forward else (link.v, link.u)
            leaving.setdefault(tail, []).append((link, head))

        links = []
        node, visited = demand.s, {demand.s}
        while node != demand.t:
            out = leaving.get(node, ())
            if len(out) != 1:
                raise ExtractionError(demand.id, f"{len(out)} outgoing links at {node!r}")
            link, node = out[0]
            if node in visited:
                raise ExtractionError(demand.id, f"cycle through {node!r}")
            visited.add(node)
            links.append(link)
        if len(links) != len(arcs):
            raise ExtractionError(demand.id, "leftover flow outside the extracted path")
        paths[demand.id] = RoutedPath(tuple(links), first, demand.width)
    return ExtractResult(paths, frozenset(paths) if maxsubset else None)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    demands: tuple
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "demands": list(self.demands), "detail": self.detail}


@dataclass
class VerificationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, demands, detail):
        self.violations.append(Violation(kind, tuple(demands), detail))


def verify_solution(paths: dict, instance: RestorationInstance) -> VerificationReport:
    """Check per-path validity and pairwise non-intersection; empty report = certified."""
    report = VerificationReport()
    known = {d.id: d for d in instance.demands}

    for demand_id, path in sorted(paths.items()):
        demand = known.get(demand_id)
        if demand is None:
            report.add("unknown-demand", (demand_id,), "not part of the instance")
            continue
        for kind, detail in path_violations(path, demand, instance.network):
            report.add(kind, (demand_id,), detail)

    items = sorted(paths.items())
    for i, (id1, p1) in enumerate(items):
        for id2, p2 in items[i + 1 :]:
            if paths_intersect(p1, p2):
                report.add(
                    "intersection", (id1, id2),
                    "paths share a link and overlapping colors",
                )
    return report


def solution_to_dict(
    status: str,
    objective,
    result: Optional[ExtractResult],
    report: Optional[VerificationReport],
    meta: Optional[dict] = None,
) -> dict:
    """Solution-JSON document shared by the solve/oracle/validate commands."""
    doc: dict = {"status": status, "objective": objective, "paths": []}
    if result is not None:
        for demand_id, path in sorted(result.paths.items()):
            doc["paths"].append(
                {
                    "demand": demand_id,
                    "links": list(path.link_ids()),
                    "first_color": path.first_color,
                    "width": path.width,
                }
            )
        if result.restored is not None:
            doc["restored"] = sorted(result.restored)
    doc["violations"] = [v.to_dict() for v in report.violations] if report else []
    if meta:
        doc["meta"] = meta
    return doc
