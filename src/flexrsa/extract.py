"""Turn a solver assignment back into routed paths and certify them.

Extraction walks each demand's flow at its first color from the source; any
assignment that does not decompose into one simple path per routed demand
(split flow, leftover cyclic components, a broken color block) raises
ExtractionError - that indicates a model bug, not bad input. Verification
re-checks every routed path against the original instance and reports all
violations instead of raising; its per-path checks are
`model.path_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .milp import FlowVar, MilpModel, SelectVar
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
    assignment: dict, model: MilpModel, instance: RestorationInstance
) -> ExtractResult:
    """Reconstruct one RoutedPath per routed demand from a 0/1 assignment."""
    net = instance.network
    set_vars: dict = {}
    selected: dict = {}
    for key, value in assignment.items():
        if not value:
            continue
        if isinstance(key, SelectVar):
            selected[key.demand] = 1
        elif isinstance(key, FlowVar):
            set_vars.setdefault(key.demand, set()).add(
                (key.link, key.forward, key.color)
            )

    maxsubset = model.mode == "maxsubset"
    paths: dict = {}
    for demand in sorted(instance.demands, key=lambda d: d.id):
        occupied = set_vars.get(demand.id, set())
        if maxsubset and not selected.get(demand.id):
            if occupied:
                raise ExtractionError(
                    demand.id, "flow assigned to an unselected demand"
                )
            continue
        if not occupied:
            raise ExtractionError(demand.id, "no flow assigned")

        by_dirlink: dict = {}
        for link_id, forward, color in occupied:
            by_dirlink.setdefault((link_id, forward), set()).add(color)

        def start_node(link_id, forward):
            link = net.link(link_id)
            return link.u if forward else link.v

        starts = [
            dl for dl in by_dirlink if start_node(*dl) == demand.s
        ]
        if len(starts) != 1:
            raise ExtractionError(
                demand.id, f"flow leaves the source on {len(starts)} links"
            )
        tracer = min(by_dirlink[starts[0]])

        links = []
        used = set()
        cur = demand.s
        visited = {demand.s}
        while cur != demand.t:
            nxt = [
                (link_id, forward)
                for (link_id, forward), colors in by_dirlink.items()
                if (link_id, forward) not in used
                and start_node(link_id, forward) == cur
                and tracer in colors
            ]
            if len(nxt) != 1:
                raise ExtractionError(
                    demand.id,
                    f"{len(nxt)} outgoing links at {cur!r} on color {tracer}",
                )
            link_id, forward = nxt[0]
            used.add((link_id, forward))
            link = net.link(link_id)
            links.append(link)
            cur = link.v if forward else link.u
            if cur in visited and cur != demand.t:
                raise ExtractionError(demand.id, f"cycle through {cur!r}")
            visited.add(cur)

        w = demand.width
        block = set(range(tracer, tracer + w))
        for dirlink in used:
            if by_dirlink[dirlink] != block:
                raise ExtractionError(
                    demand.id,
                    f"occupied colors {sorted(by_dirlink[dirlink])} on link "
                    f"{dirlink[0]} are not the contiguous block {sorted(block)}",
                )
        if len(occupied) != w * len(links):
            raise ExtractionError(
                demand.id, "leftover flow outside the extracted path"
            )
        paths[demand.id] = RoutedPath(
            links=tuple(links), first_color=tracer, width=w
        )

    restored = frozenset(paths) if maxsubset else None
    return ExtractResult(paths=paths, restored=restored)


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
