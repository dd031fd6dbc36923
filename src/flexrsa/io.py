"""Instance / solution JSON serialization.

Instance files look like::

    {
      "slot_count": 80,
      "nodes": ["n1", ...],
      "links": [{"id": 1, "u": "n1", "v": "n2", "length_km": 300.0,
                 "colors": [1, 2, 5]}, ...],
      "demands": [{"id": 1, "s": "n1", "t": "n7", "width": 2,
                   "reach_km": 2500.0}, ...]
    }

"colors" entries may mix plain integers and inclusive [lo, hi] range pairs;
the loader normalizes both forms. The writer always emits maximal runs as
[lo, hi] pairs, which keeps output canonical and byte-reproducible.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from .model import Demand, InputError, Link, OpticalNetwork, RestorationInstance, RoutedPath


def normalize_colors(raw: Any, where: str, slot_count: Optional[int] = None) -> list[int]:
    """Expand a JSON color list (ints and/or [lo, hi] pairs) to sorted ints;
    a range must lie in 1..slot_count, checked before it is expanded."""
    if not isinstance(raw, list):
        raise InputError(f"{where}: colors must be a list")
    out: set[int] = set()
    for i, item in enumerate(raw):
        if isinstance(item, bool):
            raise InputError(f"{where}/{i}: colors must be integers")
        if isinstance(item, int):
            out.add(item)
        elif (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            lo, hi = item
            if lo > hi:
                raise InputError(f"{where}/{i}: empty color range [{lo}, {hi}]")
            if slot_count is not None and (lo < 1 or hi > slot_count):
                raise InputError(
                    f"{where}/{i}: color range [{lo}, {hi}] outside 1..{slot_count}"
                )
            out.update(range(lo, hi + 1))
        else:
            raise InputError(f"{where}/{i}: expected integer or [lo, hi] pair")
    return sorted(out)


def colors_to_runs(colors: Iterable[int]) -> list[list[int]]:
    """Compress a color set into maximal inclusive [lo, hi] runs."""
    runs: list[list[int]] = []
    for c in sorted(set(colors)):
        if runs and c == runs[-1][1] + 1:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    return runs


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise InputError(f"{where}: missing required key {key!r}")
    return obj[key]


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{where}: must be an integer")
    return value


def _require_int(obj: dict, key: str, where: str) -> int:
    return _integer(_require(obj, key, where), f"{where}/{key}")


def instance_from_dict(data: dict) -> RestorationInstance:
    if not isinstance(data, dict):
        raise InputError("/: instance document must be a JSON object")
    slot_count = _integer(_require(data, "slot_count", "/"), "/slot_count")
    nodes = _require(data, "nodes", "/")
    if not isinstance(nodes, list) or not nodes:
        raise InputError("/nodes: must be a non-empty list")
    raw_links = _require(data, "links", "/")
    raw_demands = data.get("demands", [])
    for key, value in (("links", raw_links), ("demands", raw_demands)):
        if not isinstance(value, list):
            raise InputError(f"/{key}: must be a list")

    links = []
    available = {}
    for i, raw in enumerate(raw_links):
        where = f"/links/{i}"
        if not isinstance(raw, dict):
            raise InputError(f"{where}: must be an object")
        link_id = _require_int(raw, "id", where)
        length = _require(raw, "length_km", where)
        if not isinstance(length, (int, float)) or isinstance(length, bool):
            raise InputError(f"{where}/length_km: must be a number")
        links.append(
            Link(
                id=link_id,
                u=_require(raw, "u", where),
                v=_require(raw, "v", where),
                length=float(length),
            )
        )
        available[link_id] = normalize_colors(
            _require(raw, "colors", where), f"{where}/colors", slot_count
        )

    demands = []
    for i, raw in enumerate(raw_demands):
        where = f"/demands/{i}"
        if not isinstance(raw, dict):
            raise InputError(f"{where}: must be an object")
        width = _require_int(raw, "width", where)
        reach = _require(raw, "reach_km", where)
        if not isinstance(reach, (int, float)) or isinstance(reach, bool):
            raise InputError(f"{where}/reach_km: must be a number")
        demands.append(
            Demand(
                id=_require_int(raw, "id", where),
                s=_require(raw, "s", where),
                t=_require(raw, "t", where),
                width=width,
                reach=float(reach),
            )
        )

    try:
        network = OpticalNetwork(nodes, links, available, slot_count)
        return RestorationInstance(network=network, demands=tuple(demands))
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def instance_to_dict(instance: RestorationInstance) -> dict:
    net = instance.network
    return {
        "slot_count": net.slot_count,
        "nodes": list(net.nodes),
        "links": [
            {
                "id": l.id,
                "u": l.u,
                "v": l.v,
                "length_km": l.length,
                "colors": colors_to_runs(net.available[l.id]),
            }
            for l in net.links
        ],
        "demands": [
            {"id": d.id, "s": d.s, "t": d.t, "width": d.width, "reach_km": d.reach}
            for d in instance.demands
        ],
    }


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise InputError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path: str) -> RestorationInstance:
    return instance_from_dict(read_json(path))


def load_solution(path: str, instance: RestorationInstance) -> tuple:
    """({demand id: RoutedPath} of a solution file's "paths" entries, the
    demand ids it claims as routed): its "restored" list when present, else
    every demand of the instance when its "status" is optimal or feasible,
    else none."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError("/: solution document must be a JSON object")
    entries = data.get("paths", [])
    if not isinstance(entries, list):
        raise InputError("/paths: must be a list")
    paths = {}
    for i, raw in enumerate(entries):
        where = f"/paths/{i}"
        if not isinstance(raw, dict):
            raise InputError(f"{where}: must be an object")
        link_ids = _require(raw, "links", where)
        if not isinstance(link_ids, list):
            raise InputError(f"{where}/links: must be a list")
        ids = [_integer(x, f"{where}/links/{k}") for k, x in enumerate(link_ids)]
        try:
            links = tuple(instance.network.link(x) for x in ids)
        except InputError as exc:
            raise InputError(f"{where}/links: solution references {exc}") from None
        demand = _require_int(raw, "demand", where)
        if demand in paths:
            raise InputError(f"{where}/demand: demand {demand} is listed twice")
        paths[demand] = RoutedPath(
            links=links,
            first_color=_require_int(raw, "first_color", where),
            width=_require_int(raw, "width", where),
        )
    claimed = data.get("restored")
    if claimed is None:
        routed = data.get("status") in ("optimal", "feasible")
        return paths, ({d.id for d in instance.demands} if routed else set())
    if not isinstance(claimed, list):
        raise InputError("/restored: must be a list")
    return paths, {_integer(x, f"/restored/{k}") for k, x in enumerate(claimed)}


def dump_json(data: dict, path: str) -> None:
    """Write a JSON document deterministically (stable key order, newline at EOF)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(data))


def dumps_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=False, ensure_ascii=False) + "\n"


def save_instance(instance: RestorationInstance, path: str) -> None:
    dump_json(instance_to_dict(instance), path)
