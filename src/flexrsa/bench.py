"""Benchmark harness: run (instance x variant x solver) cells over a corpus
directory and report a per-cell CSV plus an aggregated Markdown table
(mean variable counts per variant, mean runtimes per solver/variant pair,
over the cells that built a model: trimming may prove infeasibility first).

Every cell is one `cli.answer`, the pipeline behind `flexrsa solve`, so a
cell's status and objective are those of `flexrsa solve` on the same
instance, variant and mode: maxsubset excludes non-re-routable demands, and
an optimal or feasible answer that is not certified is `error`.

Instances are `*.json` files; a sibling `<name>.manifest.json` (as written by
`flexrsa gen`) supplies the grouping metadata (kind, modulation, broken link).
Rows are sorted by (case, variant, solver), so reruns differ only in the
`TIMING_COLUMNS`.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from . import cli
from .io import load_instance, read_json
from .model import InputError

# vary between reruns; a phase that did not run (no hop bound after a
# trimming proof, no model after the hop bound, no builtin solve, no
# solution to extract, no paths to verify) leaves its column empty.
# A case is loaded once, and its load time goes on each of its rows.
TIMING_COLUMNS = (
    "load_seconds", "trim_seconds", "bound_seconds", "build_seconds",
    "solve_seconds", "highs_seconds", "extract_seconds", "verify_seconds",
)
CSV_COLUMNS = [
    "case", "kind", "modulation", "broken_link", "variant", "solver",
    "variables", "constraints", *TIMING_COLUMNS, "status", "objective",
]


@dataclass
class BenchCase:
    name: str
    path: str
    manifest: dict

    @property
    def group(self) -> str:
        topo = self.manifest.get("topology", "corpus")
        mod = self.manifest.get("modulation") or "?"
        label = f"{topo}-{mod}"
        if self.manifest.get("kind") == "second":
            label += f" {self.manifest.get('first_break')}"
        return label


def discover_cases(corpus_dir: str) -> list:
    """The corpus's instances with their manifests; a case whose manifest
    is not a JSON object is skipped with a line on stderr."""
    cases = []
    for entry in sorted(os.listdir(corpus_dir)):
        if not entry.endswith(".json"):
            continue
        if entry.endswith(".manifest.json"):
            continue
        path = os.path.join(corpus_dir, entry)
        manifest_path = path[: -len(".json")] + ".manifest.json"
        manifest = {}
        if os.path.exists(manifest_path):
            try:
                manifest = read_json(manifest_path)
                if not isinstance(manifest, dict):
                    raise InputError(f"{manifest_path}: manifest must be a JSON object")
            except InputError as exc:
                print(f"bench: skipping {path}: {exc}", file=sys.stderr)
                continue
        cases.append(BenchCase(entry[: -len(".json")], path, manifest))
    return cases


def run_cell(
    case: BenchCase,
    instance,
    load_seconds: float,
    variant: str,
    solver: str,
    mode: str,
    time_limit: float,
) -> dict:
    doc = cli.answer(
        instance, variant, mode, cli.SolverConfig(solver=solver, time_limit=time_limit)
    )
    timings = {"load_seconds": round(load_seconds, 6), **doc["meta"]["timings"]}
    model = doc["meta"].get("model", {})  # none when trimming proved infeasibility
    return {
        "case": case.name,
        "kind": case.manifest.get("kind", ""),
        "modulation": case.manifest.get("modulation", ""),
        "broken_link": case.manifest.get("broken_link", ""),
        "variant": variant,
        "solver": solver,
        "variables": model.get("variables", ""),
        "constraints": model.get("constraints", ""),
        **{column: timings.get(column, "") for column in TIMING_COLUMNS},
        "status": cli.reported_status(doc),
        "objective": "" if doc["objective"] is None else doc["objective"],
    }


def run_bench(
    cases: list,
    variants=("base", "notrim", "trimmed"),
    solvers=("auto",),
    mode: str = "feasibility",
    time_limit: float = 500.0,
    jobs: int = 2,
) -> list:
    cells = []
    for case in cases:
        t0 = time.perf_counter()
        try:
            instance = load_instance(case.path)
        except InputError as exc:
            print(f"bench: skipping {case.path}: {exc}", file=sys.stderr)
            continue
        load_seconds = time.perf_counter() - t0
        cells += [(case, instance, load_seconds, v, s) for v in variants for s in solvers]
    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        rows = list(
            pool.map(
                lambda cell: run_cell(*cell, mode=mode, time_limit=time_limit),
                cells,
            )
        )
    rows.sort(key=lambda r: (r["case"], r["variant"], r["solver"]))
    return rows


def rows_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _mean(values) -> Optional[float]:
    values = [v for v in values if v != ""]  # "": a cell with no model
    return sum(values) / len(values) if values else None


def rows_to_markdown(rows: list, cases: list, exclude_over: Optional[float] = None) -> str:
    """Table-of-means per case group; optionally a second table excluding
    cells slower than `exclude_over` seconds."""
    group_of = {c.name: c.group for c in cases}
    variants = sorted({r["variant"] for r in rows})
    solvers = sorted({r["solver"] for r in rows})

    def build_table(selected_rows, title):
        groups: dict = {}
        for row in selected_rows:
            groups.setdefault(group_of.get(row["case"], "corpus"), []).append(row)
        header = (
            ["Case", "#Tests"]
            + [f"Vars {v}" for v in variants]
            + [f"{s}/{v} s" for s in solvers for v in variants]
        )
        lines = [f"### {title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for group in sorted(groups):
            grows = groups[group]
            n_tests = len({r["case"] for r in grows})
            cells = [group, str(n_tests)]
            for v in variants:
                mean = _mean(
                    [r["variables"] for r in grows if r["variant"] == v]
                )
                cells.append("" if mean is None else f"{mean:.0f}")
            for s in solvers:
                for v in variants:
                    mean = _mean(
                        [
                            r["solve_seconds"]
                            for r in grows
                            if r["variant"] == v and r["solver"] == s
                        ]
                    )
                    cells.append("" if mean is None else f"{mean:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        return lines

    out = build_table(rows, "All test cases")
    if exclude_over is not None:
        kept = [
            r for r in rows
            if r["solve_seconds"] == "" or r["solve_seconds"] <= exclude_over
        ]
        out += build_table(
            kept, f"Excluding cells over {exclude_over:g} s"
        )
    return "\n".join(out) + "\n"
