"""The traced run: spans around the public layer calls, from outside flexrsa.

`instrument` swaps the layer functions that `flexrsa.cli` calls (and the
generators in `flexrsa.testgen`) for wrappers that record a span each, and
puts the originals back on exit. Nothing inside `src/flexrsa` is changed. A
layer function the program no longer has is left out and reported as absent.

After each traced answer the run replays, on the kept LP file, the work the
solver subprocess hides: `lpformat.emit_lp_text` on the model,
`lpformat.parse_lp_text` on the file, and `lp_driver.solve_lp_file` (a second
HiGHS solve, which is why the traced run is kept apart from the untraced one).

Spans are kept in memory and written out when the run ends. The tracer is
used from one thread.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# name in flexrsa.cli -> span name
CLI_LAYERS = {
    "load_instance": "io.load",
    "compute_useful_triples": "trimming.trim",
    "build_model": "milp.build",
    "backend_solve": "backend.solve",
    "extract_paths": "extract.extract",
    "verify_solution": "extract.verify",
}
TESTGEN_LAYERS = {
    "generate_loaded_network": "testgen.generate",
    "make_scenario": "testgen.generate",
}
# (module, function) replayed on the kept LP file -> span name
REPLAYS = {
    ("flexrsa.lpformat", "emit_lp_text"): "lpformat.emit",
    ("flexrsa.lpformat", "parse_lp_text"): "lpformat.parse",
    ("flexrsa.lp_driver", "solve_lp_file"): "lp_driver.solve",
}

# per-layer metric -> (unit, the layers it needs)
METRICS = {
    "io.load_s": ("s", ("io.load",)),
    "trimming.trim_s": ("s", ("trimming.trim",)),
    "trimming.kept_ratio": ("ratio", ("trimming.trim",)),
    "trimming.proved_infeasible": ("count", ("trimming.trim",)),
    "milp.build_s": ("s", ("milp.build",)),
    "milp.variables": ("count", ("milp.build",)),
    "milp.constraints": ("count", ("milp.build",)),
    "milp.nonzeros": ("count", ("milp.build",)),
    "lpformat.emit_s": ("s", ("lpformat.emit",)),
    "lpformat.lp_bytes": ("bytes", ("lpformat.emit",)),
    "lpformat.parse_s": ("s", ("lpformat.parse",)),
    "backend.solve_s": ("s", ("backend.solve",)),
    "backend.spawns": ("count", ("backend.solve",)),
    "backend.overhead_s": ("s", ("backend.solve", "lpformat.emit", "lp_driver.solve")),
    "lp_driver.solve_s": ("s", ("lp_driver.solve",)),
    "lp_driver.highs_s": ("s", ("lp_driver.solve", "lpformat.parse")),
    "extract.extract_s": ("s", ("extract.extract",)),
    "extract.verify_s": ("s", ("extract.verify",)),
    "testgen.generate_s": ("s", ("testgen.generate",)),
    "cli.self_s": ("s", ("cli.solve",)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    answer: int  # answer id, -1 outside answers

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.answer = -1
        self.absent: set = set()
        self.counts: dict = {}  # answer id -> {count name: value}
        self.models: dict = {}  # answer id -> last model built
        self.answers = 0

    def new_answer(self) -> int:
        self.answers += 1
        return self.answers

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.answer))
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value) -> None:
        per = self.counts.setdefault(self.answer, {})
        per[name] = per.get(name, 0) + value

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "trimming.trim":
            instance = args[0]
            net = instance.network
            free = sum(len(net.available[l.id]) for l in net.links)
            self.count("trim.useful", len(result.useful))
            self.count("trim.candidates", len(instance.demands) * free)
        elif name == "milp.build":
            self.models[self.answer] = result
            self.count("milp.variables", len(result.variables))
            self.count("milp.constraints", len(result.constraints))
            self.count("milp.nonzeros", sum(len(c.coeffs) for c in result.constraints))
        elif name == "backend.solve":
            self.count("backend.spawns", int(result.solver_name != "trivial"))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "absent": sorted(self.absent),
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.answer] for s in self.spans
                    ],
                },
                fh,
            )


def _swap(module, names: dict, tracer: Tracer, saved: list) -> None:
    for attr, span_name in names.items():
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.absent.add(span_name)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(span_name, fn))


@contextmanager
def instrument(tracer):
    """Wrap the layer functions for the duration of the block; no-op for None."""
    if tracer is None:
        yield
        return
    import flexrsa.cli
    import flexrsa.testgen

    saved: list = []
    try:
        _swap(flexrsa.cli, CLI_LAYERS, tracer, saved)
        _swap(flexrsa.testgen, TESTGEN_LAYERS, tracer, saved)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def replay_functions(tracer: Tracer) -> dict:
    """span name -> the replayed function, for those the program still has."""
    out = {}
    for (module_name, attr), span_name in REPLAYS.items():
        try:
            fn = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            tracer.absent.add(span_name)
            continue
        out[span_name] = fn
    return out


def replay(tracer: Tracer, replays: dict, workdir: str, time_limit: float) -> None:
    """Replay emit, parse and the in-process driver solve for the current answer."""
    model = tracer.models.pop(tracer.answer, None)
    lp_file = os.path.join(workdir, "model.lp")
    if model is None or not os.path.exists(lp_file):
        return  # trim-proven or variable-free answer: no LP file was written
    if "lpformat.emit" in replays:
        with tracer.span("lpformat.emit"):
            text = replays["lpformat.emit"](model)
        tracer.count("lpformat.lp_bytes", len(text.encode("utf-8")))
    if "lpformat.parse" in replays:
        with open(lp_file, encoding="utf-8") as fh:
            text = fh.read()
        with tracer.span("lpformat.parse"):
            replays["lpformat.parse"](text)
    if "lp_driver.solve" in replays:
        with tracer.span("lp_driver.solve"):
            replays["lp_driver.solve"](lp_file, os.path.join(workdir, "replay.sol"), time_limit)


def span(tracer, name: str):
    """tracer.span(name), or nothing when not tracing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, answers: dict, untraced: list) -> dict:
    """Per-answer medians (`<metric>`) and run totals (`<metric>.total`);
    testgen.generate_s is the median over set-ups instead.

    answers maps each traced answer id to its solution document; untraced
    holds the times of the untraced answers made in the same run.
    """
    per: dict = {a: {} for a in answers}
    generate = {}  # enclosing set-up span (-1: none) -> testgen seconds
    children: dict = {}
    for s in tracer.spans:
        children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    for i, s in enumerate(tracer.spans):
        if s.name == "testgen.generate":
            generate[s.parent] = generate.get(s.parent, 0.0) + s.seconds
            continue
        if s.answer not in per:
            continue
        key = s.name + "_s"
        per[s.answer][key] = per[s.answer].get(key, 0.0) + s.seconds
        if s.name == "cli.solve":
            per[s.answer]["cli.self_s"] = s.seconds - children.get(i, 0.0)
    counted = {a: tracer.counts.get(a, {}) for a in answers}
    for a, values in per.items():
        counts = counted[a]
        for name in ("backend.spawns", "lpformat.lp_bytes", "milp.variables",
                     "milp.constraints", "milp.nonzeros"):
            if name in counts:
                values[name] = counts[name]
        if counts.get("trim.candidates"):
            values["trimming.kept_ratio"] = counts["trim.useful"] / counts["trim.candidates"]
            values["trimming.proved_infeasible"] = int(
                answers[a].get("meta", {}).get("proven_by") == "trimming"
            )
        if "lp_driver.solve_s" in values:
            if "lpformat.parse_s" in values:
                values["lp_driver.highs_s"] = values["lp_driver.solve_s"] - values["lpformat.parse_s"]
            if "backend.solve_s" in values and "lpformat.emit_s" in values:
                values["backend.overhead_s"] = (
                    values["backend.solve_s"] - values["lpformat.emit_s"] - values["lp_driver.solve_s"]
                )

    metrics = {}
    for name, (unit, needs) in METRICS.items():
        if tracer.absent.intersection(needs):
            for key in (name, name + ".total"):
                metrics[key] = {"value": None, "unit": unit, "absent": True}
            continue
        if name == "testgen.generate_s":  # per set-up, not per answer
            values = [v for parent, v in generate.items() if parent >= 0]
            total = sum(generate.values())
        else:
            values = [v[name] for v in per.values() if name in v]
            total = sum(values)
        if name == "trimming.kept_ratio":
            useful = sum(c.get("trim.useful", 0) for c in counted.values())
            cand = sum(c.get("trim.candidates", 0) for c in counted.values())
            total = useful / cand if cand else 0.0
        metrics[name] = {"value": _median(values), "unit": unit}
        metrics[name + ".total"] = {"value": total, "unit": unit}
    traced = [v["cli.solve_s"] for v in per.values() if "cli.solve_s" in v]
    metrics["trace.overhead_s"] = {
        "value": _median(traced) - _median(untraced),
        "unit": "s",
    }
    return metrics
