"""What the benchmark in perfbench/ needs from flexrsa.

The traced run swaps or replays layer functions by name (perfbench/tracing.py),
so renaming or moving one of them turns its per-layer metrics into nulls.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist():
    tracing = load_tracing()
    named = (
        [("flexrsa.cli", attr) for attr in tracing.CLI_LAYERS]
        + [("flexrsa.testgen", attr) for attr in tracing.TESTGEN_LAYERS]
        + list(tracing.REPLAYS)
    )
    for module_name, attr in named:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


def test_traced_tiny_run_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         "tiny-oracle", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for name in per_layer:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
