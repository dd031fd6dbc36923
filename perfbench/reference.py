"""Make the grid12 reference anew: the second-kind scenarios of a grid12-second
round and the status of each under the `notrim` variant.

    python3 perfbench/reference.py

For each modulation, the (first break, second break) pairs of grid12 loaded
with seed LOAD_SEED are taken in a fixed shuffle, skipping scenarios with
more than MAX_DEMANDS broken demands. A scenario in which the benchmark's own
shortest-path check finds a demand with no reach-feasible first color is
class "trim" and infeasible. Every other scenario is solved with the
`notrim` model, which is built without the trimming pass, and is class
"feasible" or "highs" by that status. A scenario is kept while its class
still has room in GRID_ROUND. Writes perfbench/grid12_reference.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

import checkout

MAX_DEMANDS = 33  # keeps the trimmed models at 0.3-10k variables


def main() -> int:
    workdir = checkout.bind("reference")
    try:
        import checks
        import workloads
        from flexrsa.backend import SolverConfig, solve
        from flexrsa.io import instance_from_dict
        from flexrsa.milp import build_model

        instances = []
        examined = 0
        for modulation, make_up in workloads.GRID_ROUND.items():
            room = dict(make_up)
            loaded = workloads.loaded_network("grid12", modulation)
            eligible = loaded.eligible_links()
            pairs = [(a, b) for a in eligible for b in eligible if a != b]
            random.Random(f"grid12-{modulation}-pool").shuffle(pairs)
            for a, b in pairs:
                if not any(room.values()):
                    break
                doc = workloads.second_kind_doc(loaded, a, b)
                inst = checks.parse_instance(doc)
                if len(inst.demands) > MAX_DEMANDS:
                    continue
                examined += 1
                started = time.perf_counter()
                if checks.non_reroutable(inst):
                    cls, status = "trim", "infeasible"
                elif room.get("feasible") or room.get("highs"):
                    model = build_model(instance_from_dict(doc), None, "notrim", "feasibility")
                    status = solve(model, SolverConfig(solver="builtin")).status
                    if status not in ("optimal", "infeasible"):
                        raise RuntimeError(f"{modulation} {a}/{b}: notrim status {status}")
                    cls = "feasible" if status == "optimal" else "highs"
                else:
                    continue
                print(f"{modulation} {a:2d}/{b:2d} {len(inst.demands):2d} demands {cls:8s} "
                      f"{time.perf_counter() - started:6.2f} s", flush=True)
                if room.get(cls):
                    room[cls] -= 1
                    instances.append(
                        {"modulation": modulation, "first_break": a, "broken_link": b,
                         "demands": len(inst.demands), "class": cls, "status": status}
                    )
            if any(room.values()):
                raise RuntimeError(f"{modulation}: no scenario left for {room}")
        out = {
            "made_by": "python3 perfbench/reference.py",
            "variant": "notrim",
            "load_seed": workloads.LOAD_SEED,
            "max_demands": MAX_DEMANDS,
            "scenarios_examined": examined,
            "instances": instances,
        }
        with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print(workloads.REFERENCE)
        return 0
    finally:
        checkout.release(workdir)


if __name__ == "__main__":
    sys.exit(main())
