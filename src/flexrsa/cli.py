"""Command-line interface.

Subcommands: trim, solve, oracle, gen, validate, bench.
`solve` and `bench` answer through one function, `answer`, and
`meta.proven_by` names what decided each answer. Trimming alone can prove
infeasibility ("trimming"). Otherwise a fewest-hop first-fit routing that
meets the hop lower bound (`heuristic.hop_bound_routing`) is `optimal`
("hop_bound"), and no model is built and no solver runs; without one, the
MILP is built, solved and its paths extracted ("milp"). Either routing is
then verified in one place: an answer is certified iff its paths passed
`verify_solution`.
Exit codes for `solve`/`oracle`: 0 feasible, 10 infeasible, 20 time limit,
1 error, including an optimal or feasible `solve` answer that is not
certified (its solution JSON is still written, with `meta.verified: false`
and, when extraction failed, `meta.extraction_error`). A solve that keeps
its solver log (a failed external solve, or `--keep-files`) names it in
`meta.solver_log`. `validate` exits 0 only on a clean report, which needs
a path for every demand the file claims as routed (`io.load_solution`).
Every artifact embeds seed, variant, solver identity and tool version.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import __version__
from .backend import (
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    TIMELIMIT,
    SolverConfig,
    SolverNotFound,
    solve as backend_solve,
)
from .extract import (
    ExtractionError,
    ExtractResult,
    extract_paths,
    solution_to_dict,
    verify_solution,
)
from .heuristic import hop_bound_routing
from .io import dump_json, dumps_json, instance_to_dict, load_instance, load_solution
from .milp import build_model, model_statistics
from .model import InputError, RestorationInstance
from .oracle import OracleGuard, OracleGuardError, oracle_solve
from .testgen import (
    BUILTIN_TOPOLOGIES,
    MODULATION_REACH_KM,
    GenerationError,
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
from .trimming import compute_useful_triples, triples_to_dict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 10
EXIT_TIMELIMIT = 20
_EXIT_CODES = {
    OPTIMAL: EXIT_OK,
    FEASIBLE: EXIT_OK,
    INFEASIBLE: EXIT_INFEASIBLE,
    TIMELIMIT: EXIT_TIMELIMIT,
}


def _emit(doc: dict, out_path):
    text = dumps_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_topology(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    if arg in BUILTIN_TOPOLOGIES:
        return builtin_topology_path(arg)
    raise InputError(
        f"topology {arg!r} is neither a file nor a builtin name {BUILTIN_TOPOLOGIES}"
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _timed(timings: dict, phase: str, fn, *args):
    """fn(*args), its wall time recorded as timings[phase] even if it raises."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        timings[phase] = round(time.perf_counter() - t0, 6)


def cmd_trim(args) -> int:
    instance = load_instance(args.instance)
    meta = {"instance": args.instance, "tool_version": __version__}
    triples = _timed(meta, "trim_seconds", compute_useful_triples, instance)
    doc = triples_to_dict(triples, instance)
    doc["meta"] = {**meta, "infeasible": bool(triples.non_reroutable)}
    _emit(doc, args.output)
    return EXIT_OK


def answer(
    instance: RestorationInstance, variant: str, mode: str, config: SolverConfig
) -> dict:
    """The solution document of one instance, for both `solve` and `bench`.

    One pass: a non-re-routable demand proves infeasibility in feasibility
    mode and is excluded in maxsubset mode; then the routing is the hop
    bound's or, when it has none, the MILP's (build, solve, extract); then
    one tail verifies that routing. `meta.proven_by` names what decided:
    "trimming", "hop_bound" or "milp". `objective` is the slot count in
    feasibility mode and the number of restored demands in maxsubset mode,
    as in `oracle`. A MILP answer's `status` is the solver's. `meta.verified`
    is true iff the routing passed `verify_solution`. The layers are called
    through this module's globals, so a caller can wrap them.
    """
    timings: dict = {}
    meta = {
        "variant": variant,
        "mode": mode,
        "solver": config.solver,
        "time_limit": config.time_limit,
        "tool_version": __version__,
        "timings": timings,
        "solver_invoked": False,
    }
    triples = _timed(timings, "trim_seconds", compute_useful_triples, instance)
    excluded = sorted(triples.non_reroutable)
    if excluded and mode == "feasibility":
        meta["proven_by"] = "trimming"
        meta["non_reroutable"] = excluded
        return solution_to_dict(INFEASIBLE, None, None, None, meta)
    if excluded:
        meta["excluded_non_reroutable"] = excluded
        # trimming is per demand: the triples of the kept demands stay valid
        instance = RestorationInstance(
            instance.network,
            tuple(d for d in instance.demands if d.id not in excluded),
        )

    paths = _timed(timings, "bound_seconds", hop_bound_routing, instance, triples)
    if paths is not None:  # every demand placed at the least cost
        meta["proven_by"] = "hop_bound"
        status = OPTIMAL
        result = ExtractResult(paths)
        objective = result.total_slots()
        if mode == "maxsubset":
            result.restored = frozenset(paths)
            objective = len(paths)
    else:
        meta["proven_by"] = "milp"
        model = _timed(
            timings, "build_seconds", build_model, instance, triples, variant, mode
        )
        meta["model"] = model_statistics(model)
        outcome = backend_solve(model, config)
        meta["solver_invoked"] = outcome.solver_name != "trivial"
        meta["solver_name"] = outcome.solver_name
        timings["solve_seconds"] = round(outcome.wall_seconds, 6)
        if outcome.highs_seconds is not None:
            timings["highs_seconds"] = round(outcome.highs_seconds, 6)
        if outcome.solver_stats is not None:
            meta["solver_stats"] = outcome.solver_stats
        if outcome.message:
            meta["solver_message"] = outcome.message
        if outcome.log_path:
            meta["solver_log"] = outcome.log_path
        status, objective = outcome.status, outcome.objective
        if mode == "maxsubset":  # the restored count, as `oracle` reports it, not the big-M cost
            objective = None
            if outcome.chosen is not None:  # only selectors have negative cost
                objective = int((model.c[outcome.chosen] < 0).sum())
        result = None
        if outcome.chosen is not None:
            try:
                result = _timed(
                    timings, "extract_seconds", extract_paths, outcome.chosen, model, instance
                )
            except ExtractionError as exc:
                meta["extraction_error"] = str(exc)
                meta["verified"] = False

    report = None
    if result is not None:
        report = _timed(timings, "verify_seconds", verify_solution, result.paths, instance)
        meta["verified"] = report.ok
    return solution_to_dict(status, objective, result, report, meta)


def reported_status(doc: dict) -> str:
    """The answer's status, except that an optimal or feasible answer that
    is not certified is an error."""
    if doc["status"] in (OPTIMAL, FEASIBLE) and not doc["meta"].get("verified"):
        return ERROR
    return doc["status"]


def cmd_solve(args) -> int:
    timings: dict = {}
    instance = _timed(timings, "load_seconds", load_instance, args.instance)
    config = SolverConfig(
        solver=args.solver,
        time_limit=args.time_limit,
        workdir=args.workdir,
        keep_files=args.keep_files,
    )
    doc = answer(instance, args.variant, args.mode, config)
    meta = doc["meta"]
    meta["timings"] = {**timings, **meta["timings"]}
    doc["meta"] = {"instance": args.instance, **meta}
    _emit(doc, args.output)
    return _EXIT_CODES.get(reported_status(doc), EXIT_ERROR)


def cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    guard = OracleGuard(args.max_nodes, args.max_colors, args.max_demands)
    outcome = oracle_solve(instance, args.mode, guard)
    result_paths = dict(outcome.witness)
    meta = {
        "instance": args.instance,
        "mode": args.mode,
        "oracle": True,
        "tool_version": __version__,
        "optima_count": outcome.optima_count,
    }
    if args.mode == "maxsubset":
        meta["max_subset_size"] = outcome.max_subset_size
        result = ExtractResult(paths=result_paths, restored=outcome.restored)
        status = OPTIMAL
        objective = outcome.max_subset_size
    else:
        result = ExtractResult(paths=result_paths)
        status = OPTIMAL if outcome.feasible else INFEASIBLE
        objective = outcome.min_total_slots
    report = verify_solution(result.paths, instance) if result_paths else None
    _emit(solution_to_dict(status, objective, result, report, meta), args.output)
    return EXIT_OK if outcome.feasible or args.mode == "maxsubset" else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    second_kind = args.break_link is not None and args.kind == "second"
    if args.first_break is not None and not second_kind:
        raise InputError("--first-break needs --break and --kind second")
    if args.kind is not None and args.break_link is None:
        raise InputError("--kind needs --break")
    kind = args.kind or "first"
    topo_path = _resolve_topology(args.topology)
    topology = load_instance(topo_path).network
    if args.slot_count is not None:
        full = {l.id: range(1, args.slot_count + 1) for l in topology.links}
        topology = type(topology)(
            topology.nodes, topology.links, full, args.slot_count
        )
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
    except ValueError:
        raise InputError(
            f"--widths must be comma-separated integers, got {args.widths!r}"
        ) from None
    loaded = generate_loaded_network(
        topology,
        reach_km=MODULATION_REACH_KM[args.modulation],
        width_schedule=widths,
        seed=args.seed,
        modulation=args.modulation,
    )

    topo_name = (
        args.topology
        if args.topology in BUILTIN_TOPOLOGIES
        else os.path.splitext(os.path.basename(topo_path))[0]
    )
    base = {
        "topology": topo_name,
        "tool_version": __version__,
        "slot_count": topology.slot_count,
    }
    if args.break_link is None:
        name = args.name or f"{topo_name}-{args.modulation}-s{args.seed}-loaded"
        instance = RestorationInstance(loaded.network, ())
        manifest = dict(
            base,
            seed=loaded.seed,
            modulation=args.modulation,
            reach_km=loaded.reach_km,
            width_schedule=list(loaded.width_schedule),
            demands_provisioned=len(loaded.provisioned),
            eligible_links=loaded.eligible_links(),
        )
    else:
        scenario = make_scenario(
            loaded, args.break_link, kind, first_break=args.first_break
        )
        name = args.name or (
            f"{topo_name}-{args.modulation}-s{args.seed}"
            f"-b{args.break_link}-{kind}"
        )
        instance = scenario.instance
        manifest = dict(base, **scenario.manifest)

    os.makedirs(args.out_dir, exist_ok=True)
    instance_path = os.path.join(args.out_dir, f"{name}.json")
    manifest_path = os.path.join(args.out_dir, f"{name}.manifest.json")
    dump_json(instance_to_dict(instance), instance_path)
    dump_json(manifest, manifest_path)
    print(instance_path)
    print(manifest_path)
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    paths, claimed = load_solution(args.solution, instance)
    report = verify_solution(paths, instance)
    for demand_id in sorted(claimed - paths.keys()):
        report.add("unrouted", (demand_id,), "claimed as routed but has no path")
    _emit(
        {
            "ok": report.ok,
            "violations": [v.to_dict() for v in report.violations],
            "meta": {"tool_version": __version__, "paths_checked": len(paths)},
        },
        args.output,
    )
    return EXIT_OK if report.ok else EXIT_ERROR


def cmd_bench(args) -> int:
    from .bench import discover_cases, rows_to_csv, rows_to_markdown, run_bench

    cases = discover_cases(args.corpus_dir)
    rows = run_bench(
        cases,
        variants=tuple(args.variants.split(",")),
        solvers=tuple(args.solvers.split(",")),
        mode=args.mode,
        time_limit=args.time_limit,
        jobs=args.jobs,
    )
    csv_text = rows_to_csv(rows)
    md_text = rows_to_markdown(rows, cases, exclude_over=args.exclude_over)
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(args.md, "w", encoding="utf-8") as fh:
        fh.write(md_text)
    print(args.csv)
    print(args.md)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Parsing never changes it, so
    calls of `main` share it, from any thread."""
    parser = argparse.ArgumentParser(
        prog="flexrsa",
        description="Exact solver and benchmark rig for restoration-style "
        "routing and spectrum allocation",
    )
    parser.add_argument("--version", action="version", version=f"flexrsa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trim", help="compute useful triples and stats")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_trim)

    p = sub.add_parser("solve", help="trim, build a MILP variant, solve, extract")
    p.add_argument("instance")
    p.add_argument("--variant", choices=("base", "notrim", "trimmed"), default="trimmed")
    p.add_argument("--mode", choices=("feasibility", "maxsubset"), default="feasibility")
    p.add_argument("--solver", default="auto",
                   help='"auto", "cbc", "scip", "builtin", or "cmd:<template>"')
    p.add_argument("--time-limit", type=float, default=500.0)
    p.add_argument("--workdir")
    p.add_argument("--keep-files", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive ground truth (small instances)")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("feasibility", "maxsubset"), default="feasibility")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--max-colors", type=int, default=6)
    p.add_argument("--max-demands", type=int, default=4)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate loaded networks and break scenarios")
    p.add_argument("topology", help=f"instance JSON path or one of {BUILTIN_TOPOLOGIES}")
    p.add_argument("--modulation", choices=sorted(MODULATION_REACH_KM), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slot-count", type=int)
    p.add_argument("--widths", default="1,4,2,1")
    p.add_argument("--break", dest="break_link", type=int)
    p.add_argument("--kind", choices=("first", "second"))
    p.add_argument("--first-break", type=int)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--name")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="verify a solution JSON against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run a corpus and emit CSV + Markdown tables")
    p.add_argument("corpus_dir")
    p.add_argument("--variants", default="base,notrim,trimmed")
    p.add_argument("--solvers", default="auto")
    p.add_argument("--mode", choices=("feasibility", "maxsubset"), default="feasibility")
    p.add_argument("--time-limit", type=float, default=500.0)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--csv", default="bench.csv")
    p.add_argument("--md", default="bench.md")
    p.add_argument("--exclude-over", type=float)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GenerationError, OracleGuardError, SolverNotFound, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
