"""Restoration benchmark: time `flexrsa solve` answers on one workload.

    python3 perfbench/run.py --workload ring14-first --seed 1 --seconds 20 --trace 0

Drives the `flexrsa solve` entry point in process (`flexrsa.cli.main` with
`--variant trimmed --solver builtin`) in closed loops over instances that
set-up generates from the seed, for whole rounds until `--seconds` of
answering have passed. Every answer is checked by `checks.py`. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with `--trace 0` and per-layer ones with `--trace 1`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import checkout
import checks
import tracing
import workloads

SETUP_REPEATS = 3
OUT_DIR = os.path.join(checkout.ROOT, ".perfbench-out")
SOLVE_ARGS = ["--variant", "trimmed", "--solver", "builtin"]
REPLAY_TIME_LIMIT = 500.0  # the CLI's default time limit


class Runner:
    """Makes answers, plain or traced, and keeps them for checking."""

    def __init__(self, workload, tracer=None):
        import flexrsa.cli

        self.cli = flexrsa.cli
        self.workload = workload
        self.tracer = tracer
        self.replays = tracing.replay_functions(tracer) if tracer is not None else None
        self.traced: dict = {}  # answer id -> solution, of the measured answers

    def answer(self, task, mode: str, traced: bool = False) -> workloads.Answer:
        """One `flexrsa solve` call, timed from instance file to written solution."""
        out = f"{task.path[:-5]}.{mode}{'.traced' if traced else ''}.sol.json"
        argv = ["solve", task.path, *SOLVE_ARGS, "--mode", mode, "-o", out]
        keep = None
        if traced:
            keep = out[:-9] + ".files"
            argv += ["--workdir", keep, "--keep-files"]
            self.tracer.answer = self.tracer.new_answer()
        started = time.perf_counter()
        try:
            if traced:
                with tracing.instrument(self.tracer), self.tracer.span("cli.solve"):
                    code = self.cli.main(argv)
                seconds = time.perf_counter() - started
                tracing.replay(self.tracer, self.replays, keep, REPLAY_TIME_LIMIT)
            else:
                code = self.cli.main(argv)
                seconds = time.perf_counter() - started
            with open(out, encoding="utf-8") as fh:
                solution = json.load(fh)
        except Exception:  # an answer that fails is counted, not fatal
            print(f"{task.name} {mode}: answer failed\n{traceback.format_exc()}", file=sys.stderr)
            return workloads.Answer(task, mode, time.perf_counter() - started, -1, {"status": "error"})
        finally:
            if traced:
                answer_id, self.tracer.answer = self.tracer.answer, -1
                shutil.rmtree(keep, ignore_errors=True)
        if traced:
            self.traced[answer_id] = solution
        return workloads.Answer(task, mode, seconds, code, solution)

    def run_task(self, task) -> list:
        """Answer sets for one task: the plain answers, then the traced ones."""
        plain, traced = [], []
        mode = "feasibility"
        while mode:
            a = self.answer(task, mode)
            plain.append(a)
            if self.tracer is not None:
                traced.append(self.answer(task, mode, traced=True))
            mode = self.workload.follow_up(task, a)
        return [plain, traced] if self.tracer is not None else [plain]

    def run_round(self, tasks: list) -> list:
        clients = 1 if self.tracer is not None else self.workload.clients
        if clients == 1:
            return [self.run_task(t) for t in tasks]
        with ThreadPoolExecutor(max_workers=clients) as pool:
            return list(pool.map(self.run_task, tasks))


def errored(a: workloads.Answer) -> bool:
    return a.exit_code not in (0, 10) or a.solution.get("status") not in ("optimal", "infeasible")


def warm_up_task(workdir: str) -> workloads.Task:
    """The first instance of the tiny corpus that needs the MILP solver."""
    seed = workloads.TINY_BASE_SEED
    while True:
        doc = workloads.tiny_doc(seed)
        if workloads.tiny_class(checks.parse_instance(doc)) == "none":
            path = os.path.join(workdir, "warm-up.json")
            return workloads.Task("warm-up", path, workloads.write_instance(doc, path))
        seed += 1


def set_up(name: str, seed: int, workdir: str, tracer):
    """Import flexrsa once, then generate the instances and make one warm-up
    answer SETUP_REPEATS times; returns the last workload, its first round,
    a runner and the set-up time (import plus the median repetition)."""
    started = time.perf_counter()
    import flexrsa.cli  # noqa: F401  (the import is part of set-up)

    import_s = time.perf_counter() - started
    times = []
    for i in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        started = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, d)
        with tracing.span(tracer, "setup"), tracing.instrument(tracer):
            workload.setup()
            first = workload.round(0)
        runner = Runner(workload, tracer)
        warm_up = warm_up_task(d)
        runner.answer(warm_up, "feasibility")
        if tracer is not None:
            runner.answer(warm_up, "feasibility", traced=True)
            runner.traced.clear()
        times.append(time.perf_counter() - started)
    return workload, first, runner, import_s + statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(times: list):
    """(percentile, value) of the highest percentile with ten answers beyond it."""
    if len(times) < 40:
        return None
    ordered = sorted(times)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def run(args, workdir: str) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    workload, tasks, runner, setup_s = set_up(args.workload, args.seed, workdir, tracer)

    results = []  # (task, answer sets)
    answering = 0.0
    r = 0
    while True:
        started = time.perf_counter()
        sets = runner.run_round(tasks)
        answering += time.perf_counter() - started
        results += zip(tasks, sets)
        r += 1
        # stop at the round end nearest to --seconds, so that a long round
        # does not overshoot the run by up to its whole length
        if answering + 0.5 * answering / r >= args.seconds:
            break
        with tracing.instrument(tracer):
            tasks = workload.round(r)

    attempted = failed = 0
    correct = True
    plain_times = []
    for task, answer_sets in results:
        for i, answers in enumerate(answer_sets):
            attempted += len(answers)
            if i == 0:
                plain_times += [a.seconds for a in answers]
            if any(errored(a) for a in answers):
                failed += len(answers)
                print(f"{task.name}: error {[a.solution.get('status') for a in answers]}",
                      file=sys.stderr)
                continue
            problems = workload.check(answers)
            if problems:
                failed += len(answers)
                correct = False
                print(f"{task.name}: wrong answer: {problems}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {r} rounds, {len(results)} instances, "
          f"{attempted} answers, {failed} failed, {answering:.2f} s answering")
    print("untraced answer times (s): " + " ".join(f"{t:.3f}" for t in plain_times),
          file=sys.stderr)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
        tracer.write(spans_file)
        print(f"spans: {spans_file}; absent layers: {sorted(tracer.absent) or 'none'}")
        metrics = tracing.layer_metrics(tracer, runner.traced, plain_times)
    else:
        metrics = {
            "answer_p50_s": {"value": statistics.median(plain_times), "unit": "s"},
            "answers_per_s": {"value": len(plain_times) / answering, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
        t = tail(plain_times)
        if t is not None:
            print(f"answer_tail_s (p{t[0]:.1f} of {len(plain_times)} answers): {t[1]:.4f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workdir = checkout.bind(f"{args.workload}-s{args.seed}")
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(args, workdir)
    finally:
        checkout.release(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
