"""External-solver driver: emit LP text, run a subprocess, parse the solution.

Solvers are addressed by name ("cbc", "scip", "builtin") or by a custom
command template ("cmd:mysolver {lp_file} {sol_file} {time_limit}"); "auto"
picks cbc, then scip, then the bundled scipy/HiGHS driver. Executable paths
can be overridden with FLEXRSA_CBC / FLEXRSA_SCIP. Custom templates must
write a CBC-style solution file.

Solves are isolated per working directory, so any number may run
concurrently.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .lpformat import emit_lp_text, var_name
from .milp import MilpModel

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMELIMIT = "timelimit"
ERROR = "error"

BUILTIN = "builtin-highs"
# seconds past twice the time limit before a solver process is killed
HARD_KILL_GRACE_S = 60.0
# directory holding the flexrsa package, for the builtin solver's child
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SolverNotFound(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """How to run the external solver.

    solver: "auto" | "cbc" | "scip" | "builtin" | "cmd:<template>".
    time_limit: seconds handed to the solver (default mirrors the 500 s
        benchmark budget).
    workdir: where LP/solution files go; None means a fresh temp directory.
    keep_files: keep LP/solution/log files even on success.
    """

    solver: str = "auto"
    time_limit: float = 500.0
    workdir: Optional[str] = None
    keep_files: bool = False

    def __post_init__(self):
        if not self.time_limit > 0:
            raise ValueError("time limit must be positive")


@dataclass
class SolveOutcome:
    """Parsed solver result.

    assignment maps every model variable to 0/1 for optimal and feasible
    outcomes, and for time limits where the solver wrote an incumbent.
    """

    status: str
    assignment: Optional[dict]
    objective: Optional[float]
    wall_seconds: float
    solver_name: str
    log_path: Optional[str] = None
    message: str = ""


def _which(name: str, env_var: str) -> Optional[str]:
    override = os.environ.get(env_var)
    if override:
        return override if os.path.exists(override) else None
    return shutil.which(name)


def resolve_solver(solver: str):
    """Return (name, argv template with {lp_file}/{sol_file}/{time_limit})."""
    if solver.startswith("cmd:"):
        template = solver[4:]
        if "{lp_file}" not in template or "{sol_file}" not in template:
            raise SolverNotFound(
                "custom solver template must mention {lp_file} and {sol_file}"
            )
        return solver, shlex.split(template)
    if solver == "cbc":
        path = _which("cbc", "FLEXRSA_CBC")
        if not path:
            raise SolverNotFound(
                "cbc executable not found; install coin-or CBC, set FLEXRSA_CBC, "
                "or use --solver builtin"
            )
        return "cbc", [
            path, "-sec", "{time_limit}", "-timeMode", "elapsed",
            "-printingOptions", "all", "-import", "{lp_file}",
            "-solve", "-solu", "{sol_file}",
        ]
    if solver == "scip":
        path = _which("scip", "FLEXRSA_SCIP")
        if not path:
            raise SolverNotFound(
                "scip executable not found; install SCIP, set FLEXRSA_SCIP, "
                "or use --solver builtin"
            )
        return "scip", [
            path,
            "-c", "set limits time {time_limit}",
            "-c", "read {lp_file}",
            "-c", "optimize",
            "-c", "write solution {sol_file}",
            "-c", "quit",
        ]
    if solver == "builtin":
        return BUILTIN, [
            sys.executable, "-m", "flexrsa.lp_driver",
            "{lp_file}", "{sol_file}", "{time_limit}",
        ]
    if solver == "auto":
        for candidate in ("cbc", "scip", "builtin"):
            try:
                return resolve_solver(candidate)
            except SolverNotFound:
                continue
        raise SolverNotFound("no MILP solver available")  # pragma: no cover
    raise SolverNotFound(f"unknown solver {solver!r}")


# ---------------------------------------------------------------------------
# Solution-file parsing
# ---------------------------------------------------------------------------

def parse_cbc_solution(text: str):
    """(status, objective, {name: value}) from a CBC-style solution file."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return ERROR, None, None
    head = lines[0].strip()
    low = head.lower()
    values = {}
    for line in lines[1:]:
        toks = line.replace("**", " ").split()
        if len(toks) >= 3:
            try:
                values[toks[1]] = float(toks[2])
            except ValueError:
                continue
    objective = None
    if "objective value" in low:
        try:
            objective = float(head.split()[-1])
        except ValueError:
            objective = None
    if low.startswith("optimal"):
        return OPTIMAL, objective, values
    if "infeasible" in low:
        return INFEASIBLE, None, None
    if low.startswith("unbounded"):
        return ERROR, None, None
    if low.startswith("stopped on time"):
        return TIMELIMIT, objective, values if values else None
    if low.startswith("stopped"):
        return ERROR, None, None
    if low.startswith("feasible"):
        return FEASIBLE, objective, values
    return ERROR, None, None


def parse_scip_solution(text: str):
    status = None
    objective = None
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("solution status:"):
            status = low.split(":", 1)[1].strip()
        elif low.startswith("objective value:"):
            try:
                objective = float(line.split(":", 1)[1])
            except ValueError:
                objective = None
        elif low.startswith("no solution available"):
            values = {}
        else:
            toks = line.split()
            if len(toks) >= 2 and not toks[0].startswith("("):
                try:
                    values[toks[0]] = float(toks[1])
                except ValueError:
                    continue
    if status is None:
        return ERROR, None, None
    if "optimal" in status:
        return OPTIMAL, objective, values
    if "infeasible" in status:
        return INFEASIBLE, None, None
    if "unbounded" in status:
        return ERROR, None, None
    if "limit" in status:
        return TIMELIMIT, objective, values if values else None
    if values:
        return FEASIBLE, objective, values
    return ERROR, None, None


def _evaluate_without_solver(model: MilpModel) -> SolveOutcome:
    """Decide variable-free models directly (e.g. an empty demand set)."""
    for con in model.constraints:
        lhs = 0.0
        ok = (
            (con.relation == "=" and lhs == con.rhs)
            or (con.relation == "<=" and lhs <= con.rhs)
            or (con.relation == ">=" and lhs >= con.rhs)
        )
        if not ok:
            return SolveOutcome(
                INFEASIBLE, None, None, 0.0, "trivial",
                message=f"unsatisfiable constraint {con.tag} with no variables",
            )
    return SolveOutcome(OPTIMAL, {}, 0.0, 0.0, "trivial")


def solve(model: MilpModel, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Emit the model, run the configured solver, and parse the outcome.

    wall_seconds covers the whole round trip: LP emission, the solver process
    and the parsing of its solution file.
    """
    if not model.variables:
        return _evaluate_without_solver(model)

    start = time.perf_counter()
    solver_name, template = resolve_solver(config.solver)
    owns_dir = config.workdir is None
    workdir = config.workdir or tempfile.mkdtemp(prefix="flexrsa-")
    os.makedirs(workdir, exist_ok=True)
    lp_file = os.path.join(workdir, "model.lp")
    sol_file = os.path.join(workdir, "model.sol")
    log_file = os.path.join(workdir, "solver.log")

    with open(lp_file, "w", encoding="utf-8") as fh:
        fh.write(emit_lp_text(model))

    subst = {
        "lp_file": lp_file,
        "sol_file": sol_file,
        "time_limit": f"{config.time_limit:g}",
    }
    cmd = [arg.format(**subst) for arg in template]
    env = None
    if solver_name == BUILTIN:
        # the child imports the same flexrsa as this process, however found
        inherited = os.environ.get("PYTHONPATH")
        path = PACKAGE_PARENT + (os.pathsep + inherited if inherited else "")
        env = dict(os.environ, PYTHONPATH=path)

    returncode = -1
    killed = threading.Event()
    try:
        with open(log_file, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
    except OSError:
        pass
    else:
        # A blocking wait sees the exit at once, where a wait with a timeout
        # polls in sleeps of up to 50 ms; the timer enforces the hard limit.
        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(config.time_limit * 2 + HARD_KILL_GRACE_S, kill)
        timer.daemon = True
        timer.start()
        try:
            returncode = proc.wait()
        except BaseException:  # as subprocess.run: leave no solver running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()

    def finish(status, assignment=None, objective=None, message="") -> SolveOutcome:
        wall = time.perf_counter() - start
        outcome = SolveOutcome(
            status, assignment, objective, wall, solver_name, message=message
        )
        if outcome.status == ERROR or config.keep_files:
            outcome.log_path = log_file
        elif owns_dir:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            outcome.log_path = log_file
        return outcome

    if killed.is_set():
        return finish(
            TIMELIMIT, message="solver killed after exceeding twice the time limit"
        )
    if not os.path.exists(sol_file):
        return finish(
            ERROR, message=f"solver wrote no solution file (exit {returncode})"
        )

    with open(sol_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser = parse_scip_solution if solver_name == "scip" else parse_cbc_solution
    status, objective, values = parser(text)

    assignment = None
    if values is not None and status in (OPTIMAL, FEASIBLE, TIMELIMIT):
        assignment = {}
        for key in model.variables:
            value = values.get(var_name(key), 0.0)
            if 0.01 < value < 0.99:
                return finish(
                    ERROR, message=f"non-integral binary {var_name(key)}={value}"
                )
            assignment[key] = 1 if value >= 0.5 else 0
        objective = sum(
            coeff * assignment[key] for key, coeff in model.objective.items()
        )

    if status in (OPTIMAL, FEASIBLE) and assignment is None:
        status = ERROR

    return finish(status, assignment, objective)
