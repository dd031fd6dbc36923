"""Solver driver: builtin in process, the others by LP text and a subprocess.

Solvers are addressed by name or by a custom command template:
"builtin" (the default) is scipy's HiGHS in this process, fed straight from
the model (`flexrsa.lp_driver`); "cbc" and "scip" run the executable of
that name found on PATH; "cmd:mysolver {lp_file} {sol_file} {time_limit}"
runs a command that must write a CBC-style solution file.

A solver process is killed once it runs past twice the time limit plus
HARD_KILL_GRACE_S. A subprocess solve, and a builtin one with keep_files,
works in a directory (model.lp, solver.log, and model.sol from a
subprocess). A directory that the solve made is removed afterwards unless
keep_files is set or the status is error; whenever the directory stays,
`SolveOutcome.log_path` names its log.

Solves are isolated per working directory, and HiGHS releases the GIL, so
any number may run concurrently, in threads too.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lpformat import column_names, emit_lp_text, var_name
from .milp import MilpModel
from .model import InputError

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMELIMIT = "timelimit"
ERROR = "error"

BUILTIN = "builtin-highs"
# seconds past twice the time limit before a solver process is killed
HARD_KILL_GRACE_S = 60.0


class SolverNotFound(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Which solver to run, and how.

    solver: "builtin" (default) | "cbc" | "scip" | "cmd:<template>"; cbc
        and scip are looked up on PATH.
    time_limit: seconds handed to the solver (default mirrors the 500 s
        benchmark budget).
    workdir: where LP/solution files go; None means a fresh temp directory.
    keep_files: keep LP/solution/log files even on success. The builtin
        solver writes files only then: model.lp and solver.log, HiGHS's own
        log followed by a summary.
    """

    solver: str = "builtin"
    time_limit: float = 500.0
    workdir: Optional[str] = None
    keep_files: bool = False

    def __post_init__(self):
        if not self.time_limit > 0:
            raise InputError(f"time limit must be positive, got {self.time_limit}")


@dataclass
class SolveOutcome:
    """Parsed solver result.

    chosen: the ascending indices into `model.variables` of the columns set
    to 1, for optimal and feasible outcomes and for time limits where the
    solver wrote an incumbent; None when there is no solution.
    """

    status: str
    chosen: Optional[np.ndarray]
    objective: Optional[float]
    solver_name: str
    log_path: Optional[str] = None
    message: str = ""
    highs_seconds: Optional[float] = None  # first HiGHS call to solution read back; builtin only
    solver_stats: Optional[dict] = None  # `lp_driver.STATS`, by name; builtin only


# arguments of each named subprocess solver, after its executable
COMMANDS = {
    "cbc": [
        "-sec", "{time_limit}", "-timeMode", "elapsed", "-printingOptions", "all",
        "-import", "{lp_file}", "-solve", "-solu", "{sol_file}",
    ],
    "scip": [
        "-c", "set limits time {time_limit}",
        "-c", "read {lp_file}",
        "-c", "optimize",
        "-c", "write solution {sol_file}",
        "-c", "quit",
    ],
}


def resolve_solver(solver: str):
    """Return (name, argv template); None for the in-process builtin solver."""
    if solver.startswith("cmd:"):
        template = solver[4:]
        if "{lp_file}" not in template or "{sol_file}" not in template:
            raise SolverNotFound(
                "custom solver template must mention {lp_file} and {sol_file}"
            )
        return solver, shlex.split(template)
    if solver in COMMANDS:
        path = shutil.which(solver)
        if not path:
            raise SolverNotFound(
                f"{solver} executable not found on PATH; install it, "
                "or use --solver builtin"
            )
        return solver, [path, *COMMANDS[solver]]
    if solver == "builtin":
        return BUILTIN, None
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
    for tag, lower, upper in zip(model.row_names, model.lower, model.upper):
        if not lower <= 0 <= upper:
            return SolveOutcome(
                INFEASIBLE, None, None, "trivial",
                message=f"unsatisfiable constraint {tag} with no variables",
            )
    return SolveOutcome(OPTIMAL, np.empty(0, dtype=np.intp), 0, "trivial")


def _rounded(model: MilpModel, status: str, objective, values, message: str):
    """(status, chosen, objective, message) from a raw solver result, values
    one per column (None: no solution); the objective is recomputed."""
    chosen = None
    if values is not None and status in (OPTIMAL, FEASIBLE, TIMELIMIT):
        x = np.asarray(values, dtype=np.float64)
        fractional = np.flatnonzero((x > 0.01) & (x < 0.99))
        if fractional.size:
            j = fractional[0]
            (key,) = model.keys([j])
            return ERROR, None, None, f"non-integral binary {var_name(key)}={values[j]}"
        chosen = np.flatnonzero(x >= 0.5)
        objective = int(model.c[chosen].sum())  # integer coefficients: exact
    if status in (OPTIMAL, FEASIBLE) and chosen is None:
        status = ERROR
    return status, chosen, objective, message


def _run_command(model: MilpModel, config: SolverConfig, solver_name: str, template, workdir: str):
    """(status, objective, values, message) of a solver process run on
    workdir's model.lp, its output in solver.log; values one per column,
    None without a solution."""
    sol_file = os.path.join(workdir, "model.sol")
    subst = {
        "lp_file": os.path.join(workdir, "model.lp"),
        "sol_file": sol_file,
        "time_limit": f"{config.time_limit:g}",
    }
    cmd = [arg.format(**subst) for arg in template]
    returncode = -1
    try:
        with open(os.path.join(workdir, "solver.log"), "w", encoding="utf-8") as log:
            returncode = subprocess.run(  # kills the solver on any exception
                cmd, stdout=log, stderr=subprocess.STDOUT,
                timeout=config.time_limit * 2 + HARD_KILL_GRACE_S,
            ).returncode
    except subprocess.TimeoutExpired:
        return TIMELIMIT, None, None, "solver killed after exceeding twice the time limit"
    except OSError:
        pass
    if not os.path.exists(sol_file):
        return ERROR, None, None, f"solver wrote no solution file (exit {returncode})"

    with open(sol_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser = parse_scip_solution if solver_name == "scip" else parse_cbc_solution
    status, objective, values = parser(text)
    if status == ERROR:
        head = text.strip().split("\n", 1)[0]
        return ERROR, None, None, f"solution file has no result; first line: {head!r}"
    if values is not None:
        values = [values.get(name, 0.0) for name in column_names(model)]
    return status, objective, values, ""


def solve(model: MilpModel, config: SolverConfig = SolverConfig()) -> SolveOutcome:
    """Run the configured solver on the model and parse the outcome."""
    # HiGHS reports a model without columns as model status Empty, an error
    # outcome: only this short-cut answers it
    if not len(model.c):
        return _evaluate_without_solver(model)

    solver_name, template = resolve_solver(config.solver)
    workdir = log_file = None
    if template is not None or config.keep_files:
        workdir = config.workdir or tempfile.mkdtemp(prefix="flexrsa-")
        os.makedirs(workdir, exist_ok=True)
        with open(os.path.join(workdir, "model.lp"), "w", encoding="utf-8") as fh:
            fh.write(emit_lp_text(model))
        log_file = os.path.join(workdir, "solver.log")
    highs_seconds = stats = None
    if template is None:
        from .lp_driver import solve_highs  # deferred: it imports this module, and scipy

        *raw, highs_seconds, stats = solve_highs(
            model.c, model.a, model.lower, model.upper, model.ub, config.time_limit, log_file
        )
    else:
        raw = _run_command(model, config, solver_name, template, workdir)
    status, chosen, objective, message = _rounded(model, *raw)
    outcome = SolveOutcome(
        status, chosen, objective, solver_name, message=message,
        highs_seconds=highs_seconds, solver_stats=stats,
    )
    if workdir is not None:
        if config.workdir is None and status != ERROR and not config.keep_files:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            outcome.log_path = log_file
    return outcome
