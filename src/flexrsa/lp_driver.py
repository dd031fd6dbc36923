"""The builtin solver: scipy's HiGHS, in the calling process.

`solve_highs` hands a model's arrays (`milp.MilpModel`: objective, CSR rows
and their bounds, column upper bounds) to `scipy.optimize.milp` untouched;
`backend.solve` calls it for `--solver builtin`. `solve_lp_file` reads an LP
file that `lpformat.emit_lp_text` printed back into the same matrix
(`lpformat.parse_lp_text`), solves it the same way and writes a CBC-style
solution file (status line, then one row per variable: index, name, value,
reduced cost), so an emitted LP can be solved and checked without the model.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .backend import ERROR, INFEASIBLE, OPTIMAL, TIMELIMIT
from .lpformat import parse_lp_text

# scipy.optimize.milp status -> outcome status; any other is an error
_STATUS = {0: OPTIMAL, 1: TIMELIMIT, 2: INFEASIBLE}


class HighsOutcome(NamedTuple):
    status: str
    values: Optional[list]  # one per column, None without a solution
    objective: Optional[float]
    message: str  # why it failed; empty unless the status is error
    summary: str  # status, message, gap, bound, nodes and wall time, one a line
    seconds: float  # wall time inside scipy.optimize.milp
    stats: dict  # STATS names -> HiGHS's value; None where it gave none


# what HiGHS reports on its branch and bound, by scipy.optimize.milp's names
STATS = ("mip_node_count", "mip_gap", "mip_dual_bound")


def solve_highs(c, a, lower, upper, ub, time_limit: float) -> HighsOutcome:
    """Minimize c.x over binary x <= ub with lower <= a.x <= upper, by HiGHS
    (`mip_rel_gap` 0). A solver exception is an `error` outcome with its
    text as the message.
    """
    n = len(c)
    start = time.perf_counter()
    try:
        res = milp(
            c,
            constraints=[LinearConstraint(a, lower, upper)],
            integrality=np.ones(n),
            bounds=Bounds(np.zeros(n), ub),
            options={"disp": False, "time_limit": float(time_limit), "mip_rel_gap": 0.0},
        )
    except Exception as exc:  # a solver failure is an outcome, never a traceback
        message = f"{type(exc).__name__}: {exc}"
        summary = f"status: {ERROR}\nmessage: {message}\n"
        seconds = time.perf_counter() - start
        return HighsOutcome(ERROR, None, None, message, summary, seconds, dict.fromkeys(STATS))
    seconds = time.perf_counter() - start

    status = _STATUS.get(res.status, ERROR)
    stats = {}
    for name in STATS:  # a non-finite gap or bound (no incumbent yet) is none
        value = res.get(name)
        stats[name] = value if value is None or math.isfinite(value) else None
    summary = (
        f"status: {status} (scipy status {res.status})\nmessage: {res.message}\n"
        + "".join(f"{name}: {value}\n" for name, value in stats.items())
        + f"wall_seconds: {seconds:.6f}\n"
    )
    if status == ERROR:
        return HighsOutcome(ERROR, None, None, res.message, summary, seconds, stats)
    if status == INFEASIBLE or res.x is None:
        return HighsOutcome(status, None, None, "", summary, seconds, stats)
    return HighsOutcome(status, res.x.tolist(), float(res.fun), "", summary, seconds, stats)


def solve_lp_file(lp_path: str, sol_path: str, time_limit: float) -> int:
    """Solve an LP file as the builtin solver would; write a CBC-style
    solution file and return 0."""
    with open(lp_path, "r", encoding="utf-8") as fh:
        names, *arrays, _ = parse_lp_text(fh.read())
    outcome = solve_highs(*arrays, time_limit)
    if outcome.values is not None:
        head = {OPTIMAL: "Optimal", TIMELIMIT: "Stopped on time limit"}[outcome.status]
        header = f"{head} - objective value {outcome.objective:.12g}"
    elif outcome.status == INFEASIBLE:
        header = "Infeasible - objective value 0"
    elif outcome.status == TIMELIMIT:
        header = "Stopped on time limit (no solution)"
    else:
        header = f"Error - {outcome.message}"
    lines = [header]
    for i, (name, value) in enumerate(zip(names, outcome.values or ())):
        lines.append(f"{i:7d} {name} {value:.12g} 0")
    with open(sol_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0
