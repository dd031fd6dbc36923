"""The builtin solver: scipy's HiGHS, in the calling process.

`solve_highs` hands a model's arrays (`milp.MilpModel`: objective, CSR rows
and their bounds, column upper bounds) to `scipy.optimize.milp` untouched;
`backend.solve` calls it for `--solver builtin`. `solve_lp_file` reads an LP
file that `lpformat.emit_lp_text` printed back into the same matrix
(`lpformat.parse_lp_text`), solves it the same way and writes a CBC-style
solution file (status line, then one row per variable: index, name, value,
reduced cost), so an emitted LP can be solved and checked without the model.

Every solve runs with `SETTINGS` and its time limit: `mip_rel_gap` 0, so an
optimal answer is a proven optimum, and HiGHS's feasibility-jump heuristic
(Luteberget & Sartor, Math. Prog. Comp. 2023) off. Feasibility jump is an
LP-free local search that HiGHS runs before the root LP, and the equality
flow-conservation rows of these models defeat it. On the ring14 QPSK seed-7
link-1 break it returns 188 where the root node closes at 160, and HiGHS then
runs a sub-MIP to reach 160; without it, rounding the root LP finds 160 at
once. A cold `flexrsa solve` of that break then spends 0.57-0.61 s in HiGHS
instead of 0.88-0.92 s (scipy 1.17.1, HiGHS 1.12.0, 2 CPUs). Every answer
of the generator and tiny-instance corpora kept its status and objective.

The cost is under a time limit that ends before the root LP and its
sub-MIP find an incumbent, where feasibility jump's was the only one. The
ring14 break at `--time-limit` 0.35 s ends `timelimit` with no solution
(188 with the heuristic, in 2 of 3 runs); at 0.5 s it proved 160 in 1 of 3
runs and had none in 2 (188 in 3 of 3 with it); from 0.75 s it proves 160
(188 with it until 1 s). Full RSA on grid12 QPSK (306 925 columns) at 90 s
ends with no solution (751 with it).
"""

from __future__ import annotations

import math
import re
import time
import warnings
from types import MappingProxyType
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

# HiGHS settings of every solve, besides its time limit: no relative gap, and
# no feasibility jump (see the module docstring)
SETTINGS = MappingProxyType(
    {"disp": False, "mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}
)

# scipy warns on every call that it passes keys it does not know itself
# (feasibility jump's) to HiGHS verbatim; the warning is attributed to this
# module, its caller. A test runner that resets the warning filters drops this
# one, so `solve_highs` puts it back when it is missing. It is only ever
# inserted, never removed and re-added, so a solve in another thread cannot
# run while it is gone (warnings.catch_warnings is not thread-safe).
warnings.filterwarnings(
    "ignore", "Unrecognized options detected", RuntimeWarning, re.escape(__name__) + r"\Z"
)
_QUIET = warnings.filters[0]


def solve_highs(c, a, lower, upper, ub, time_limit: float) -> HighsOutcome:
    """Minimize c.x over binary x <= ub with lower <= a.x <= upper, by HiGHS
    with `SETTINGS`. A solver exception is an `error` outcome with its text
    as the message.
    """
    if _QUIET not in warnings.filters:
        warnings.filters.insert(0, _QUIET)
    n = len(c)
    start = time.perf_counter()
    try:
        res = milp(
            c,
            constraints=[LinearConstraint(a, lower, upper)],
            integrality=np.ones(n),
            bounds=Bounds(np.zeros(n), ub),
            options={**SETTINGS, "time_limit": float(time_limit)},
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
