"""The builtin solver: scipy's HiGHS, in the calling process.

`solve_highs` is the one way from rows to a HiGHS matrix. `backend.solve`
hands it a model's variables and constraints for `--solver builtin`;
`solve_lp_file` hands it an LP file read back with `lpformat.parse_lp_text`
and writes a CBC-style solution file (status line, then one row per variable:
index, name, value, reduced cost), so an emitted LP can be solved and checked
without the model.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
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


def solve_highs(columns, objective, rows, fixed_zero, time_limit: float) -> HighsOutcome:
    """Minimize over binary columns with HiGHS (`mip_rel_gap` 0).

    columns: the column keys, in order; objective: {key: coefficient};
    rows: iterable of ({key: coefficient}, "<=" | "=" | ">=", rhs);
    fixed_zero: the keys whose column is fixed at 0. A solver exception is
    an `error` outcome with its text as the message.
    """
    index = {key: i for i, key in enumerate(columns)}
    n = len(index)
    c = np.zeros(n)
    for key, coeff in objective.items():
        c[index[key]] = coeff
    ub = np.ones(n)
    for key in fixed_zero:
        ub[index[key]] = 0.0

    indptr, indices, data, lower, upper = [0], [], [], [], []
    for coeffs, relation, rhs in rows:
        for key, coeff in coeffs.items():
            if coeff:
                indices.append(index[key])
                data.append(coeff)
        indptr.append(len(indices))
        lower.append(-np.inf if relation == "<=" else rhs)
        upper.append(np.inf if relation == ">=" else rhs)
    a = sparse.csr_array((data, indices, indptr), shape=(len(lower), n))

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
        return HighsOutcome(ERROR, None, None, message, summary)
    seconds = time.perf_counter() - start

    status = _STATUS.get(res.status, ERROR)
    summary = (
        f"status: {status} (scipy status {res.status})\nmessage: {res.message}\n"
        f"mip_gap: {res.get('mip_gap')}\nmip_dual_bound: {res.get('mip_dual_bound')}\n"
        f"mip_node_count: {res.get('mip_node_count')}\nwall_seconds: {seconds:.6f}\n"
    )
    if status == ERROR:
        return HighsOutcome(ERROR, None, None, res.message, summary)
    if status == INFEASIBLE or res.x is None:
        return HighsOutcome(status, None, None, "", summary)
    return HighsOutcome(status, res.x.tolist(), float(res.fun), "", summary)


def solve_lp_file(lp_path: str, sol_path: str, time_limit: float) -> int:
    """Solve an LP file as the builtin solver would; write a CBC-style
    solution file and return 0."""
    with open(lp_path, "r", encoding="utf-8") as fh:
        parsed = parse_lp_text(fh.read())
    if parsed.sense != "min":
        raise ValueError("driver only handles minimization")
    if any(bounds != (0.0, 0.0) for bounds in parsed.fixed.values()):
        raise ValueError("driver only handles columns fixed at 0")

    names = list(dict.fromkeys(parsed.binary))
    rows = ((coeffs, rel, rhs) for _tag, coeffs, rel, rhs in parsed.constraints)
    outcome = solve_highs(names, parsed.objective, rows, parsed.fixed, time_limit)
    if outcome.values is not None:
        objective = outcome.objective + parsed.objective_constant
        head = {OPTIMAL: "Optimal", TIMELIMIT: "Stopped on time limit"}[outcome.status]
        header = f"{head} - objective value {objective:.12g}"
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
