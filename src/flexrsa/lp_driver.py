"""The builtin solver: scipy's HiGHS, in the calling process.

`solve_highs` hands a model's arrays (`milp.MilpModel`: objective, CSR rows
and their bounds, column upper bounds) to HiGHS through the bindings that
scipy bundles, `scipy.optimize._highspy._core`; `backend.solve` calls it for
`--solver builtin`. It sets each of `SETTINGS` by `setOptionValue`, passes
the rows column-wise with every column binary to `passModel` as arrays, then
calls `run`, `getInfo` and `getSolution`; the column values come back as
one ndarray. These are the arrays that `scipy.optimize.milp` handed over
before, without its Python loops over every column (an integrality list,
bound marginals). The column-wise copy (`columnwise`) is one stable numpy
sort of the model's CSR column indices (`milp.Csr`), which keeps each
column's rows ascending, as scipy's `tocsc` does. The module is private to
scipy, and only this one loads it, by file (`_load_core`): that is the
package's one import of scipy, so a solve imports neither `scipy.optimize`
nor `scipy.sparse` (`tests/test_imports.py` reads every import statement
to keep it so). The golden digests of `tests/test_backend.py` lock what
HiGHS receives. `HighsOutcome.seconds` (`highs_seconds` in `meta.timings`)
runs from the first HiGHS call to the solution read back, the column-wise
copy of the rows included.

`solve_lp_file` reads an LP file that `lpformat.emit_lp_text` printed back
into the same matrix (`lpformat.parse_lp_text`), solves it the same way and
writes a CBC-style solution file (status line, then one row per variable:
index, name, value, reduced cost), so an emitted LP can be solved and
checked without the model.

Every solve runs with `SETTINGS` and its time limit: no output,
`mip_rel_gap` 0, so an optimal answer is a proven optimum, and HiGHS's
feasibility-jump heuristic (Luteberget & Sartor, Math. Prog. Comp. 2023)
off. Feasibility jump is an LP-free local search that HiGHS runs before the
root LP, and the equality flow-conservation rows of these models defeat it.
On the ring14 QPSK seed-7 link-1 break it returns 188 where the root node
closes at 160, and HiGHS then runs a sub-MIP to reach 160; without it,
rounding the root LP finds 160 at once. A cold `flexrsa solve` of that break
then spends 0.57-0.61 s in HiGHS instead of 0.88-0.92 s (scipy 1.17.1, HiGHS
1.12.0, 2 CPUs). Every answer of the generator and tiny-instance corpora
kept its status and objective.

The cost is under a time limit that ends before the root LP and its
sub-MIP find an incumbent, where feasibility jump's was the only one. The
ring14 break at `--time-limit` 0.35 s ends `timelimit` with no solution
(188 with the heuristic, in 2 of 3 runs); at 0.5 s it proved 160 in 1 of 3
runs and had none in 2 (188 in 3 of 3 with it); from 0.75 s it proves 160
(188 with it until 1 s). Full RSA on grid12 QPSK (306 925 columns) at 90 s
ends with no solution (751 with it).
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .backend import ERROR, INFEASIBLE, OPTIMAL, TIMELIMIT
from .lpformat import parse_lp_text

CORE = "scipy.optimize._highspy._core"


def _load_core():
    """scipy's compiled HiGHS bindings. The plain import runs
    `scipy.optimize/__init__` first, and with it `scipy.sparse` and the
    rest of `scipy.optimize` (0.4 s cold, against 9 ms for the extension
    alone, with scipy 1.17.1 on 2 CPUs). So the extension is loaded by file
    from where scipy keeps it, under its own name, where a later
    `import scipy.optimize` finds it. A module scipy has already loaded is
    reused, and the plain import is the fallback if the file is not there."""
    if CORE in sys.modules:
        return sys.modules[CORE]
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "optimize", "_highspy", "_core" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(CORE, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(CORE, loader)
            )
            loader.exec_module(module)
            sys.modules[CORE] = module
            return module
    return importlib.import_module(CORE)


_core = _load_core()  # once: threads that import this module wait for it
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
HighsVarType = _core.HighsVarType
MatrixFormat = _core.MatrixFormat
ObjSense = _core.ObjSense
_Highs = _core._Highs
kHighsInf = _core.kHighsInf

# HiGHS model status -> outcome status; any other is an error
_STATUS = {
    HighsModelStatus.kOptimal: OPTIMAL,
    HighsModelStatus.kInfeasible: INFEASIBLE,
    HighsModelStatus.kTimeLimit: TIMELIMIT,
    HighsModelStatus.kIterationLimit: TIMELIMIT,
}


class HighsOutcome(NamedTuple):
    status: str
    values: Optional[np.ndarray]  # one per column, None without a solution
    objective: Optional[float]
    message: str  # why it failed; empty unless the status is error
    summary: str  # status, HiGHS's model status, message, stats and wall time, one a line
    seconds: float  # wall time from the first HiGHS call to the solution read back
    stats: dict  # STATS names -> HiGHS's value; None where it gave none


# what HiGHS reports on its branch and bound, by its own names (HighsInfo)
STATS = ("mip_node_count", "mip_gap", "mip_dual_bound")

# HiGHS settings of every solve, by HiGHS's option names, besides its time
# limit: no output, no relative gap, and no feasibility jump (see the module
# docstring)
SETTINGS = MappingProxyType(
    {"output_flag": False, "mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}
)


def columnwise(a):
    """(start, index, value): the rows of the `milp.Csr` matrix a,
    column-wise, as HiGHS takes them. Column j holds the rows
    index[start[j]:start[j + 1]], ascending, with their values; one stable
    sort of the column indices keeps each column's rows in row order."""
    order = np.argsort(a.indices, kind="stable")
    rows = np.repeat(np.arange(a.shape[0], dtype=np.int64), np.diff(a.indptr))
    start = np.zeros(a.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.indices, minlength=a.shape[1]), out=start[1:])
    return start, rows[order], a.data[order]


def solve_highs(c, a, lower, upper, ub, time_limit: float) -> HighsOutcome:
    """Minimize c.x over binary x <= ub with lower <= a.x <= upper, by HiGHS
    with `SETTINGS`. A setting or a model that HiGHS refuses, and a solver
    exception, are `error` outcomes whose message says why.
    """
    start = time.perf_counter()
    stats = dict.fromkeys(STATS)
    model_status = ""

    def outcome(status, message="", values=None, objective=None) -> HighsOutcome:
        seconds = time.perf_counter() - start
        summary = (
            f"status: {status}\nhighs_model_status: {model_status}\nmessage: {message}\n"
            + "".join(f"{name}: {value}\n" for name, value in stats.items())
            + f"wall_seconds: {seconds:.6f}\n"
        )
        return HighsOutcome(status, values, objective, message, summary, seconds, stats)

    try:
        highs = _Highs()
        for name, value in {**SETTINGS, "time_limit": float(time_limit)}.items():
            if highs.setOptionValue(name, value) != HighsStatus.kOk:
                return outcome(ERROR, f"HiGHS refused the setting {name}={value!r}")
        n = len(c)
        col_start, col_rows, col_values = columnwise(a)
        if highs.passModel(
            n, a.shape[0], a.nnz, int(MatrixFormat.kColwise), int(ObjSense.kMinimize),
            0.0, c, np.zeros(n), ub, lower, upper, col_start.astype(np.int32),
            col_rows.astype(np.int32), col_values,
            np.full(n, int(HighsVarType.kInteger), dtype=np.int32),
        ) == HighsStatus.kError:
            return outcome(ERROR, "HiGHS refused the model")
        run = highs.run()
        code = highs.getModelStatus()
        model_status = highs.modelStatusToString(code)
        status = _STATUS.get(code, ERROR)
        if run == HighsStatus.kError or status == ERROR:
            return outcome(ERROR, f"HiGHS ended with model status {model_status}")
        info = highs.getInfo()
        if status == INFEASIBLE or info.objective_function_value == kHighsInf:
            return outcome(status)  # no solution, or no incumbent at the time limit
        for name in STATS:  # a non-finite gap or bound is none
            value = getattr(info, name)
            stats[name] = value if math.isfinite(value) else None
        values = np.asarray(highs.getSolution().col_value)
        return outcome(status, values=values, objective=info.objective_function_value)
    except Exception as exc:  # a solver failure is an outcome, never a traceback
        return outcome(ERROR, f"{type(exc).__name__}: {exc}")


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
    values = outcome.values if outcome.values is not None else ()
    for i, (name, value) in enumerate(zip(names, values)):
        lines.append(f"{i:7d} {name} {value:.12g} 0")
    with open(sol_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0
