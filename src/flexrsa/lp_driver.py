"""The builtin solver: scipy's HiGHS, in the calling process.

`solve_highs` hands a model's arrays (`milp.MilpModel`: objective, CSR rows
and their bounds, column upper bounds) to HiGHS through the bindings that
scipy bundles, `scipy.optimize._highspy._core`; `backend.solve` calls it for
`--solver builtin`. It sets each of `SETTINGS` by `setOptionValue`, passes
the model's own CSR arrays (`milp.Csr`) row-wise, with every column binary,
to `passModel`, then calls `run`, `getInfo` and `getSolution`; the column
values come back as one ndarray. HiGHS makes its column-wise copy itself,
each column's rows ascending, the arrays scipy's `tocsc` gives (which
`tests/test_backend.py` reads back from HiGHS to check). The module is
private to scipy, and only this one loads it, by file (`_load_core`): that
is the package's one import of scipy, so a solve imports neither
`scipy.optimize` nor `scipy.sparse` (`tests/test_imports.py` reads every
import statement to keep it so). The golden digests of
`tests/test_backend.py` lock what HiGHS receives. `HighsOutcome.seconds`
(`highs_seconds` in `meta.timings`) runs from the first HiGHS call to the
solution read back, and `HighsOutcome.stats` holds HiGHS's `STATS` whenever
`run` returned, so a proven infeasibility carries its counts too. Given a
log path (`--keep-files`), HiGHS writes its own log to that file and to
nothing else, then `solve_highs` closes it and appends its summary.

`solve_lp_file` reads an LP file that `lpformat.emit_lp_text` printed back
into the same matrix (`lpformat.parse_lp_text`), solves it the same way and
writes a CBC-style solution file (status line, then one row per variable:
index, name, value, reduced cost), so an emitted LP can be solved and
checked without the model.

Every solve runs with `SETTINGS` and its time limit, for these reasons:
- no output but the log file, when there is one: an answer is a document;
- `mip_rel_gap` 0, so an optimal answer is a proven optimum;
- HiGHS's feasibility-jump heuristic (Luteberget & Sartor, Math. Prog.
  Comp. 2023) off. It is an LP-free local search that HiGHS runs before the
  root LP, and the equality flow-conservation rows of these models defeat
  it: on the ring14 break it returns a poor incumbent and HiGHS then runs a
  sub-MIP to improve it, where rounding the root LP finds the optimum at
  once. Its cost is under a time limit that ends before the root LP and its
  sub-MIP find an incumbent: there the answer is `timelimit` with no
  solution where the heuristic's incumbent used to come back;
- presolve probing off (`presolve_rule_off` bit 15, HiGHS's rule 15,
  "Probing"). Probing fixes each binary in turn to 0 and to 1 and
  propagates, to find implied fixings and bounds. On these models presolve
  is most of HiGHS's time and probing much of presolve, and what probing
  removes the root LP does not miss. Not every model gains: some maxsubset
  solves get slower.
The measurements behind each setting, with their corpora, are in CHANGES.md
and README.
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
    objective: Optional[float]
    values: Optional[np.ndarray]  # one per column, None without a solution
    message: str  # why it failed; empty unless the status is error
    seconds: float  # wall time from the first HiGHS call to the solution read back
    stats: dict  # STATS names -> HiGHS's value; None where it gave none


# what HiGHS reports on its branch and bound and its LP work, by its own
# names (HighsInfo)
STATS = ("mip_node_count", "mip_gap", "mip_dual_bound", "simplex_iteration_count")

# HiGHS settings of every solve, by HiGHS's option names, besides its time
# limit: no output, no relative gap, no feasibility jump and no presolve
# probing (see the module docstring). Bit 15 is presolve rule 15, Probing,
# in HiGHS 1.12.0; the numbering is HiGHS's own, so a test pins the version
SETTINGS = MappingProxyType({
    "output_flag": False,
    "mip_rel_gap": 0.0,
    "mip_heuristic_run_feasibility_jump": False,
    "presolve_rule_off": 1 << 15,
})


def solve_highs(
    c, a, lower, upper, ub, time_limit: float, log_path: Optional[str] = None
) -> HighsOutcome:
    """Minimize c.x over binary x <= ub with lower <= a.x <= upper, by HiGHS
    with `SETTINGS`. A setting or a model that HiGHS refuses, and a solver
    exception, are `error` outcomes whose message says why. With log_path,
    HiGHS writes its own log to that file alone and closes it; then a
    summary (status, HiGHS's model status, message, stats and wall time, one
    a line) is appended, before this returns.
    """
    start = time.perf_counter()
    stats = dict.fromkeys(STATS)
    model_status = ""
    options = {**SETTINGS, "time_limit": float(time_limit)}
    if log_path is not None:
        options.update(log_file=log_path, output_flag=True, log_to_console=False)
    highs = None

    def outcome(status, message="", values=None, objective=None) -> HighsOutcome:
        seconds = time.perf_counter() - start
        if log_path is not None:
            if highs is not None:
                highs.setOptionValue("log_file", "")  # HiGHS closes the file
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(
                    f"status: {status}\nhighs_model_status: {model_status}\n"
                    f"message: {message}\n"
                    + "".join(f"{name}: {value}\n" for name, value in stats.items())
                    + f"wall_seconds: {seconds:.6f}\n"
                )
        return HighsOutcome(status, objective, values, message, seconds, stats)

    try:
        highs = _Highs()
        for name, value in options.items():
            if highs.setOptionValue(name, value) != HighsStatus.kOk:
                return outcome(ERROR, f"HiGHS refused the setting {name}={value!r}")
        n = len(c)
        if highs.passModel(
            n, a.shape[0], a.nnz, int(MatrixFormat.kRowwise), int(ObjSense.kMinimize),
            0.0, c, np.zeros(n), ub, lower, upper, a.indptr.astype(np.int32),
            a.indices.astype(np.int32), a.data,
            np.full(n, int(HighsVarType.kInteger), dtype=np.int32),
        ) == HighsStatus.kError:
            return outcome(ERROR, "HiGHS refused the model")
        run = highs.run()
        info = highs.getInfo()
        for name in STATS:  # a non-finite gap or bound is none
            value = getattr(info, name)
            stats[name] = value if math.isfinite(value) else None
        code = highs.getModelStatus()
        model_status = highs.modelStatusToString(code)
        status = _STATUS.get(code, ERROR)
        if run == HighsStatus.kError or status == ERROR:
            return outcome(ERROR, f"HiGHS ended with model status {model_status}")
        if status == INFEASIBLE or info.objective_function_value == kHighsInf:
            return outcome(status)  # no solution, or no incumbent at the time limit
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
