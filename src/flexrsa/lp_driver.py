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
solution read back. Given a log path (`--keep-files`), HiGHS writes its own
log to that file and to nothing else, and closes it before `solve_highs`
returns.

`solve_lp_file` reads an LP file that `lpformat.emit_lp_text` printed back
into the same matrix (`lpformat.parse_lp_text`), solves it the same way and
writes a CBC-style solution file (status line, then one row per variable:
index, name, value, reduced cost), so an emitted LP can be solved and
checked without the model.

Every solve runs with `SETTINGS` and its time limit: no output but the
log file, when there is one; `mip_rel_gap` 0, so an optimal answer is a
proven optimum; HiGHS's feasibility-jump heuristic (Luteberget & Sartor,
Math. Prog. Comp. 2023) off; and presolve probing off. Feasibility jump is
an LP-free local search that HiGHS runs before the root LP, and the
equality flow-conservation rows of these models defeat it.
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

Presolve probing is off too (`presolve_rule_off` bit 15, HiGHS's rule 15,
"Probing"). Probing fixes each binary in turn to 0 and to 1 and propagates,
to find implied fixings and bounds. HiGHS's log of the ring14 break starts
the root LP at 0.3 s of a 0.42 s solve with it and at 0.2 s of 0.39 s
without: presolve is most of HiGHS's time, probing much of presolve, and
what probing removes the root LP does not miss. Presolve then stops at
1 287 rows and 3 034 columns instead of 1 108 and 2 798, the root still
closes at 160, after 1 114 LP iterations instead of 1 080, and HiGHS takes
280 ms instead of 341 ms (interleaved medians of 12, faster in 12 of 12; a
second round, on a busier machine, 340 against 402 ms, 10 of 12; scipy
1.17.1, HiGHS 1.12.0, 2 CPUs). Of the grid12 second-kind models that the
benchmark solves, QPSK f2-b9 went from 40-50 to 22-28 ms and 8-QAM f7-b16
in maxsubset mode from 5.1 to 3.5 ms (12 of 12 in both rounds), and the
other three held or gained. Not every model gains: QPSK f17-b7 in maxsubset
mode went from 264-329 to 419-556 ms (slower in 12 of 12, both rounds), and
the ring14 break in maxsubset mode held at 504 ms in one round and went
from 564 to 624 ms in the other, where QPSK f17-b1 in maxsubset mode went
from 246-379 to 85-128 ms. Every answer of the benchmark and tiny-instance
corpora kept its status, objective and certificate.
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
    HiGHS writes its own log to that file alone, and has closed it when
    this returns.
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
        summary = (
            f"status: {status}\nhighs_model_status: {model_status}\nmessage: {message}\n"
            + "".join(f"{name}: {value}\n" for name, value in stats.items())
            + f"wall_seconds: {seconds:.6f}\n"
        )
        return HighsOutcome(status, values, objective, message, summary, seconds, stats)

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
    finally:
        if log_path is not None and highs is not None:
            highs.setOptionValue("log_file", "")  # HiGHS closes the file


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
