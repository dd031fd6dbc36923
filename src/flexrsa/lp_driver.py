"""Bundled MILP subprocess: solve an LP-format file with scipy's HiGHS.

Invoked as::

    python -m flexrsa.lp_driver <model.lp> <out.sol> [time_limit_seconds]

and writes a CBC-style solution file (status line, then one row per variable:
index, name, value, reduced cost). The HiGHS log goes to standard output,
which the backend keeps as `solver.log`. This keeps the solver behind the
same file + subprocess seam as cbc/scip, so the backend needs no linked
library.
"""

from __future__ import annotations

import sys

from .lpformat import ParsedLp, parse_lp_text


def _write_solution(path: str, header: str, names=(), values=()) -> None:
    lines = [header]
    for i, (name, value) in enumerate(zip(names, values)):
        lines.append(f"{i:7d} {name} {value:.12g} 0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _solve_without_variables(parsed: ParsedLp, sol_path: str) -> int:
    ok = True
    for _tag, coeffs, rel, rhs in parsed.constraints:
        if coeffs:
            ok = False
            break
        lhs = 0.0
        if rel == "=" and lhs != rhs:
            ok = False
        elif rel == "<=" and lhs > rhs:
            ok = False
        elif rel == ">=" and lhs < rhs:
            ok = False
    if ok:
        _write_solution(
            sol_path, f"Optimal - objective value {parsed.objective_constant:.12g}"
        )
    else:
        _write_solution(sol_path, "Infeasible - objective value 0")
    return 0


def solve_lp_file(lp_path: str, sol_path: str, time_limit: float) -> int:
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    with open(lp_path, "r", encoding="utf-8") as fh:
        parsed = parse_lp_text(fh.read())
    if parsed.sense != "min":
        raise ValueError("driver only handles minimization")

    names = list(dict.fromkeys(parsed.binary))
    if not names:
        return _solve_without_variables(parsed, sol_path)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)

    c = np.zeros(n)
    for name, coeff in parsed.objective.items():
        c[index[name]] = coeff

    lb = np.zeros(n)
    ub = np.ones(n)
    for name, (lo, hi) in parsed.fixed.items():
        lb[index[name]] = lo
        ub[index[name]] = hi

    constraints = []
    if parsed.constraints:
        data, rows, cols_ = [], [], []
        con_lb, con_ub = [], []
        for r, (_tag, coeffs, rel, rhs) in enumerate(parsed.constraints):
            for name, coeff in coeffs.items():
                rows.append(r)
                cols_.append(index[name])
                data.append(coeff)
            if rel == "=":
                con_lb.append(rhs)
                con_ub.append(rhs)
            elif rel == "<=":
                con_lb.append(-np.inf)
                con_ub.append(rhs)
            else:
                con_lb.append(rhs)
                con_ub.append(np.inf)
        a = sparse.csc_array(
            (data, (rows, cols_)), shape=(len(parsed.constraints), n)
        )
        constraints = [LinearConstraint(a, con_lb, con_ub)]

    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(lb, ub),
        options={"disp": True, "time_limit": float(time_limit), "mip_rel_gap": 0.0},
    )

    if res.status == 0:
        objective = float(res.fun) + parsed.objective_constant
        _write_solution(
            sol_path,
            f"Optimal - objective value {objective:.12g}",
            names,
            res.x,
        )
    elif res.status == 2:
        _write_solution(sol_path, "Infeasible - objective value 0")
    elif res.status == 1:
        if res.x is not None:
            objective = float(res.fun) + parsed.objective_constant
            _write_solution(
                sol_path,
                f"Stopped on time limit - objective value {objective:.12g}",
                names,
                res.x,
            )
        else:
            _write_solution(sol_path, "Stopped on time limit (no solution)")
    elif res.status == 3:
        _write_solution(sol_path, "Unbounded")
    else:
        _write_solution(sol_path, f"Error - {res.message}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print(
            "usage: python -m flexrsa.lp_driver <model.lp> <out.sol> [time_limit]",
            file=sys.stderr,
        )
        return 2
    time_limit = float(argv[2]) if len(argv) == 3 else 1e30
    return solve_lp_file(argv[0], argv[1], time_limit)


if __name__ == "__main__":
    sys.exit(main())
