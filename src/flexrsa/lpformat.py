"""Deterministic LP-format emission and a reader for exactly that text.

The writer produces industry-standard LP text (Minimize / Subject To /
Bounds / Binary / End) with one named row per constraint; each variable key
gets a distinct name:

    x_d<demand>_l<link>_<f|b>_c<color>   flow on a directed link and color
    z_d<demand>_l<link>_<f|b>_w<first>   window on a directed link
    y_d<demand>                          maxsubset selector

The writer prints a model's arrays (column names formatted from the column
table, objective vector, bounds and CSR rows), deriving no column key; it
serves the subprocess solvers and `keep_files`, since the builtin solver
takes the arrays themselves. The reader, used by
`lp_driver.solve_lp_file`, reads the writer's dialect only and raises
ValueError on anything else: `\\` comment lines, the headers above, the
objective `obj:`, named rows `tag: [-] [mag] name (+|-) [mag] name ...
(<=|>=|=) rhs` wrapped onto lines that start with two spaces, the lone `0`
(or `0 name`) of an empty expression, bounds `name = 0` and one binary name
per line. The objective and each row name each column at most once and with
a nonzero coefficient, as the writer prints them; one that repeats a column
(`a: x + x >= 1`) or carries a zero one (`a: 0 x + y >= 1`) is refused. All
its rows go to `milp.Rows` as one block, as the builder's families do.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .milp import FlowVar, MilpModel, Rows, SelectVar, WindowVar, row_family, row_relation

MAX_LINE = 200


def var_name(key) -> str:
    if isinstance(key, FlowVar):
        d = "f" if key.forward else "b"
        return f"x_d{key.demand}_l{key.link}_{d}_c{key.color}"
    if isinstance(key, WindowVar):
        d = "f" if key.forward else "b"
        return f"z_d{key.demand}_l{key.link}_{d}_w{key.first}"
    if isinstance(key, SelectVar):
        return f"y_d{key.demand}"
    raise TypeError(f"unknown variable key {key!r}")


def column_names(model: MilpModel) -> list:
    """The name of every column, in column order: `var_name` of each key,
    formatted straight from the column table."""
    prefix, first = ("z", "w") if model.variant == "trimmed" else ("x", "c")
    side = np.where(model.forward, "f", "b")
    names = list(map(
        f"{prefix}_d{{}}_l{{}}_{{}}_{first}{{}}".format, model.demand.tolist(),
        model.link.tolist(), side.tolist(), model.color.tolist(),
    ))
    names += map("y_d{}".format, model.selectors.tolist())
    return names


def _fmt_num(x: float) -> str:
    """A matrix entry as the shortest text that reads back to the same float."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _terms(terms: list, placeholder: str | None) -> list[str]:
    """Render (name, coefficient) pairs; no pairs become a zero placeholder term."""
    if not terms:
        return ["0"] if placeholder is None else ["0", placeholder]
    toks: list[str] = []
    for i, (name, coeff) in enumerate(terms):
        if i or coeff < 0:  # a leading + is left out
            toks.append("-" if coeff < 0 else "+")
        if abs(coeff) != 1:
            toks.append(_fmt_num(abs(coeff)))
        toks.append(name)
    return toks


def _wrap(prefix: str, tokens: list[str], out: list[str]) -> None:
    line = prefix
    for tok in tokens:
        if len(line) + len(tok) + 1 > MAX_LINE and line.strip():
            out.append(line)
            line = " "
        line += " " + tok
    out.append(line)


def emit_lp_text(model: MilpModel) -> str:
    """Byte-deterministic LP document for the model, printed from its arrays."""
    names = column_names(model)
    out: list[str] = [f"\\ flexrsa variant={model.variant} mode={model.mode}"]
    out.append("Minimize")
    objective = [(names[j], v) for j, v in enumerate(model.c.tolist()) if v]
    _wrap(" obj:", _terms(objective, None), out)
    out.append("Subject To")
    placeholder = names[0] if names else None
    indptr = model.a.indptr.tolist()
    indices = model.a.indices.tolist()
    data = model.a.data.tolist()
    bounds = zip(model.row_names, model.lower.tolist(), model.upper.tolist())
    for i, (tag, lower, upper) in enumerate(bounds):
        span = range(indptr[i], indptr[i + 1])
        toks = _terms([(names[indices[k]], data[k]) for k in span], placeholder)
        relation, rhs = row_relation(lower, upper)
        toks += [relation, _fmt_num(rhs)]
        _wrap(f" {tag}:", toks, out)
    # only flow columns are fixed (base), listed in key order: by demand,
    # link, backward before forward, then color
    fixed = np.flatnonzero(model.ub == 0)
    if len(fixed):
        keys = (model.color, model.forward, model.link, model.demand)
        fixed = fixed[np.lexsort(tuple(k[fixed] for k in keys))]
        out.append("Bounds")
        out.extend(f" {names[j]} = 0" for j in fixed.tolist())
    out.append("Binary")
    out.extend(f" {name}" for name in names)
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binary", "End")


def _expression(toks: list, index: dict):
    """(columns, coefficients) of `[-] [mag] name (+|-) [mag] name ...`, or
    none for the lone `0` (or `0 name`) of an empty expression."""
    if toks[:1] == ["0"] and len(toks) <= 2 and all(t in index for t in toks[1:]):
        return [], []
    cols: list = []
    vals: list = []
    sign = -1.0 if toks[:1] == ["-"] else 1.0
    i = 1 if sign < 0 else 0
    while True:
        mag = 1.0
        if i < len(toks) and toks[i] not in index:
            mag = float(toks[i])
            i += 1
        if i == len(toks) or toks[i] not in index:
            raise ValueError(f"expected a column name in {' '.join(toks)!r}")
        cols.append(index[toks[i]])
        vals.append(sign * mag)
        i += 1
        if i == len(toks):
            return cols, vals
        if toks[i] not in ("+", "-"):
            raise ValueError(f"expected + or - before {toks[i]!r}")
        sign = 1.0 if toks[i] == "+" else -1.0
        i += 1


def parse_lp_text(text: str):
    """(column names, c, a, lower, upper, ub, row names): the solver matrix
    of an LP document that `emit_lp_text` printed, for minimizing c.x
    subject to lower <= a.x <= upper, x binary, x <= ub."""
    body: dict = {name: [] for name in _SECTIONS}  # section -> token lists
    section = None
    for line in text.splitlines():
        if line.startswith("\\"):
            continue
        if section == "End":
            raise ValueError(f"line after End: {line!r}")
        if line in body:
            section = line
        elif not line.startswith(" "):
            raise ValueError(f"unknown section header {line!r}")
        elif section is None:
            raise ValueError(f"line outside any section: {line!r}")
        elif line.startswith("  ") and body[section]:  # a wrapped statement goes on
            body[section][-1] += line.split()
        else:
            body[section].append(line.split())

    if any(len(toks) != 1 for toks in body["Binary"]):
        raise ValueError("expected one binary name per line")
    names = [toks[0] for toks in body["Binary"]]
    index = {name: j for j, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("a binary name is listed twice")

    objective = body["Minimize"]
    if len(objective) != 1 or objective[0][:1] != ["obj:"]:
        raise ValueError("the objective must be one row named obj")
    cols, vals = _expression(objective[0][1:], index)
    if 0 in vals:
        raise ValueError("row obj: a zero term")
    if len(set(cols)) != len(cols):
        raise ValueError("row obj: repeats a column")
    c = np.zeros(len(names))
    c[cols] = vals

    # per row: its name, term count and bounds; the terms of all rows
    tags, counts, lower, upper, cols, vals = [], [], [], [], [], []
    for toks in body["Subject To"]:
        if not toks[0].endswith(":"):
            raise ValueError(f"unnamed row: {' '.join(toks)!r}")
        tags.append(toks[0][:-1])
        if len(toks) < 4 or toks[-2] not in ("<=", ">=", "="):
            raise ValueError(f"row {tags[-1]!r} has no relation")
        row_cols, row_vals = _expression(toks[1:-2], index)
        counts.append(len(row_cols))
        cols += row_cols
        vals += row_vals
        rhs = float(toks[-1])
        lower.append(-np.inf if toks[-2] == "<=" else rhs)
        upper.append(np.inf if toks[-2] == ">=" else rhs)
    rows = Rows()
    rows.block(
        Counter(map(row_family, tags)), lambda: tags,
        np.repeat(np.arange(len(tags)), counts), cols, vals, lower, upper,
    )

    ub = np.ones(len(names))
    for toks in body["Bounds"]:
        if len(toks) != 3 or toks[0] not in index or toks[1:] != ["=", "0"]:
            raise ValueError(f"unsupported bound {' '.join(toks)!r}")
        ub[index[toks[0]]] = 0.0

    a, lower, upper = rows.matrix(len(names))
    return names, c, a, lower, upper, ub, rows.names
