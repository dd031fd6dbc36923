"""Deterministic LP-format emission and a matching reader.

The writer produces industry-standard LP text (Minimize / Subject To /
Bounds / Binary / End) with one named row per constraint; variable names
encode the variable key bijectively:

    x_d<demand>_l<link>_<f|b>_c<color>   flow on a directed link and color
    y_d<demand>                          maxsubset selector

The writer prints a model's arrays (column keys, objective vector, bounds and
CSR rows); it serves the subprocess solvers and `keep_files`, since the
builtin solver takes the arrays themselves. The reader is used by
`lp_driver.solve_lp_file` and by the round-trip tests; it recovers the exact
coefficient maps (zero-coefficient placeholder terms are dropped, constants
are folded into the right-hand side).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .milp import FlowVar, MilpModel, SelectVar, row_relation

MAX_LINE = 200


def var_name(key) -> str:
    if isinstance(key, FlowVar):
        d = "f" if key.forward else "b"
        return f"x_d{key.demand}_l{key.link}_{d}_c{key.color}"
    if isinstance(key, SelectVar):
        return f"y_d{key.demand}"
    raise TypeError(f"unknown variable key {key!r}")


_FLOW_RE = re.compile(r"^x_d(\d+)_l(\d+)_([fb])_c(\d+)$")
_SELECT_RE = re.compile(r"^y_d(\d+)$")


def parse_var_name(name: str):
    m = _FLOW_RE.match(name)
    if m:
        return FlowVar(int(m.group(1)), int(m.group(2)), m.group(3) == "f", int(m.group(4)))
    m = _SELECT_RE.match(name)
    if m:
        return SelectVar(int(m.group(1)))
    raise ValueError(f"unrecognized variable name {name!r}")


def _fmt_num(x) -> str:
    if isinstance(x, bool):
        raise TypeError("boolean coefficient")
    if isinstance(x, int):
        return str(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _terms(terms: list, placeholder: str | None) -> list[str]:
    """Render (name, coefficient) pairs; no pairs become a zero placeholder term."""
    if not terms:
        return ["0"] if placeholder is None else ["0", placeholder]
    toks: list[str] = []
    for i, (name, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if i == 0:
            if sign == "-":
                toks.append("-")
        else:
            toks.append(sign)
        if mag != 1:
            toks.append(_fmt_num(mag))
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
    names = [var_name(key) for key in model.variables]
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
    if model.fixed_zero:
        out.append("Bounds")
        for key in sorted(model.fixed_zero):
            out.append(f" {var_name(key)} = 0")
    out.append("Binary")
    out.extend(f" {name}" for name in names)
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

@dataclass
class ParsedLp:
    sense: str = "min"
    objective: dict = field(default_factory=dict)
    objective_constant: float = 0.0
    constraints: list = field(default_factory=list)  # (tag, coeffs, rel, rhs)
    binary: list = field(default_factory=list)
    fixed: dict = field(default_factory=dict)  # name -> (lo, hi)


_TOKEN_RE = re.compile(
    r"(<=|>=|=<|=>|[<>=:+\-]|[A-Za-z_!][A-Za-z0-9_!.]*|"
    r"[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
)

_SECTIONS = {
    "minimize": "objective",
    "minimise": "objective",
    "min": "objective",
    "maximize": "objective-max",
    "max": "objective-max",
    "subject": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "such": "constraints",
    "bounds": "bounds",
    "bound": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "bin": "binary",
    "general": "general",
    "generals": "general",
    "end": "end",
}


def _is_number(tok: str) -> bool:
    return bool(re.match(r"^(\d|\.\d)", tok))


def _parse_linear(tokens: list[str]):
    """Parse `expr (rel rhs)?`; returns (coeffs, constant, rel, rhs)."""
    coeffs: dict = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    rel = None
    rhs = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "=<", "=>", "<", ">", "="):
            if pending is not None:  # bare constant before the relation
                constant += sign * pending
                pending = None
            rel = {"=<": "<=", "=>": ">=", "<": "<=", ">": ">="}.get(tok, tok)
            rhs_sign = 1.0
            i += 1
            while i < len(tokens) and tokens[i] in ("+", "-"):
                if tokens[i] == "-":
                    rhs_sign = -rhs_sign
                i += 1
            if i >= len(tokens) or not _is_number(tokens[i]):
                raise ValueError("missing right-hand side")
            rhs = rhs_sign * float(tokens[i])
            i += 1
            break
        if tok in ("+", "-"):
            if pending is not None:  # previous number was a bare constant
                constant += sign * pending
                pending = None
                sign = 1.0
            if tok == "-":
                sign = -sign
            i += 1
            continue
        if _is_number(tok):
            if pending is not None:
                raise ValueError(f"two consecutive numbers near {tok!r}")
            pending = float(tok)
            i += 1
            continue
        # variable name
        coeff = sign * (1.0 if pending is None else pending)
        if coeff != 0:
            coeffs[tok] = coeffs.get(tok, 0.0) + coeff
        pending = None
        sign = 1.0
        i += 1
    if pending is not None:
        constant += sign * pending
    if i != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[i:]}")
    coeffs = {n: c for n, c in coeffs.items() if c != 0}
    return coeffs, constant, rel, rhs


def parse_lp_text(text: str) -> ParsedLp:
    parsed = ParsedLp()
    section = None
    body: dict[str, list[str]] = {"objective": [], "constraints": [], "bounds": [], "binary": []}
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.strip().split()
        key = _SECTIONS.get(head[0].lower())
        if key == "end":
            break
        if key == "objective-max":
            parsed.sense = "max"
            section = "objective"
            continue
        if key == "constraints" and head[0].lower() == "subject":
            section = "constraints"
            continue
        if key in ("objective", "constraints", "bounds", "binary", "general") and len(head) == 1:
            section = "binary" if key == "general" else key
            continue
        if section is None:
            raise ValueError(f"content before any section: {line!r}")
        body[section].append(line)

    # objective
    toks = _TOKEN_RE.findall(" ".join(body["objective"]))
    if toks[:2] and toks[1] == ":":
        toks = toks[2:]
    if toks:
        coeffs, constant, rel, _ = _parse_linear(toks)
        if rel is not None:
            raise ValueError("relation inside objective")
        parsed.objective = coeffs
        parsed.objective_constant = constant

    # constraints: rows split on NAME ':' token pairs
    toks = _TOKEN_RE.findall(" ".join(body["constraints"]))
    rows: list[tuple[str, list[str]]] = []
    i = 0
    while i < len(toks):
        if i + 1 < len(toks) and toks[i + 1] == ":" and not _is_number(toks[i]):
            rows.append((toks[i], []))
            i += 2
            continue
        if not rows:
            rows.append((f"c{len(rows)}", []))
        rows[-1][1].append(toks[i])
        i += 1
    for tag, row_toks in rows:
        coeffs, constant, rel, rhs = _parse_linear(row_toks)
        if rel is None:
            raise ValueError(f"constraint {tag!r} has no relation")
        parsed.constraints.append((tag, coeffs, rel, rhs - constant))

    # bounds: only the forms we emit plus common variants
    for line in body["bounds"]:
        toks = _TOKEN_RE.findall(line)
        if len(toks) == 3 and not _is_number(toks[0]):
            name, rel, value = toks[0], toks[1], float(toks[2])
            if rel == "=":
                parsed.fixed[name] = (value, value)
            elif rel in ("<=", "=<", "<"):
                parsed.fixed[name] = (0.0, value)
            elif rel in (">=", "=>", ">"):
                parsed.fixed[name] = (value, 1.0)
        elif len(toks) == 5 and _is_number(toks[0]):
            lo, name, hi = float(toks[0]), toks[2], float(toks[4])
            parsed.fixed[name] = (lo, hi)
        else:
            raise ValueError(f"unsupported bounds row: {line!r}")

    for line in body["binary"]:
        parsed.binary.extend(_TOKEN_RE.findall(line))
    return parsed
