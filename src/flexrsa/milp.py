"""MILP construction for the generalized routing-and-spectrum problem.

Three variants. ``base`` and ``notrim`` are the paper's formulation, binary
flow variables x[demand, directed link, color] (`FlowVar`):

* ``base``    - a variable for every color in {1..C}; variables on occupied
  colors (``~OpticalNetwork.free``) are fixed to 0; contiguity uses the
  window family for c >= 2 plus the activation family only at the bottom of
  the spectrum.
* ``notrim``  - variables only for free colors (c in C_l), full constraints,
  first-color candidates derived from C_l alone (`trimming.free_windows` over
  ``OpticalNetwork.free``).

``trimmed`` has one binary z[demand, directed link, first color]
(`WindowVar`) per first color that trimming keeps on the arc
(`UsefulTripleSet.arc_first_colors`): the whole block [first, first + width),
costing width slots. Windows are contiguous by construction, so there are no
contiguity rows (over trimmed first colors, which can have gaps, they would
cut off windows). Flow is conserved per first color, one window leaves the
source, the reach row is sum(length * z) <= reach, and a unicolor row holds
every window over its (link, color). Trimming keeps an arc at a first color
whenever some simple s-t path within reach in that color's range graph
traverses it, and a certified answer is one simple path in one window per
demand, so status and optimum are those of ``notrim``.

Modes: ``feasibility`` routes every demand (source out-flow = width, or one
window); ``maxsubset`` adds selector variables y[d] and maximizes how many
demands are routed by rewarding each selected demand more than any flow could
cost.

The builder is a pure function that writes the solver matrix directly: the
column keys, an objective vector, column upper bounds, one CSR row matrix with
row bounds, and a name per row. Columns come out in demand, link, direction
(forward first), color order, then the selectors; in ``base`` and ``notrim``
both directions of a link have the same colors. Rows come family by family, each
family in sorted demand/link/color order. `Rows` is the one way from rows to a
CSR matrix; `lpformat.parse_lp_text` puts the rows of an LP file through it
too. The builder reads the network's own index form: the flow rows walk
`OpticalNetwork.adj` / `ends`, and the notrim windows and the base variant's
fixed columns come from `OpticalNetwork.free`. The per-row dict view
(`MilpModel.constraints`) is derived from the arrays only when something
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from .model import InputError, RestorationInstance
from .trimming import UsefulTripleSet, free_windows

if TYPE_CHECKING:
    from scipy import sparse

VARIANTS = ("base", "notrim", "trimmed")
MODES = ("feasibility", "maxsubset")


class FlowVar(NamedTuple):
    demand: int
    link: int
    forward: bool
    color: int
    kind: str = "flow"  # so a flow key never equals the WindowVar of equal fields


class WindowVar(NamedTuple):
    """The block [first, first + width) of a demand on one directed link."""

    demand: int
    link: int
    forward: bool
    first: int
    kind: str = "window"


class SelectVar(NamedTuple):
    demand: int


VariableKey = Union[FlowVar, WindowVar, SelectVar]


def row_family(name: str) -> str:
    """The constraint family of a row name, e.g. "flow" for "flow_d1_c2_n3"."""
    return name.split("_", 1)[0]


def row_relation(lower: float, upper: float):
    """(relation, rhs) of the row bounds lower <= a.x <= upper."""
    if lower == -np.inf:
        return "<=", upper
    if upper == np.inf:
        return ">=", lower
    return "=", lower


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sum(coeffs[v] * v) relation rhs, named by its provenance tag."""

    tag: str
    coeffs: dict
    relation: str  # "<=", "=", ">="
    rhs: float


class Rows:
    """Rows, in order, to a CSR matrix with row bounds and names.

    `add` keeps the terms in the order given, merges a repeated column into
    its first occurrence and drops zero terms; a row left without terms is
    kept.
    """

    def __init__(self) -> None:
        self.names: list = []
        self.lower: list = []
        self.upper: list = []
        self.indptr: list = [0]
        self.indices: list = []
        self.data: list = []

    def add(self, name: str, cols: list, vals: list, relation: str, rhs) -> None:
        if len(set(cols)) < len(cols):
            merged: dict = {}
            for j, v in zip(cols, vals):
                merged[j] = merged.get(j, 0) + v
            cols, vals = list(merged), list(merged.values())
        if 0 in vals:
            kept = [k for k, v in enumerate(vals) if v]
            cols, vals = [cols[k] for k in kept], [vals[k] for k in kept]
        self.indices += cols
        self.data += vals
        self.indptr.append(len(self.indices))
        self.names.append(name)
        self.lower.append(-np.inf if relation == "<=" else rhs)
        self.upper.append(np.inf if relation == ">=" else rhs)

    def matrix(self, n_cols: int):
        """(a, lower, upper): the rows as a CSR matrix over n_cols columns."""
        from scipy import sparse  # deferred: commands that build no model skip scipy

        a = sparse.csr_array(
            (np.asarray(self.data, dtype=np.float64), self.indices, self.indptr),
            shape=(len(self.names), n_cols),
        )
        return (
            a,
            np.asarray(self.lower, dtype=np.float64),
            np.asarray(self.upper, dtype=np.float64),
        )


@dataclass(frozen=True, eq=False)
class MilpModel:
    """minimize c.x subject to lower <= a.x <= upper, x binary, x <= ub.

    variables: the column keys, in column order. ub is 0 for a column fixed
    at zero and 1 otherwise. row_names: one provenance tag per row of a.
    Objective coefficients are integers.
    """

    variant: str
    mode: str
    variables: tuple
    c: np.ndarray
    ub: np.ndarray
    a: sparse.csr_array
    lower: np.ndarray
    upper: np.ndarray
    row_names: tuple

    @cached_property
    def constraints(self) -> tuple:
        """The rows as LinearConstraint objects, in row order."""
        keys = self.variables
        indptr = self.a.indptr.tolist()
        indices = self.a.indices.tolist()
        data = self.a.data.tolist()
        out = []
        for i, (name, lo, hi) in enumerate(
            zip(self.row_names, self.lower.tolist(), self.upper.tolist())
        ):
            span = range(indptr[i], indptr[i + 1])
            coeffs = {keys[indices[k]]: data[k] for k in span}
            out.append(LinearConstraint(name, coeffs, *row_relation(lo, hi)))
        return tuple(out)


def model_statistics(model: MilpModel) -> dict:
    """The model's column and row counts, as `meta.model` reports them."""
    by_family: dict = {}
    for name in model.row_names:
        family = row_family(name)
        by_family[family] = by_family.get(family, 0) + 1
    select = int(np.count_nonzero(model.c < 0))  # only selectors have negative cost
    return {
        "variant": model.variant,
        "mode": model.mode,
        "variables": len(model.variables),
        "arc_variables": len(model.variables) - select,  # flow or window columns
        "select_variables": select,
        "fixed_zero": int(np.count_nonzero(model.ub == 0)),
        "constraints": len(model.row_names),
        "by_family": dict(sorted(by_family.items())),
    }


def _variant_arcs(instance, triples, variant):
    """Per (demand id, link id): for its forward and then its backward arc,
    (column colors ascending, first-color candidates); a window's color is
    its first color."""
    net = instance.network
    all_colors = list(range(1, net.slot_count + 1))
    all_set = frozenset(all_colors)
    if variant == "notrim":
        by_width: dict = {}  # width -> per link position, its free windows' first colors
        for w in {d.width for d in instance.demands}:
            by_width[w] = [
                frozenset((np.flatnonzero(col) + 1).tolist())
                for col in free_windows(net.free, w).T
            ]
    arcs: dict = {}
    for d in instance.demands:
        for e, l in enumerate(net.links):
            if variant == "trimmed":
                firsts = triples.arc_first_colors
                arcs[(d.id, l.id)] = tuple(
                    (sorted(firsts.get((d.id, l.id, fwd), ())), None)
                    for fwd in (True, False)
                )
            else:
                both = (
                    (all_colors, all_set) if variant == "base"
                    else (sorted(net.available[l.id]), by_width[d.width][e])
                )
                arcs[(d.id, l.id)] = (both, both)
    return arcs


def _out_in(net, node: int, on: dict):
    """(outgoing, incoming) columns at a node position, for one demand and
    color. on: link position -> [forward column, backward column] of the
    links carrying the color, None for an arc without one; forward runs from
    the link's u to its v.
    """
    out, inn = [], []
    for li, _ in net.adj[node]:
        pair = on.get(li)
        if pair is not None:
            leaving, entering = pair if net.ends[li][0] == node else pair[::-1]
            if leaving is not None:
                out.append(leaving)
            if entering is not None:
                inn.append(entering)
    return out, inn


def build_model(
    instance: RestorationInstance,
    triples: Optional[UsefulTripleSet],
    variant: str = "trimmed",
    mode: str = "feasibility",
) -> MilpModel:
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if variant == "trimmed" and triples is None:
        raise InputError("trimmed variant requires a useful-triple set")
    if mode == "maxsubset" and triples is not None:
        stuck = sorted(
            d.id for d in instance.demands if d.id in triples.non_reroutable
        )
        if stuck:
            raise InputError(
                "maxsubset mode requires non-re-routable demands to be removed "
                f"first: {stuck}"
            )

    net = instance.network
    slots = net.slot_count
    demands = sorted(instance.demands, key=lambda d: d.id)
    links = net.links  # already sorted by id
    arcs = _variant_arcs(instance, triples, variant)
    # colors per column: a window covers the demand's width and carries it
    # once; a flow column covers one color and carries a width-th of it
    windows = variant == "trimmed"
    key = WindowVar if windows else FlowVar
    span = {d.id: d.width if windows else 1 for d in demands}

    # columns: blocks[di][li] = its forward and its backward arc, each
    # (first column, colors, first colors); the backward arc's columns
    # follow the forward arc's. A column covers its color, or its window.
    variables: list = []
    cost: list = []
    blocks: list = []
    fixed: list = []
    big_m = 1  # exceeds any flow's cost: a slot carries at most one demand
    for d in demands:
        per_link = []
        for li, l in enumerate(links):
            pair = []
            for fwd, (colors, firsts) in zip((True, False), arcs[(d.id, l.id)]):
                pair.append((len(variables), colors, firsts))
                variables.extend(key(d.id, l.id, fwd, c) for c in colors)
                cost += [span[d.id]] * len(colors)
            covered = {c + i for _, cs, _ in pair for c in cs for i in range(span[d.id])}
            big_m += len(covered)
            if variant == "base":  # colors 1..C: column k is color k + 1
                f_start, b_start = pair[0][0], pair[1][0]
                for k in np.flatnonzero(~net.free[li]).tolist():
                    fixed += (f_start + k, b_start + k)
            per_link.append(pair)
        blocks.append(per_link)
    n_flow = len(variables)
    if mode == "maxsubset":
        variables.extend(SelectVar(d.id) for d in demands)

    rows = Rows()

    # flow conservation at inner nodes, per demand and color (first color of
    # a window); the source's columns are gathered on the way for the source
    # rows
    tag = "w" if windows else "c"
    source: list = []
    uni: list = [{} for _ in links]  # link index -> color -> columns
    for d, per_link in zip(demands, blocks):
        on_color: list = [{} for _ in range(slots + 1)]
        for li, pair in enumerate(per_link):
            by_color = uni[li]
            for side, (start, colors, _) in enumerate(pair):
                for k, c in enumerate(colors):
                    on_color[c].setdefault(li, [None, None])[side] = start + k
                    for cc in range(c, c + span[d.id]):
                        by_color.setdefault(cc, []).append(start + k)
        s, t = net.node_index[d.s], net.node_index[d.t]
        out_all, in_all = [], []
        for c in range(1, slots + 1):
            on = on_color[c]
            if not on:
                continue
            out, inn = _out_in(net, s, on)
            out_all += out
            in_all += inn
            inner = {x for li in on for x in net.ends[li]}
            inner.discard(s)
            inner.discard(t)
            for node in sorted(inner):
                out, inn = _out_in(net, node, on)
                rows.add(
                    f"flow_d{d.id}_{tag}{c}_n{node}",
                    out + inn, [1] * len(out) + [-1] * len(inn), "=", 0,
                )
        source.append((out_all, in_all))

    # source constraints: out-flow equals width (or width * y) in colors,
    # that is one window (or y); in-flow zero
    for di, (d, (out_all, in_all)) in enumerate(zip(demands, source)):
        units = d.width // span[d.id]
        ones = [1] * len(out_all)
        if mode == "maxsubset":
            rows.add(
                f"srcout_d{d.id}", out_all + [n_flow + di], ones + [-units], "=", 0
            )
        else:
            # kept even with no terms: a demand without any variable at its
            # source makes the model infeasible, and the row records why
            rows.add(f"srcout_d{d.id}", out_all, ones, "=", units)
        if in_all:
            rows.add(f"srcin_d{d.id}", in_all, [1] * len(in_all), "=", 0)

    # reachability: occupied length is at most reach * width in colors, that
    # is reach in windows
    for d, per_link in zip(demands, blocks):
        terms, vals = [], []
        for l, ((start, f_colors, _), (_, b_colors, _)) in zip(links, per_link):
            if l.length == 0:
                continue
            n = len(f_colors) + len(b_colors)
            terms += range(start, start + n)
            vals += [l.length] * n
        if terms:
            units = d.width // span[d.id]
            rows.add(f"reach_d{d.id}", terms, vals, "<=", d.reach * units)

    # unicolor: a (link, color) slot carries at most one demand, one direction
    for l, by_color in zip(links, uni):
        for c in sorted(by_color):
            terms = by_color[c]
            rows.add(f"uni_l{l.id}_c{c}", terms, [1] * len(terms), "<=", 1)

    # contiguity families, per arc over its own colors (a missing column
    # counts as zero); identically true for width-1 demands, so skipped, and
    # windows need none
    for d, per_link in zip(demands, blocks):
        w = d.width
        if w == 1 or windows:
            continue
        for l, pair in zip(links, per_link):
            for (base, colors, firsts), dir_tag in zip(pair, "fb"):
                pos = {c: k for k, c in enumerate(colors)}
                for k, c in enumerate(colors):
                    if c in firsts:
                        terms = [base + pos[c + i] for i in range(w) if c + i in pos]
                        vals = [1] * len(terms) + [-w]
                        terms.append(base + k)
                        if c - 1 in firsts:
                            terms.append(base + pos[c - 1])
                            vals.append(w)
                            fam = "ctgA"
                        else:
                            fam = "ctgB"
                        rows.add(
                            f"{fam}_d{d.id}_l{l.id}{dir_tag}_c{c}", terms, vals, ">=", 0
                        )
                    elif variant != "base":
                        terms, vals = [base + k], [-1]
                        if c - 1 in pos:
                            terms.append(base + pos[c - 1])
                            vals.append(1)
                        rows.add(
                            f"ctgC_d{d.id}_l{l.id}{dir_tag}_c{c}", terms, vals, ">=", 0
                        )

    n = len(variables)
    c_vec = np.zeros(n)
    c_vec[:n_flow] = cost
    c_vec[n_flow:] = -big_m
    ub = np.ones(n)
    ub[fixed] = 0.0
    a, lower, upper = rows.matrix(n)

    return MilpModel(
        variant=variant,
        mode=mode,
        variables=tuple(variables),
        c=c_vec,
        ub=ub,
        a=a,
        lower=lower,
        upper=upper,
        row_names=tuple(rows.names),
    )
