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

The builder is a pure function that writes the solver matrix directly: an
objective vector, column upper bounds, and one CSR row matrix with row
bounds. Columns come out in demand, link, direction (forward first), color
order, then the selectors; in ``base`` and ``notrim`` both directions of a
link have the same colors. The columns are a table of arrays (demand, link,
direction, color), read off sorted flat indices of the trimmed arcs (a mask
over those four axes for ``base`` and ``notrim``), so only the arcs with
columns are visited. The model keeps the table, with the selectors' demand
ids, and the number of rows of each family. Rows come family by family, each
family in sorted demand/link/color order. The flow, source, reach and
unicolor families are written as column blocks: each family's terms are
derived from the column table as arrays, sorted once into row order and term
order, and handed to `Rows.block` whole; only the contiguity rows of ``base``
and ``notrim`` go one by one through `Rows.add`. `Rows` is the one way from
rows to a CSR matrix; `lpformat.parse_lp_text` puts the rows of an LP file
through it too. The builder reads the network's own index form (link `ends`,
`node_index`, `link_index`), and the notrim windows and the base variant's
fixed columns come from `OpticalNetwork.free`.

A solve reads the arrays alone: its column count is len(c), a maxsubset
answer's restored count is the chosen columns of negative cost, and
extraction asks `MilpModel.keys` for the keys of the chosen columns only.
The column keys (`MilpModel.variables`), the row names and the per-row dict
view (`MilpModel.constraints`) are derived from the kept arrays only when
something reads them: the LP printer, the `trim` command and tests. Each
family block keeps the arrays its names are made from, not the names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
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


def _named(template: str, *columns) -> list:
    """template.format(*row) for each row of the parallel arrays `columns`:
    the names of a block of rows, made when they are read."""
    return list(map(template.format, *(c.tolist() for c in columns)))


def _joined_names(parts) -> tuple:
    """The row names of `Rows.parts`, in order: lists of names, and the
    callables that give a block's names."""
    return tuple(chain.from_iterable(p() if callable(p) else p for p in parts))


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sum(coeffs[v] * v) relation rhs, named by its provenance tag."""

    tag: str
    coeffs: dict
    relation: str  # "<=", "=", ">="
    rhs: float


class Rows:
    """Rows, in order, to a CSR matrix with row bounds and names.

    `add` appends one named row: it keeps the terms in the order given,
    merges a repeated column into its first occurrence and drops zero terms;
    a row left without terms is kept. `block` appends a whole family of rows
    from term arrays sorted by row, as given; it refuses a row that repeats a
    column or carries a zero term, and keeps a row without terms. A block's
    row names are derived only when `names` is read; `families` counts the
    rows of each family as they are appended.
    """

    def __init__(self) -> None:
        self.parts: list = []  # the names: lists of them, and a callable per block
        self.families: dict = {}  # row family -> rows
        self.lower: list = []
        self.upper: list = []
        self.counts: list = []  # terms per row
        self.chunks: list = []  # (columns, values) arrays, in row order
        self.cols: list = []  # terms of the rows added since the last chunk
        self.vals: list = []

    @property
    def names(self) -> tuple:
        """The row names, in row order."""
        return _joined_names(self.parts)

    def _count(self, family: str, rows: int) -> None:
        if rows:
            self.families[family] = self.families.get(family, 0) + int(rows)

    def add(self, name: str, cols: list, vals: list, relation: str, rhs) -> None:
        if len(set(cols)) < len(cols):
            merged: dict = {}
            for j, v in zip(cols, vals):
                merged[j] = merged.get(j, 0) + v
            cols, vals = list(merged), list(merged.values())
        if 0 in vals:
            kept = [k for k, v in enumerate(vals) if v]
            cols, vals = [cols[k] for k in kept], [vals[k] for k in kept]
        self.cols += cols
        self.vals += vals
        self.counts.append(len(cols))
        if not self.parts or callable(self.parts[-1]):
            self.parts.append([])
        self.parts[-1].append(name)
        self._count(row_family(name), 1)
        self.lower.append(-np.inf if relation == "<=" else rhs)
        self.upper.append(np.inf if relation == ">=" else rhs)

    def block(self, families: dict, names, row, cols, vals, relation: str, rhs) -> None:
        """Rows all with one relation, as many per family as `families`
        says; names() gives their names in row order, and rhs is one value
        or one per row. Term k is cols[k] with value vals[k] in row row[k]
        of the block; the terms are sorted by row, and a row's terms are in
        order."""
        count = sum(families.values())
        row = np.asarray(row, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        first = next(iter(families), "")
        if len(row) and (row[0] < 0 or row[-1] >= count or np.any(row[1:] < row[:-1])):
            raise ValueError(f"block {first}: terms not sorted into its rows")
        if np.any(vals == 0):
            raise ValueError(f"block {first}: a zero term")
        if len(cols):
            terms = np.sort(row * (int(cols.max()) + 1) + cols)
            if np.any(terms[1:] == terms[:-1]):
                raise ValueError(f"block {first}: a row repeats a column")
        self._chunk()
        self.chunks.append((cols, vals))
        self.counts += np.bincount(row, minlength=count).tolist()
        self.parts.append(names)
        for family, rows in families.items():
            self._count(family, rows)
        bound = np.broadcast_to(np.asarray(rhs, dtype=np.float64), count).tolist()
        self.lower += [-np.inf] * count if relation == "<=" else bound
        self.upper += [np.inf] * count if relation == ">=" else bound

    def _chunk(self) -> None:
        if self.cols:
            self.chunks.append((np.asarray(self.cols, dtype=np.int64),
                                np.asarray(self.vals, dtype=np.float64)))
            self.cols, self.vals = [], []

    def matrix(self, n_cols: int):
        """(a, lower, upper): the rows as a CSR matrix over n_cols columns."""
        from scipy import sparse  # deferred: commands that build no model skip scipy

        self._chunk()
        indptr = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        a = sparse.csr_array(
            (
                np.concatenate([v for _, v in self.chunks] or [np.zeros(0)]),
                np.concatenate([c for c, _ in self.chunks] or [np.zeros(0, np.int64)]),
                indptr,
            ),
            shape=(len(self.counts), n_cols),
        )
        return (
            a,
            np.asarray(self.lower, dtype=np.float64),
            np.asarray(self.upper, dtype=np.float64),
        )


@dataclass(frozen=True, eq=False)
class MilpModel:
    """minimize c.x subject to lower <= a.x <= upper, x binary, x <= ub.

    The flow or window columns come first, one per entry of the column
    table: `demand` and `link` (ids), `forward` and `color` (a window's first
    color) arrays. In maxsubset mode a selector column follows per entry of
    `selectors` (demand ids). ub is 0 for a column fixed at zero and 1
    otherwise. Objective coefficients are integers. `families` counts the
    rows of each family, and `name_parts` holds the row names as `Rows`
    does. The column keys (`variables`), the row names (`row_names`) and the
    per-row view (`constraints`) are derived only when read; `keys` derives
    the keys of some columns alone.
    """

    variant: str
    mode: str
    c: np.ndarray
    ub: np.ndarray
    a: sparse.csr_array
    lower: np.ndarray
    upper: np.ndarray
    demand: np.ndarray
    link: np.ndarray
    forward: np.ndarray
    color: np.ndarray
    selectors: np.ndarray
    families: dict
    name_parts: tuple

    def keys(self, cols) -> list:
        """The keys of the columns `cols`: flow or window keys first, then
        selector keys, each in the order given."""
        cols = np.asarray(cols, dtype=np.int64)
        n = len(self.color)
        at = cols[cols < n]
        kind = WindowVar if self.variant == "trimmed" else FlowVar
        return [
            *map(kind, self.demand[at].tolist(), self.link[at].tolist(),
                 self.forward[at].tolist(), self.color[at].tolist()),
            *map(SelectVar, self.selectors[cols[cols >= n] - n].tolist()),
        ]

    @cached_property
    def variables(self) -> tuple:
        """The column keys, in column order."""
        return tuple(self.keys(np.arange(len(self.c))))

    @cached_property
    def row_names(self) -> tuple:
        """One provenance tag per row of a."""
        return _joined_names(self.name_parts)

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
    n, select = len(model.c), len(model.selectors)
    return {
        "variant": model.variant,
        "mode": model.mode,
        "variables": n,
        "arc_variables": n - select,  # flow or window columns
        "select_variables": select,
        "fixed_zero": int(np.count_nonzero(model.ub == 0)),
        "constraints": model.a.shape[0],
        "by_family": dict(sorted(model.families.items())),
    }


def _columns(instance, demands, triples, variant):
    """The column table, in column order: demand position, link position,
    side (0 forward, 1 backward) and color (a window's first color), as
    arrays. Only the arcs with columns are visited."""
    net = instance.network
    shape = (len(demands), len(net.links), 2, net.slot_count + 1)
    if variant == "trimmed":
        position = {d.id: k for k, d in enumerate(demands)}
        arcs = [
            (position[d], net.link_index[l], 0 if forward else 1, colors)
            for (d, l, forward), colors in triples.arc_first_colors.items()
            if d in position
        ]
        sizes = [len(colors) for *_, colors in arcs]
        where = np.ravel_multi_index(
            tuple(np.array([a[k] for a in arcs], dtype=np.int64) for k in range(3)),
            shape[:3],
        )
        colors = np.fromiter(chain.from_iterable(a[3] for a in arcs), np.int64, sum(sizes))
        return np.unravel_index(np.sort(np.repeat(where, sizes) * shape[3] + colors), shape)
    # the same colors for every demand, in both directions
    mask = np.zeros(shape, dtype=bool)
    mask[..., 1:] = True if variant == "base" else net.free[:, None, :]
    return np.nonzero(mask)


def _starts(*keys) -> np.ndarray:
    """Flags the first of each run of equal keys, over parallel arrays."""
    flags = np.ones(len(keys[0]), dtype=bool)
    if len(flags):
        flags[1:] = False
        for k in keys:
            flags[1:] |= k[1:] != k[:-1]
    return flags


def _order(keys: tuple, dims: tuple) -> np.ndarray:
    """The order that sorts terms by keys, the first the most significant;
    key k lies in range(dims[k]), and no two terms agree on every key."""
    return np.argsort(np.ravel_multi_index(keys, dims))


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
    n_d, n_l, n_v = len(demands), len(links), len(net.nodes)
    windows = variant == "trimmed"
    di, li, side, color = _columns(instance, demands, triples, variant)
    n_flow = len(color)
    col = np.arange(n_flow)
    d_ids = np.array([d.id for d in demands], dtype=np.int64)
    l_ids = np.array([l.id for l in links], dtype=np.int64)
    selectors = d_ids if mode == "maxsubset" else d_ids[:0]

    # a window covers the demand's width and carries it once; a flow column
    # covers one color and carries a width-th of it
    widths = np.array([d.width for d in demands], dtype=np.int64)
    span = widths[di] if windows else np.ones(n_flow, dtype=np.int64)
    units = np.ones(n_d, dtype=np.int64) if windows else widths
    ends = np.array(net.ends, dtype=np.int64).reshape(-1, 2)
    tail, head = ends[li, side], ends[li, 1 - side]
    s = np.array([net.node_index[d.s] for d in demands], dtype=np.int64)[di]
    t = np.array([net.node_index[d.t] for d in demands], dtype=np.int64)[di]
    rows = Rows()

    # flow conservation at inner nodes, per demand and color (first color of
    # a window): leaving columns, then entering ones, each by link
    leave = (tail != s) & (tail != t)
    enter = (head != s) & (head != t)
    f_d, f_c, f_l = (np.concatenate((x[leave], x[enter])) for x in (di, color, li))
    f_node = np.concatenate((tail[leave], head[enter]))
    f_in = np.repeat([0, 1], [np.count_nonzero(leave), np.count_nonzero(enter)])
    f_col = np.concatenate((col[leave], col[enter]))
    order = _order((f_d, f_c, f_node, f_in, f_l), (n_d, slots + 1, n_v, 2, n_l))
    f_d, f_c, f_node, f_in, f_col = (x[order] for x in (f_d, f_c, f_node, f_in, f_col))
    starts = _starts(f_d, f_c, f_node)
    names = partial(
        _named, "flow_d{}_" + ("w" if windows else "c") + "{}_n{}",
        d_ids[f_d[starts]], f_c[starts], f_node[starts],
    )
    rows.block(
        {"flow": np.count_nonzero(starts)}, names, np.cumsum(starts) - 1, f_col,
        1 - 2 * f_in, "=", 0,
    )

    # source rows, per demand: out-flow equals width (or width * y) in
    # colors, that is one window (or y), by color then column; in-flow zero.
    # Row 2k is demand k's out row, kept even with no terms: a demand
    # without any variable at its source makes the model infeasible, and the
    # row records why. Row 2k + 1 is its in row, if it has terms.
    out, inn = tail == s, head == s
    src_row = np.concatenate((2 * di[out], 2 * di[inn] + 1))
    src_c = np.concatenate((color[out], color[inn]))
    src_col = np.concatenate((col[out], col[inn]))
    src_val = np.ones(len(src_col))
    if mode == "maxsubset":  # the selector closes the out row
        src_row = np.concatenate((src_row, 2 * np.arange(n_d)))
        src_c = np.concatenate((src_c, np.full(n_d, slots + 1)))
        src_col = np.concatenate((src_col, n_flow + np.arange(n_d)))
        src_val = np.concatenate((src_val, -units))
    order = _order((src_row, src_c, src_col), (2 * n_d, slots + 2, n_flow + n_d))
    kept = np.zeros(2 * n_d, dtype=bool)
    kept[0::2] = True
    kept[src_row] = True
    kept = np.flatnonzero(kept)
    names = partial(
        _named, "{}_d{}", np.array(["srcout", "srcin"])[kept % 2], d_ids[kept // 2]
    )
    rhs = 0 if mode == "maxsubset" else units[kept // 2]
    rows.block(
        {"srcout": n_d, "srcin": len(kept) - n_d}, names,
        np.searchsorted(kept, src_row[order]), src_col[order], src_val[order], "=",
        np.where(kept % 2, 0, rhs),
    )

    # reachability: occupied length is at most reach * width in colors, that
    # is reach in windows
    lengths = np.array([l.length for l in links], dtype=np.float64)[li]
    on = lengths != 0
    starts = _starts(di[on])
    reached = di[on][starts].tolist()
    rows.block(
        {"reach": len(reached)}, partial(_named, "reach_d{}", d_ids[reached]),
        np.cumsum(starts) - 1, col[on], lengths[on], "<=",
        [demands[k].reach * units[k] for k in reached],
    )

    # unicolor: a (link, color) slot carries at most one demand, one
    # direction; columns by index
    u_col = np.repeat(col, span)
    u_c = color[u_col] + np.arange(len(u_col)) - np.repeat(np.cumsum(span) - span, span)
    order = _order((li[u_col], u_c, u_col), (n_l, slots + 1, n_flow))
    u_col, u_c = u_col[order], u_c[order]
    u_l = li[u_col]
    starts = _starts(u_l, u_c)
    names = partial(_named, "uni_l{}_c{}", l_ids[u_l[starts]], u_c[starts])
    rows.block(
        {"uni": np.count_nonzero(starts)}, names, np.cumsum(starts) - 1, u_col,
        np.ones(len(u_col)), "<=", 1,
    )
    # exceeds any flow's cost: a slot carries at most one demand, so the
    # flow cost is at most the count of distinct (demand, link, color) slots
    # that the columns cover
    big_m = 1 + int(np.count_nonzero(_starts(u_l, u_c, di[u_col])))

    # contiguity families, per arc over its own colors (a missing column
    # counts as zero); identically true for width-1 demands, so skipped, and
    # windows need none
    if not windows:
        all_firsts = frozenset(range(1, net.slot_count + 1))
        free_firsts: dict = {}  # width -> per link position, its free windows' first colors
        arc_starts = np.flatnonzero(_starts(di, li, side)).tolist()
        for base, end in zip(arc_starts, arc_starts[1:] + [n_flow]):
            d, e = demands[di[base]], li[base]
            w = d.width
            if w == 1:
                continue
            if variant == "base":
                firsts = all_firsts
            else:
                if w not in free_firsts:
                    free_firsts[w] = [
                        frozenset((np.flatnonzero(flags) + 1).tolist())
                        for flags in free_windows(net.free, w).T
                    ]
                firsts = free_firsts[w][e]
            colors = color[base:end].tolist()
            tag = f"d{d.id}_l{links[e].id}{'fb'[side[base]]}"
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
                    rows.add(f"{fam}_{tag}_c{c}", terms, vals, ">=", 0)
                elif variant != "base":
                    terms, vals = [base + k], [-1]
                    if c - 1 in pos:
                        terms.append(base + pos[c - 1])
                        vals.append(1)
                    rows.add(f"ctgC_{tag}_c{c}", terms, vals, ">=", 0)

    n = n_flow + len(selectors)
    c_vec = np.zeros(n)
    c_vec[:n_flow] = span
    c_vec[n_flow:] = -big_m
    ub = np.ones(n)
    if variant == "base":  # colors 1..C, fixed at zero where occupied
        ub[:n_flow][~net.free[li, color - 1]] = 0.0
    a, lower, upper = rows.matrix(n)

    return MilpModel(
        variant=variant,
        mode=mode,
        c=c_vec,
        ub=ub,
        a=a,
        lower=lower,
        upper=upper,
        demand=d_ids[di],
        link=l_ids[li],
        forward=side == 0,
        color=color,
        selectors=selectors,
        families=rows.families,
        name_parts=tuple(rows.parts),
    )
