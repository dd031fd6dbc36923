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
objective vector, column upper bounds, and one row matrix with row bounds,
held as plain CSR arrays (`Csr`; numpy only, so building a model loads no
scipy). Columns come out in demand, link, direction (forward first), color
order, then the selectors; in ``base`` and ``notrim`` both directions of a
link have the same colors. The columns are a table of arrays (demand, link,
direction, color), read off sorted flat indices of the trimmed arcs (a mask
over those four axes for ``base`` and ``notrim``), so only the arcs with
columns are visited. The model keeps the table, with the selectors' demand
ids, and the number of rows of each family. Rows come family by family, each
family in sorted demand/link/color order, and every family is written as a
column block: its terms are derived from the column table as arrays, sorted
once into row order and term order, and handed to `Rows.block` whole with
the rows' bounds. The contiguity families of ``base`` and ``notrim`` are one
block with a row per column of a wider-than-one demand, in column order; a
table keyed by (arc, color) gives the columns of a row's colors, and each
row's terms come out merged. `Rows` is the one way from rows to a `Csr`
matrix; `lpformat.parse_lp_text` puts the rows of an LP file through it as
one block too. The builder reads the network's own index form (link `ends`,
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
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import InputError, RestorationInstance
from .trimming import UsefulTripleSet, free_windows

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
    """The row names of `Rows.parts`, in order: each block's callable gives
    its names."""
    return tuple(chain.from_iterable(p() for p in parts))


class Csr(NamedTuple):
    """A row matrix as plain CSR arrays: row i holds the columns
    indices[indptr[i]:indptr[i + 1]], with the values data[...] (int64
    pointers and indices, float64 values)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple  # (rows, columns)

    @property
    def nnz(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class LinearConstraint:
    """One row: sum(coeffs[v] * v) relation rhs, named by its provenance tag."""

    tag: str
    coeffs: dict
    relation: str  # "<=", "=", ">="
    rhs: float


class Rows:
    """Rows, in order, to a CSR matrix with row bounds and names.

    Rows enter only as blocks (`block`): a whole family of rows, or several
    families interleaved, from term arrays sorted by row, with per-row
    bounds. A block keeps its terms and bounds as arrays, and `matrix`
    concatenates them. A block's row names are derived only when `names` is
    read; `families` counts the rows of each family as they are appended.
    """

    def __init__(self) -> None:
        self.parts: list = []  # per block, the callable that gives its names
        self.families: dict = {}  # row family -> rows
        # per block: terms per row, columns, values, lower and upper bounds
        ints, floats = np.zeros(0, dtype=np.int64), np.zeros(0)
        self.blocks: list = [(ints, ints, floats, floats, floats)]

    @property
    def names(self) -> tuple:
        """The row names, in row order."""
        return _joined_names(self.parts)

    def block(self, families: dict, names, row, cols, vals, lower, upper) -> None:
        """Rows as many per family as `families` says; names() gives their
        names in row order, and lower and upper are their bounds, each one
        value or one per row. Term k is cols[k] with value vals[k] in row
        row[k] of the block; the terms are sorted by row, and a row's terms
        are kept in the order given. A row without terms is kept; a row that
        repeats a column or carries a zero term is refused."""
        count = sum(families.values())
        row = np.asarray(row, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(row) and (row[0] < 0 or row[-1] >= count or np.any(row[1:] < row[:-1])):
            raise ValueError(f"block {next(iter(families), '')}: terms not in row order")
        if np.any(vals == 0):
            raise ValueError(f"row {names()[row[np.argmax(vals == 0)]]}: a zero term")
        if len(cols):
            low = int(cols.min())
            span = int(cols.max()) - low + 1
            terms = np.sort(row * span + cols - low)
            twice = terms[1:][terms[1:] == terms[:-1]]
            if len(twice):
                raise ValueError(f"row {names()[twice[0] // span]}: repeats a column")
        self.parts.append(names)
        for family, rows in families.items():
            if rows:
                self.families[family] = self.families.get(family, 0) + int(rows)
        bounds = (np.broadcast_to(np.asarray(b, np.float64), count) for b in (lower, upper))
        self.blocks.append((np.bincount(row, minlength=count), cols, vals, *bounds))

    def matrix(self, n_cols: int):
        """(a, lower, upper): the rows as a `Csr` matrix over n_cols columns;
        a column outside range(n_cols) is refused."""
        counts, cols, vals, lower, upper = map(np.concatenate, zip(*self.blocks))
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError(f"a column outside range({n_cols})")
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Csr(indptr, cols, vals, (len(counts), n_cols)), lower, upper


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
    a: Csr
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
        1 - 2 * f_in, 0, 0,
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
    rhs = np.where(kept % 2, 0, 0 if mode == "maxsubset" else units[kept // 2])
    rows.block(
        {"srcout": n_d, "srcin": len(kept) - n_d}, names,
        np.searchsorted(kept, src_row[order]), src_col[order], src_val[order], rhs, rhs,
    )

    # reachability: occupied length is at most reach * width in colors, that
    # is reach in windows
    lengths = np.array([l.length for l in links], dtype=np.float64)[li]
    on = lengths != 0
    starts = _starts(di[on])
    reached = di[on][starts]
    reach = np.array([d.reach for d in demands], dtype=np.float64) * units
    rows.block(
        {"reach": len(reached)}, partial(_named, "reach_d{}", d_ids[reached]),
        np.cumsum(starts) - 1, col[on], lengths[on], -np.inf, reach[reached],
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
        np.ones(len(u_col)), -np.inf, 1,
    )
    # exceeds any flow's cost: a slot carries at most one demand, so the
    # flow cost is at most the count of distinct (demand, link, color) slots
    # that the columns cover
    big_m = 1 + int(np.count_nonzero(_starts(u_l, u_c, di[u_col])))

    # contiguity, one row per column of a demand wider than one color (a
    # width-1 row is identically true, and windows need none), in column
    # order: ctgA / ctgB if the column's color c can start a window,
    # (1 - w) x_c + x_{c+1..c+w-1} (+ w x_{c-1} in ctgA, when c - 1 can
    # start one too) >= 0; otherwise ctgC, x_{c-1} - x_c >= 0. A missing
    # column counts as zero: the arc's columns are looked up by color in a
    # table, -1 where there is none
    if not windows:
        at = np.flatnonzero(widths[di] > 1)
        w, c, l = widths[di[at]], color[at], li[at]
        w_max = int(w.max(initial=1))
        arc = np.cumsum(_starts(di, li, side)) - 1
        table = np.full((arc[-1] + 1 if n_flow else 0, slots + w_max), -1)
        table[arc, color] = col
        # opens[w, c, l]: color c can start a window of width w on link l
        opens = np.zeros((w_max + 1, slots + 1, n_l), dtype=bool)
        if variant == "base":
            opens[:, 1:] = True
        else:
            for width in np.unique(w).tolist():
                firsts = free_windows(net.free, width)
                opens[width, 1 : len(firsts) + 1] = firsts
        window, below = opens[w, c, l], opens[w, c - 1, l]
        # a row's candidate terms: its own color, the w_max - 1 colors above
        # it, then the color below it
        terms = table[arc[at, None], c[:, None] + np.append(np.arange(w_max), -1)]
        vals = np.ones(terms.shape)
        vals[:, 0] = np.where(window, 1 - w, -1)
        vals[:, -1] = np.where(window, w, 1)
        use = terms >= 0
        use[:, 1:-1] &= window[:, None] & (np.arange(1, w_max) < w[:, None])
        use[:, -1] &= below | ~window
        fam = np.where(window, np.where(below, 0, 1), 2)
        names = partial(
            _named, "{}_d{}_l{}{}_c{}", np.array(["ctgA", "ctgB", "ctgC"])[fam],
            d_ids[di[at]], l_ids[l], np.array(["f", "b"])[side[at]], c,
        )
        rows.block(
            dict(zip(("ctgA", "ctgB", "ctgC"), np.bincount(fam, minlength=3).tolist())),
            names, np.nonzero(use)[0], terms[use], vals[use], 0, np.inf,
        )

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
