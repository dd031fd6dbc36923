"""The per-window trimming scan, kept as a reference for `compute_useful_triples`.

Every (s, t, reach, range graph) gets its own scan with its own two
shortest-path trees and its own node-avoiding detours, and every scanned edge
takes its first colors one at a time. It is slow and plain on purpose: the
tests require `flexrsa.trimming.compute_useful_triples` to give exactly its
output.
"""

from flexrsa.trimming import UsefulTripleSet, dijkstra, free_windows


def _avoiding(adj, lengths, active, ends, root, dist, pred):
    detours: dict = {}

    def distance(node, avoid):
        x = node
        while x != root:
            u, v = ends[pred[x]]
            x = u if v == x else v
            if x == avoid:
                break
        else:
            return dist[node]
        if avoid not in detours:
            cut = list(active)
            for e, _ in adj[avoid]:
                cut[e] = False
            detours[avoid] = dijkstra(adj, lengths, cut, root)[0]
        return detours[avoid][node]

    return distance


def _scan_window(adj, ends, lengths, active, s, t, reach):
    dist_s, pred_s = dijkstra(adj, lengths, active, s)
    if dist_s[t] > reach:
        return None
    dist_t, pred_t = dijkstra(adj, lengths, active, t)
    from_s = _avoiding(adj, lengths, active, ends, s, dist_s, pred_s)
    to_t = _avoiding(adj, lengths, active, ends, t, dist_t, pred_t)
    walks, forward, backward = [], [], []
    for e, (u, v) in enumerate(ends):
        if not active[e]:
            continue
        ln = lengths[e]
        fwd = dist_s[u] + ln + dist_t[v] <= reach
        bwd = dist_s[v] + ln + dist_t[u] <= reach
        if not (fwd or bwd):
            continue
        walks.append(e)
        for arcs, ok, a, b in ((forward, fwd, u, v), (backward, bwd, v, u)):
            if ok and b != s and a != t:
                head = from_s(a, b) + ln
                if head + dist_t[b] <= reach and head + to_t(b, a) <= reach:
                    arcs.append(e)
    return walks, forward, backward


def reference_useful_triples(instance) -> UsefulTripleSet:
    net = instance.network
    adj, ends, node_index = net.adj, net.ends, net.node_index
    lengths = [l.length for l in net.links]

    first_colors: dict = {}
    arc_first: dict = {}
    valid_first: dict = {}
    non_reroutable = set()
    widths = {d.width for d in instance.demands}
    windows = {w: list(map(tuple, free_windows(net.free, w).tolist())) for w in widths}

    for demand in sorted(instance.demands, key=lambda d: d.id):
        s, t, reach = node_index[demand.s], node_index[demand.t], demand.reach
        valid = []
        marks: tuple = tuple([[] for _ in ends] for _ in range(3))
        for c, active in enumerate(windows[demand.width], start=1):
            scan = _scan_window(adj, ends, lengths, active, s, t, reach)
            if scan is None:
                continue
            valid.append(c)
            for by_edge, edges in zip(marks, scan):
                for e in edges:
                    by_edge[e].append(c)
        valid_first[demand.id] = frozenset(valid)
        if not valid:
            non_reroutable.add(demand.id)
            continue
        for link, cols, fwd_cols, bwd_cols in zip(net.links, *marks):
            if not cols:
                continue
            first_colors[(demand.id, link.id)] = frozenset(cols)
            for forward, arc_cols in ((True, fwd_cols), (False, bwd_cols)):
                if arc_cols:
                    arc_first[(demand.id, link.id, forward)] = frozenset(arc_cols)

    return UsefulTripleSet(
        first_colors=first_colors,
        valid_first_colors=valid_first,
        non_reroutable=frozenset(non_reroutable),
        arc_first_colors=arc_first,
        widths={d.id: d.width for d in instance.demands},
    )
