import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexrsa.io import load_instance
from flexrsa.model import Demand, Link, OpticalNetwork, RestorationInstance
from flexrsa.oracle import (
    bellman_ford_distances,
    candidate_routings,
    oracle_useful_triples,
)
from flexrsa.testgen import (
    MODULATION_REACH_KM,
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
from flexrsa.trimming import (
    INF,
    compute_useful_triples,
    dijkstra,
    free_windows,
    triples_to_dict,
)
from trimming_reference import reference_useful_triples


def assert_triples_equal(a, b):
    assert a.useful == b.useful
    assert dict(a.first_colors) == dict(b.first_colors)
    assert dict(a.valid_first_colors) == dict(b.valid_first_colors)
    assert a.non_reroutable == b.non_reroutable


def trim_digest(triples, instance) -> str:
    """sha256 over the `trim` JSON and the sorted arc first colors."""
    arcs = sorted(
        [d, l, forward, sorted(colors)]
        for (d, l, forward), colors in triples.arc_first_colors.items()
    )
    doc = {"trim": triples_to_dict(triples, instance), "arcs": arcs}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def color_one_dijkstra(net, root):
    """Dijkstra from node `root` over the links on which color 1 is free."""
    active = free_windows(net.free, 1)[0].tolist()
    lengths = [l.length for l in net.links]
    return dijkstra(net.adj, lengths, active, net.node_index[root])


class TestShortestDistances:
    def test_t1_from_node1(self, t1):
        dist, pred = color_one_dijkstra(t1.network, 1)
        assert dist == [0.0, 1.0, 2.0]
        assert pred == [-1, 0, 1]  # reaches 3 over link 2, not the long link 3

    def test_matches_bellman_ford_on_fixtures(self, t1, t2, t4):
        for inst in (t1, t2, t4):
            net = inst.network
            edges = [(l.u, l.v, l.length) for l in net.links if 1 in net.available[l.id]]
            for root in net.nodes:
                dist, _ = color_one_dijkstra(net, root)
                assert dist == [
                    bellman_ford_distances(edges, net.nodes, root)[n] for n in net.nodes
                ]

    def test_edgeless_graph(self):
        net = OpticalNetwork(["a", "b"], [Link(1, "a", "b", 1.0)], {1: []}, 1)
        assert color_one_dijkstra(net, "a") == ([0.0, INF], [-1, -1])

    def test_parallel_edges_take_minimum(self):
        links = [Link(1, 1, 2, 5.0), Link(2, 1, 2, 2.0)]
        net = OpticalNetwork([1, 2], links, {1: [1], 2: [1]}, 1)
        assert color_one_dijkstra(net, 1) == ([0.0, 2.0], [-1, 1])

    def test_equal_paths_keep_the_first_found(self):
        # two 2 km routes from 1 to 4; node 2 (lower index) leaves the heap
        # first, so node 4 is entered over link 4 (edge index 3), not link 3
        links = [Link(1, 1, 2, 1.0), Link(2, 1, 3, 1.0), Link(3, 3, 4, 1.0), Link(4, 2, 4, 1.0)]
        net = OpticalNetwork([1, 2, 3, 4], links, {l.id: [1] for l in links}, 1)
        dist, pred = color_one_dijkstra(net, 1)
        assert dist[3] == 2.0 and pred[3] == 3


class TestComputeUsefulTriples:
    def test_t1_long_edge_useless(self, t1):
        got = compute_useful_triples(t1)
        assert_triples_equal(got, oracle_useful_triples(t1))
        assert got.useful == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)}
        assert got.non_reroutable == frozenset()
        assert got.first_colors_of(1, 3) == frozenset()

    def test_t1_keeps_only_forward_arcs(self, t1):
        # 2 -> 1 would enter the source and 3 -> 2 leave the target
        got = compute_useful_triples(t1)
        assert got.arc_first_colors == {(1, 1, True): {1, 2}, (1, 2, True): {1, 2}}

    def test_arc_test_avoids_the_other_end(self):
        # 1 -> 2 (link 2) is on the walk 1-2-1-...-4, but a simple path that
        # enters 2 from 1 must go on to 4 over link 3 (1 + 10 > reach 5);
        # arc 2 -> 1 of link 2 leads back to the source. Link 2 stays useful.
        links = [Link(1, 1, 2, 1.0), Link(2, 1, 2, 1.0), Link(3, 2, 4, 10.0),
                 Link(4, 1, 3, 1.0), Link(5, 3, 4, 1.0)]
        net = OpticalNetwork([1, 2, 3, 4], links, {l.id: [1] for l in links}, 1)
        inst = RestorationInstance(net, (Demand(1, 1, 4, 1, 5.0),))
        got = compute_useful_triples(inst)
        assert got.first_colors_of(1, 2) == {1}
        assert got.arc_first_colors == {(1, 4, True): {1}, (1, 5, True): {1}}

    def test_t2_first_colors(self, t2):
        got = compute_useful_triples(t2)
        assert_triples_equal(got, oracle_useful_triples(t2))
        assert got.first_colors_of(2, 1) == {2}
        assert got.first_colors_of(2, 2) == {2}
        assert got.useful == {(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3)}
        assert (2, 1, 1) not in got.useful

    def test_t1_reach_too_low(self, t1_low_reach):
        got = compute_useful_triples(t1_low_reach)
        assert_triples_equal(got, oracle_useful_triples(t1_low_reach))
        assert got.useful == frozenset()
        assert got.non_reroutable == {1}

    def test_t4_tail_color_useful_but_not_first(self, t4):
        got = compute_useful_triples(t4)
        assert_triples_equal(got, oracle_useful_triples(t4))
        assert got.first_colors_of(4, 1) == {1, 2, 3}
        assert got.first_colors_of(4, 2) == {1, 2, 3}
        assert (4, 1, 4) in got.useful
        assert 4 not in got.first_colors_of(4, 1)

    def test_last_slot_is_a_valid_first_color_for_width_one(self):
        # A width-1 demand can start at slot C.
        net = OpticalNetwork([1, 2], [Link(1, 1, 2, 1.0)], {1: [3]}, 3)
        inst = RestorationInstance(net, (Demand(1, 1, 2, 1, 5.0),))
        got = compute_useful_triples(inst)
        assert got.first_colors_of(1, 1) == {3}
        assert got.valid_first_colors[1] == {3}

    def test_order_independence(self, t2, t4):
        net = t4.network
        demands = (t2.demands[0], t4.demands[0])
        # same network, both demands, two insertion orders
        net2 = OpticalNetwork(
            net.nodes, net.links, {k: sorted(v) for k, v in net.available.items()}, 4
        )
        a = compute_useful_triples(RestorationInstance(net2, demands))
        b = compute_useful_triples(RestorationInstance(net2, demands[::-1]))
        assert_triples_equal(a, b)

    def test_first_colors_subset_of_valid(self, small_corpus):
        for _, inst in small_corpus:
            got = compute_useful_triples(inst)
            for (d, _l), colors in got.first_colors.items():
                assert colors <= got.valid_first_colors[d]


class TestOracleEquivalence:
    def test_small_corpus_equivalence(self, small_corpus):
        for seed, inst in small_corpus:
            got = compute_useful_triples(inst)
            want = oracle_useful_triples(inst)
            try:
                assert_triples_equal(got, want)
            except AssertionError:
                raise AssertionError(f"trim/oracle mismatch on corpus seed {seed}")

    def test_every_candidate_routing_is_covered(self, small_corpus):
        # Soundness: any occupation of any valid single-demand routing is useful.
        for seed, inst in small_corpus[:20]:
            got = compute_useful_triples(inst)
            for demand in inst.demands:
                for cand in candidate_routings(inst.network, demand):
                    for link_id in cand.link_ids():
                        for c in cand.colors():
                            assert (demand.id, link_id, c) in got.useful, (
                                f"seed {seed}: missing ({demand.id},{link_id},{c})"
                            )

    def test_every_simple_path_keeps_its_arcs(self, small_corpus):
        # Arc soundness: each arc a simple path within reach traverses, in
        # walk order, keeps the path's first color, and an arc's first
        # colors are among its link's. The oracle's arc set is exactly these.
        for seed, inst in small_corpus:
            got = compute_useful_triples(inst)
            walked: dict = {}
            for demand in inst.demands:
                for cand in candidate_routings(inst.network, demand):
                    node = demand.s
                    for link in cand.links:
                        arc = (demand.id, link.id, link.u == node)
                        assert cand.first_color in got.arc_first_colors.get(arc, ()), (
                            f"seed {seed}: arc {arc} drops first color {cand.first_color}"
                        )
                        walked.setdefault(arc, set()).add(cand.first_color)
                        node = link.other(node)
            assert oracle_useful_triples(inst).arc_first_colors == walked
            for (d, l, _forward), colors in got.arc_first_colors.items():
                assert colors <= got.first_colors_of(d, l), f"seed {seed}"

    def test_witness_reconstruction(self, small_corpus):
        # Tightness: every useful triple is reachable through a concrete walk
        # assembled from shortest-path trees of its witness first color.
        for seed, inst in small_corpus[:20]:
            got = compute_useful_triples(inst)
            by_id = {d.id: d for d in inst.demands}
            for (d_id, link_id, c) in got.useful:
                demand = by_id[d_id]
                firsts = [
                    c0
                    for c0 in got.first_colors_of(d_id, link_id)
                    if c0 <= c <= c0 + demand.width - 1
                ]
                assert firsts, f"seed {seed}: no witness first color for ({d_id},{link_id},{c})"
                c0 = firsts[0]
                net = inst.network
                needed = range(c0, c0 + demand.width)
                edges = [  # the range graph of c0
                    (l.u, l.v, l.length)
                    for l in net.links
                    if all(cc in net.available[l.id] for cc in needed)
                ]
                link = net.link(link_id)
                ds = bellman_ford_distances(edges, net.nodes, demand.s)
                dt = bellman_ford_distances(edges, net.nodes, demand.t)
                assert (
                    ds[link.u] + link.length + dt[link.v] <= demand.reach
                    or ds[link.v] + link.length + dt[link.u] <= demand.reach
                )


class TestInfeasibleShortcut:
    def test_low_reach_proves_infeasible(self, t1_low_reach):
        assert compute_useful_triples(t1_low_reach).non_reroutable == {1}

    def test_feasible_fixture(self, t1):
        assert not compute_useful_triples(t1).non_reroutable

    def test_empty_demand_set(self, t1):
        inst = RestorationInstance(t1.network, ())
        assert not compute_useful_triples(inst).non_reroutable


class TestTrimJson:
    def test_stats_and_shape(self, t2):
        doc = triples_to_dict(compute_useful_triples(t2), t2)
        assert doc["stats"]["triples_useful"] == 4
        assert doc["stats"]["triples_total"] == 5  # one demand, |C_L1|=3, |C_L2|=2
        assert doc["first_colors"] == {"2:1": [2], "2:2": [2]}
        assert doc["non_reroutable"] == []
        assert [2, 1, 2] in doc["useful"]


class TestGolden:
    """Trimming output of three seed-7 benchmark scenarios: the ring14 QPSK
    first-kind break of link 1, and the grid12 second-kind breaks 8-QAM
    f7-b12 and QPSK f17-b7."""

    @pytest.mark.parametrize(
        "topology, modulation, broken, kind, first_break, digest",
        [
            ("ring14", "qpsk", 1, "first", None,
             "163e0c952bc5016787ebcb36f34f2ebfe8e305662fa1fc965495e15d1c255a7a"),
            ("grid12", "8qam", 12, "second", 7,
             "d67d092de43f905e0177bf77ec2065d70b4a340ea330183d2f47853aacf7a775"),
            ("grid12", "qpsk", 7, "second", 17,
             "b91d9e77bdbf06fd9b72e63615f15c4c5d7c1c8bd4a607620a1340a69d6d5de1"),
        ],
        ids=["ring14-first", "grid12-8qam-f7-b12", "grid12-qpsk-f17-b7"],
    )
    def test_digest(self, topology, modulation, broken, kind, first_break, digest):
        loaded = generate_loaded_network(
            load_instance(builtin_topology_path(topology)).network,
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        inst = make_scenario(loaded, broken, kind, first_break=first_break).instance
        assert trim_digest(compute_useful_triples(inst), inst) == digest


LENGTHS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.7, 1.0)


@st.composite
def awkward_instances(draw):
    """Small instances with parallel and zero-length links, widths up to 4
    and reaches that equal a sum of link lengths taken in another order
    (0.1 + 0.2 > 0.3 in floats)."""
    n = draw(st.integers(2, 5))
    slots = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    ends = draw(st.lists(pairs, min_size=1, max_size=8))
    links = [
        Link(i + 1, u, v, draw(st.sampled_from(LENGTHS))) for i, (u, v) in enumerate(ends)
    ]
    free = {
        l.id: draw(st.sets(st.integers(1, slots), min_size=slots // 2)) for l in links
    }
    net = OpticalNetwork(range(n), links, free, slots)
    demands = []
    for i in range(draw(st.integers(1, 3))):
        s, t = draw(pairs)
        hops = draw(st.lists(st.sampled_from(links), min_size=1, max_size=4))
        summed = sorted((l.length for l in hops), reverse=draw(st.booleans()))
        reach = sum(summed) or draw(st.sampled_from(LENGTHS[1:]))
        demands.append(Demand(i + 1, s, t, draw(st.integers(1, min(4, slots))), reach))
    return RestorationInstance(net, tuple(demands))


def assert_as_reference(inst):
    got = compute_useful_triples(inst)
    want = reference_useful_triples(inst)
    assert_triples_equal(got, want)
    assert dict(got.arc_first_colors) == dict(want.arc_first_colors)


class TestReference:
    @given(awkward_instances())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_window_scan(self, inst):
        assert_as_reference(inst)

    def test_small_corpus(self, small_corpus):
        for _, inst in small_corpus:
            assert_as_reference(inst)

    def test_region_slack(self):
        # 3-4-1-2-5 over link 2 sums to the reach from 3 (0.6 + 0.7 + 1.3 +
        # 1.3) but not in the walk test's order. Without the region's slack
        # the 3-4 links fall out of the region, colors 1 and 2 (whose 3-4
        # links differ) form one group, and color 2 gets color 1's scan.
        links = [
            Link(1, 4, 1, 0.7), Link(2, 4, 3, 0.6), Link(3, 0, 3, 0.7),
            Link(4, 3, 4, 0.7), Link(5, 2, 1, 1.3), Link(6, 0, 3, 1.3),
            Link(7, 5, 2, 1.3),
        ]
        free = {1: [1, 2], 2: [1], 3: [1], 4: [2], 5: [1, 2], 6: [1, 2], 7: [1, 2]}
        net = OpticalNetwork(range(6), links, free, 2)
        assert_as_reference(
            RestorationInstance(net, (Demand(1, 3, 5, 1, 0.6 + 0.7 + 1.3 + 1.3),))
        )
