from flexrsa.model import Demand, Link, OpticalNetwork, RestorationInstance
from flexrsa.oracle import (
    bellman_ford_distances,
    candidate_routings,
    oracle_useful_triples,
)
from flexrsa.trimming import (
    INF,
    adjacency,
    availability,
    compute_useful_triples,
    dijkstra,
    free_windows,
    triples_to_dict,
)


def assert_triples_equal(a, b):
    assert a.useful == b.useful
    assert dict(a.first_colors) == dict(b.first_colors)
    assert dict(a.valid_first_colors) == dict(b.valid_first_colors)
    assert a.non_reroutable == b.non_reroutable


def color_one_dijkstra(net, root):
    """Dijkstra from node `root` over the links on which color 1 is free."""
    active = free_windows(availability(net), 1)[0]
    lengths = [l.length for l in net.links]
    return dijkstra(adjacency(net), lengths, active, net.nodes.index(root))


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

    def test_witness_reconstruction(self, small_corpus):
        # Tightness: every useful triple is reachable through a concrete walk
        # assembled from shortest-path trees of its witness first color.
        for seed, inst in small_corpus[:20]:
            got = compute_useful_triples(inst)
            for (d_id, link_id, c) in got.useful:
                demand = inst.demand(d_id)
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
