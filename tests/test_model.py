import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_instances
from flexrsa.io import colors_to_runs, instance_from_dict, instance_to_dict, normalize_colors
from flexrsa.model import (
    Demand,
    InputError,
    Link,
    OpticalNetwork,
    RestorationInstance,
    RoutedPath,
    is_valid_path,
    paths_intersect,
    walk_node_sequence,
)
from flexrsa.testgen import builtin_topology_path
from flexrsa.trimming import free_windows


def links_of(instance, *ids):
    return tuple(instance.network.link(i) for i in ids)


def range_links(network, c, w):
    """Ids of the links carrying the whole color range {c .. c+w-1}."""
    window = free_windows(network.free, w)[c - 1].tolist()
    return {link.id for link, free in zip(network.links, window) if free}


class TestGraphIndex:
    def test_positions_ends_and_adjacency_in_link_id_order(self):
        # links given out of id order, with a parallel pair between b and c
        links = [Link(7, "c", "b", 1.0), Link(2, "a", "b", 1.0), Link(5, "b", "c", 2.0)]
        net = OpticalNetwork(["a", "b", "c"], links, {}, 1)
        assert [l.id for l in net.links] == [2, 5, 7]
        assert net.node_index == {"a": 0, "b": 1, "c": 2}
        assert net.ends == ((0, 1), (1, 2), (2, 1))
        assert net.adj == (((0, 1),), ((0, 0), (1, 2), (2, 2)), ((1, 1), (2, 1)))


def spectrum_networks():
    nets = [inst.network for _, inst in corpus_instances()]
    for name in ("ring14", "grid12"):
        with open(builtin_topology_path(name), encoding="utf-8") as fh:
            nets.append(instance_from_dict(json.load(fh)).network)
    return nets


class TestSpectrumIndex:
    def test_free_matrix_and_link_index_match_available(self):
        for net in spectrum_networks():
            assert net.free.shape == (len(net.links), net.slot_count)
            for e, link in enumerate(net.links):
                assert net.link_index[link.id] == e
                assert net.link(link.id) is link
                row = net.free[e].tolist()
                for c in range(1, net.slot_count + 1):
                    assert row[c - 1] == (c in net.available[link.id])

    def test_free_matrix_is_read_only(self, t2):
        with pytest.raises(ValueError):
            t2.network.free[0, 0] = False
        with pytest.raises(ValueError):
            t2.network.free[:] = True


class TestColorGraph:
    def test_t1_all_links(self, t1):
        assert range_links(t1.network, 1, 1) == {1, 2, 3}

    def test_empty_availability_gives_edgeless_graph(self):
        links = [Link(1, "a", "b", 1.0)]
        net = OpticalNetwork(["a", "b"], links, {1: []}, 2)
        assert range_links(net, 1, 1) == set()
        assert range_links(net, 2, 1) == set()

    def test_t2_color1_excludes_occupied_link(self, t2):
        assert range_links(t2.network, 1, 1) == {1}


class TestRangeGraph:
    def test_t2_range_2_2(self, t2):
        assert range_links(t2.network, 2, 2) == {1, 2}

    def test_t2_range_1_2(self, t2):
        assert range_links(t2.network, 1, 2) == {1}

    def test_width_one_equals_single_color(self, t2):
        avail = t2.network.free
        assert np.array_equal(free_windows(avail, 1), avail.T)

    def test_range_exceeding_spectrum(self, t2):
        # C = 3: width-2 ranges start at colors 1 and 2 only
        assert free_windows(t2.network.free, 2).shape == (2, 2)
        assert free_windows(t2.network.free, 4).shape == (0, 2)

    def test_contained_in_every_single_color(self, t2, t4):
        for inst in (t2, t4):
            net = inst.network
            for c in range(1, net.slot_count + 1):
                for w in range(1, net.slot_count - c + 2):
                    rg = range_links(net, c, w)
                    for cc in range(c, c + w):
                        assert rg <= range_links(net, cc, 1)


class TestWalks:
    def test_two_hop_walk(self, t1):
        seq = walk_node_sequence(links_of(t1, 1, 2), 1)
        assert seq == [1, 2, 3]

    def test_disconnected_sequence_rejected(self, t1):
        # after link 1 the walk sits at node 2, which link 3 does not touch
        assert walk_node_sequence(links_of(t1, 1, 3), 1) is None

    def test_consecutive_parallel_links_rejected(self):
        links = [Link(1, 1, 2, 1.0), Link(2, 1, 2, 1.0)]
        net = OpticalNetwork([1, 2], links, {1: [1], 2: [1]}, 1)
        assert walk_node_sequence((net.link(1), net.link(2)), 1) is None

    def test_start_not_on_first_link(self, t1):
        assert walk_node_sequence(links_of(t1, 2), 1) is None


class TestIsValidPath:
    def test_t1_route_around(self, t1):
        path = RoutedPath(links_of(t1, 1, 2), first_color=1, width=1)
        assert is_valid_path(path, t1.demands[0], t1.network)

    def test_t1_direct_link_exceeds_reach(self, t1):
        path = RoutedPath(links_of(t1, 3), first_color=1, width=1)
        assert not is_valid_path(path, t1.demands[0], t1.network)

    def test_zero_reach_rejects_everything(self, t1):
        d = Demand(9, 1, 3, 1, 0.0)
        path = RoutedPath(links_of(t1, 1, 2), first_color=1, width=1)
        assert not is_valid_path(path, d, t1.network)

    def test_occupied_color_rejected(self, t2):
        path = RoutedPath(links_of(t2, 1, 2), first_color=1, width=2)
        assert not is_valid_path(path, t2.demands[0], t2.network)
        ok = RoutedPath(links_of(t2, 1, 2), first_color=2, width=2)
        assert is_valid_path(ok, t2.demands[0], t2.network)

    def test_monotone_in_reach(self, t1):
        path = RoutedPath(links_of(t1, 3), first_color=1, width=1)
        base = Demand(1, 1, 3, 1, 3.0)
        assert is_valid_path(path, base, t1.network)
        for extra in (0.5, 1.0, 10.0):
            assert is_valid_path(
                path, Demand(1, 1, 3, 1, 3.0 + extra), t1.network
            )


class TestPathsIntersect:
    def test_same_link_same_color(self, t3):
        p = RoutedPath(links_of(t3, 1), 1, 1)
        q = RoutedPath(links_of(t3, 1), 1, 1)
        assert paths_intersect(p, q)

    def test_same_link_disjoint_colors(self, t4):
        p = RoutedPath(links_of(t4, 1), 1, 1)
        q = RoutedPath(links_of(t4, 1), 2, 1)
        assert not paths_intersect(p, q)

    def test_disjoint_links(self, t1):
        p = RoutedPath(links_of(t1, 1, 2), 1, 1)
        q = RoutedPath(links_of(t1, 3), 1, 1)
        assert not paths_intersect(p, q)

    @given(
        c1=st.integers(1, 6), w1=st.integers(1, 3),
        c2=st.integers(1, 6), w2=st.integers(1, 3),
        share=st.booleans(),
    )
    @settings(max_examples=60)
    def test_symmetric(self, c1, w1, c2, w2, share):
        a = Link(1, 1, 2, 1.0)
        b = Link(2, 2, 3, 1.0)
        p = RoutedPath((a,), c1, w1)
        q = RoutedPath((a,) if share else (b,), c2, w2)
        assert paths_intersect(p, q) == paths_intersect(q, p)


class TestValidation:
    def test_duplicate_link_id(self):
        links = [Link(1, 1, 2, 1.0), Link(1, 2, 3, 1.0)]
        with pytest.raises(InputError):
            OpticalNetwork([1, 2, 3], links, {}, 2)

    def test_self_loop(self):
        with pytest.raises(InputError):
            OpticalNetwork([1], [Link(1, 1, 1, 1.0)], {}, 2)

    def test_color_out_of_spectrum(self):
        with pytest.raises(InputError):
            OpticalNetwork([1, 2], [Link(1, 1, 2, 1.0)], {1: [3]}, 2)

    def test_demand_endpoint_missing(self):
        net = OpticalNetwork([1, 2], [Link(1, 1, 2, 1.0)], {1: [1]}, 1)
        with pytest.raises(InputError):
            RestorationInstance(net, (Demand(1, 1, 5, 1, 1.0),))

    def test_demand_width_exceeds_spectrum(self):
        net = OpticalNetwork([1, 2], [Link(1, 1, 2, 1.0)], {1: [1]}, 1)
        with pytest.raises(InputError):
            RestorationInstance(net, (Demand(1, 1, 2, 2, 1.0),))


class TestJson:
    def test_color_range_normalization(self):
        assert normalize_colors([1, 2, 5], "/x") == [1, 2, 5]
        assert normalize_colors([[1, 3], [6, 6]], "/x") == [1, 2, 3, 6]
        assert normalize_colors([1, [3, 5]], "/x") == [1, 3, 4, 5]
        with pytest.raises(InputError):
            normalize_colors([[5, 3]], "/x")
        with pytest.raises(InputError):
            normalize_colors(["a"], "/x")

    def test_runs_roundtrip(self):
        colors = [1, 2, 3, 7, 9, 10]
        runs = colors_to_runs(colors)
        assert runs == [[1, 3], [7, 7], [9, 10]]
        assert normalize_colors(runs, "/x") == colors

    def test_instance_roundtrip(self, t2):
        data = instance_to_dict(t2)
        back = instance_from_dict(data)
        assert instance_to_dict(back) == data
        assert back.network.available[2] == frozenset({2, 3})

    def test_missing_key_has_pointer(self):
        with pytest.raises(InputError, match="/links/0"):
            instance_from_dict(
                {"slot_count": 2, "nodes": [1, 2], "links": [{"id": 1}], "demands": []}
            )

    def test_demand_id_must_be_an_integer(self, t1):
        # a string id beside an integer one used to end in a TypeError when sorted
        data = instance_to_dict(t1)
        data["demands"].append(dict(data["demands"][0], id="a"))
        with pytest.raises(InputError, match="/demands/1/id: must be an integer"):
            instance_from_dict(data)
