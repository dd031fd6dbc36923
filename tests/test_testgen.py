import hashlib

import numpy as np
import pytest

from flexrsa.io import dumps_json, instance_to_dict, load_instance
from flexrsa.model import (
    Demand,
    Link,
    OpticalNetwork,
    RestorationInstance,
    RoutedPath,
    paths_intersect,
)
from flexrsa.testgen import (
    MODULATION_REACH_KM,
    GenerationError,
    LoadedNetwork,
    ProvisionedDemand,
    _Router,
    _self_check,
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
from flexrsa.trimming import dijkstra, free_windows


def load_topology(name):
    return load_instance(builtin_topology_path(name)).network


from tests_support import small_ring as small_topology


class TestModulationReaches:
    def test_values(self):
        assert MODULATION_REACH_KM == {
            "bpsk": 5000.0,
            "qpsk": 2500.0,
            "8qam": 1250.0,
        }


class TestGolden:
    """The benchmark corpus: two seed-7 scenarios must keep their exact JSON."""

    @pytest.mark.parametrize(
        "topology, modulation, broken, kind, first_break, digest",
        [
            ("ring14", "qpsk", 1, "first", None,
             "bd3d9fb78699d0a990f6296831c7e459ff3cdffb8457825e04e1c0ead8334fc1"),
            ("grid12", "8qam", 12, "second", 7,
             "8abdb1e572f9ed3cd69ef61a9098b77d732572d99d3d5d6ccd1f56aaacd60bae"),
        ],
    )
    def test_scenario_digest(self, topology, modulation, broken, kind, first_break, digest):
        loaded = generate_loaded_network(
            load_topology(topology),
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        scenario = make_scenario(loaded, broken, kind, first_break=first_break)
        text = dumps_json(instance_to_dict(scenario.instance))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "topology, modulation, digest",
        [
            ("ring14", "bpsk",
             "3fa49133393943144f357668ff99714b4266163945f7d6dba706a377e46ee6b3"),
            ("ring14", "qpsk",
             "17fbf2945a8555ba3b1f8a3cc25da4800740e5840bd861456ceab7168a6542ef"),
            ("ring14", "8qam",
             "edd2124931e6875f022e9a8b8a7556cf90baf66edd843fc8fbf26f042d78293a"),
            ("grid12", "bpsk",
             "15948e9fbc53e822abf6fba073c9291f79e4eab6181c45e380635e6876f087b6"),
            ("grid12", "qpsk",
             "fc52df3cba9be3d19401971679eaacf564831d73dc33aa965b3d61d378207c99"),
            ("grid12", "8qam",
             "c3e06dcf8874ed3559a0b5a51686a9e86e30328c25e6893ae414bcce76724f7e"),
        ],
    )
    def test_generator_digest(self, topology, modulation, digest):
        """The loaded network and its routing log, then a first-kind break
        of the lowest eligible link and a second-kind break of the highest
        (first break: the lowest), each with its manifest."""
        loaded = generate_loaded_network(
            load_topology(topology),
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        eligible = loaded.eligible_links()
        parts = [
            instance_to_dict(RestorationInstance(loaded.network, ())),
            list(loaded.log),
        ]
        for broken, kind in ((eligible[0], "first"), (eligible[-1], "second")):
            scenario = make_scenario(loaded, broken, kind)
            parts += [instance_to_dict(scenario.instance), scenario.manifest]
        text = dumps_json(parts)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_small_ring_sweep_digest(self):
        """Every first-kind break and every second-kind (first break, break)
        pair of eligible links on the small ring, seeds 0-3, two width
        schedules: each scenario with its manifest, or the GenerationError
        text where it is refused."""
        parts = []
        for seed in range(4):
            for widths in ((2, 1), (4, 2, 1)):
                loaded = generate_loaded_network(
                    small_topology(slot_count=8), 600.0, widths, seed=seed
                )
                eligible = loaded.eligible_links()
                parts += [
                    instance_to_dict(RestorationInstance(loaded.network, ())),
                    list(loaded.log),
                    eligible,
                ]
                cases = [(broken, "first", None) for broken in eligible]
                cases += [
                    (broken, "second", first)
                    for first in eligible
                    for broken in eligible
                    if broken != first
                ]
                for broken, kind, first in cases:
                    try:
                        scenario = make_scenario(loaded, broken, kind, first_break=first)
                    except GenerationError as err:
                        parts.append(str(err))
                    else:
                        parts += [instance_to_dict(scenario.instance), scenario.manifest]
        text = dumps_json(parts)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "5886387cc3bc18e866bdb345d0ddf358ad3bf01002a576df27d18a70d2742c3f"
        )


class TestLoading:
    def test_deterministic(self):
        topo = small_topology()
        a = generate_loaded_network(topo, 600.0, (2, 1), seed=5)
        b = generate_loaded_network(topo, 600.0, (2, 1), seed=5)
        assert instance_to_dict(
            type("I", (), {"network": a.network, "demands": ()})()
        ) == instance_to_dict(type("I", (), {"network": b.network, "demands": ()})())
        assert [pd.demand for pd in a.provisioned] == [pd.demand for pd in b.provisioned]
        assert a.log == b.log

    def test_single_link_routes_nothing(self):
        # no link-disjoint recovery exists, so not a single demand is admitted
        net = OpticalNetwork([1, 2], [Link(1, 1, 2, 50.0)], {1: [1, 2]}, 2)
        loaded = generate_loaded_network(net, 1000.0, (1,), seed=1)
        assert loaded.provisioned == ()
        assert loaded.network.available[1] == frozenset({1, 2})

    def test_rejects_partially_occupied_topology(self):
        net = OpticalNetwork([1, 2], [Link(1, 1, 2, 50.0)], {1: [1]}, 2)
        with pytest.raises(GenerationError, match="pristine"):
            generate_loaded_network(net, 1000.0, (1,), seed=1)

    def test_mains_pairwise_clean_and_widths_follow_schedule(self):
        topo = small_topology(slot_count=8)
        loaded = generate_loaded_network(topo, 600.0, (4, 2, 1), seed=3)
        assert loaded.provisioned
        widths = [pd.demand.width for pd in loaded.provisioned]
        assert set(widths) <= {1, 2, 4}
        # schedule order: all width-1 first, then 4s, then 2s, then 1s
        phases = []
        for w in widths:
            if not phases or phases[-1] != w:
                phases.append(w)
        allowed = [4, 2, 1]
        it = iter(allowed)
        for phase in phases:
            for expected in it:
                if phase == expected:
                    break
            else:
                pytest.fail(f"width phases {phases} do not follow {allowed}")
        mains = [pd.main for pd in loaded.provisioned]
        for i, a in enumerate(mains):
            for b in mains[i + 1 :]:
                assert not paths_intersect(a, b)

    def test_network_availability_reflects_mains_only(self):
        topo = small_topology(slot_count=8)
        loaded = generate_loaded_network(topo, 600.0, (1,), seed=2)
        for pd in loaded.provisioned:
            for link_id in pd.main.link_ids():
                free = loaded.network.available[link_id]
                assert not set(pd.main.colors()) & free
        # recovery reservations were removed: their slots are free unless a
        # main also took them
        main_occ = {}
        for pd in loaded.provisioned:
            for link_id in pd.main.link_ids():
                main_occ.setdefault(link_id, set()).update(pd.main.colors())
        for pd in loaded.provisioned:
            for link_id in pd.recovery.link_ids():
                for c in pd.recovery.colors():
                    if c not in main_occ.get(link_id, set()):
                        assert c in loaded.network.available[link_id]


class TestRouter:
    @pytest.mark.parametrize(
        "topology, modulation", [("ring14", "qpsk"), ("grid12", "8qam")]
    )
    def test_recovery_avail_follows_the_reservation_rule(self, topology, modulation):
        """A recovery for main M may use a slot iff no main occupies it and
        no recovery of a main sharing a link with M reserves it."""
        loaded = generate_loaded_network(
            load_topology(topology),
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        router = _Router(loaded.topology)
        for pd in loaded.provisioned:
            router.occupy_main(pd.main)
            router.reserve_recovery(pd.recovery, frozenset(pd.main.link_ids()))

        def slots(path):
            return {(l, c) for l in path.link_ids() for c in path.colors()}

        mains = set().union(*(slots(pd.main) for pd in loaded.provisioned))
        colors = range(1, loaded.topology.slot_count + 1)
        for pd in loaded.provisioned:
            own = frozenset(pd.main.link_ids())
            blocked = mains.union(*(
                slots(other.recovery)
                for other in loaded.provisioned
                if own & set(other.main.link_ids())
            ))
            expected = [
                [(l.id, c) not in blocked for c in colors]
                for l in loaded.topology.links
            ]
            assert router.recovery_avail(own).astype(bool).tolist() == expected

    @pytest.mark.parametrize(
        "topology, modulation", [("ring14", "qpsk"), ("grid12", "8qam")]
    )
    def test_first_fit_matches_searching_every_window(self, topology, modulation):
        """first_fit skips windows; a Dijkstra on every window from color 1
        must give the same route, or None, for every pair and width."""

        def reference(router, s, t, width, reach, avail, banned_links=frozenset()):
            if banned_links:
                avail = avail.copy()
                avail[[router.link_index[i] for i in banned_links]] = False
            root, target = router.node_index[s], router.node_index[t]
            for c, active in enumerate(free_windows(avail, width).tolist(), start=1):
                dist, pred = dijkstra(router.adj, router.lengths, active, root)
                if dist[target] > reach:
                    continue
                links, node = [], t
                while node != s:
                    link = router.links[pred[router.node_index[node]]]
                    links.append(link)
                    node = link.other(node)
                return RoutedPath(tuple(reversed(links)), c, width)
            return None

        loaded = generate_loaded_network(
            load_topology(topology),
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        router = _Router(loaded.topology)
        for pd in loaded.provisioned:
            router.occupy_main(pd.main)
            router.reserve_recovery(pd.recovery, frozenset(pd.main.link_ids()))
        reach = loaded.reach_km
        nodes = loaded.topology.nodes
        routed = 0
        for width in (1, 2, 4, loaded.topology.slot_count + 1):
            for s in nodes:
                for t in nodes:
                    if s == t:
                        continue
                    main = reference(router, s, t, width, reach, router.main_avail())
                    assert router.first_fit(s, t, width, reach, router.main_avail()) == main
                    # a main over the slots free of mains, if none is left
                    main = main or reference(router, s, t, width, reach, router.free)
                    if main is None:
                        continue
                    routed += 1
                    own = frozenset(main.link_ids())
                    avail = router.recovery_avail(own)
                    assert router.first_fit(
                        s, t, width, reach, avail, banned_links=own
                    ) == reference(router, s, t, width, reach, avail, banned_links=own)
        assert routed > len(nodes)  # the recovery case was exercised

    def test_disconnected_window_with_infinite_reach(self):
        """t out of reach has distance inf, which is not above an infinite
        reach; first_fit must still find no route rather than walk a
        missing predecessor."""
        router = _Router(small_topology(slot_count=2))
        avail = np.zeros_like(router.free)
        avail[[0, 2], 0] = True  # color 1 on links 1 (1-2) and 3 (3-4) only
        assert router.first_fit(1, 4, 1, float("inf"), avail) is None
        assert router.first_fit(3, 4, 1, float("inf"), avail) == RoutedPath(
            (router.links[2],), 1, 1
        )


class TestSelfCheck:
    """`_self_check` on hand-made provisionings of the small ring (links
    1: 1-2, 2: 2-3, 3: 3-4, 4: 4-5, 5: 5-1, 6: 2-5), one per invariant."""

    TOPOLOGY = small_topology(slot_count=4)

    def provision(self, *rows):
        """rows: (s, t, main link ids, main first color, recovery link ids,
        recovery first color), width 1; demand ids count from 1."""
        net = self.TOPOLOGY

        def path(ids, color):
            return RoutedPath(tuple(net.link(i) for i in ids), color, 1)

        provisioned = tuple(
            ProvisionedDemand(
                Demand(i, s, t, 1, 1000.0), path(main, mc), path(rec, rc)
            )
            for i, (s, t, main, mc, rec, rc) in enumerate(rows, start=1)
        )
        return LoadedNetwork(net, net, provisioned, 0, 1000.0, None, (1,), ())

    def test_recoveries_of_link_disjoint_mains_may_share_slots(self):
        _self_check(self.provision(
            (1, 2, [1], 1, [5, 6], 1),
            (3, 4, [3], 1, [2, 6, 4], 1),  # shares link 6, color 1 with d1's
        ))

    @pytest.mark.parametrize("rows, message", [
        (((1, 2, [1], 1, [5, 6], 1), (1, 2, [1], 1, [5, 6], 2)),
         "mains of d1 and d2 intersect"),
        (((1, 2, [1], 1, [5, 6], 1), (5, 1, [5], 1, [6, 1], 2)),
         "a main intersects a recovery reservation"),
        (((5, 1, [5], 1, [6, 1], 2), (1, 2, [1], 1, [5, 6], 1)),
         "a main intersects a recovery reservation"),
        (((1, 2, [1], 1, [5, 6], 1), (1, 3, [1, 2], 2, [5, 4, 3], 1)),
         "recoveries of d1/d2 intersect although their mains share a link"),
        (((1, 2, [1], 1, [1], 2),),
         "recovery of d1 shares a link with its main"),
        (((1, 2, [2], 1, [5, 6], 1),), "main path of d1 invalid"),
        (((1, 2, [1], 1, [5, 4], 1),), "recovery path of d1 invalid"),
    ], ids=["two-mains", "main-on-later-recovery", "main-on-earlier-recovery",
            "recoveries-of-link-sharing-mains", "recovery-on-own-main",
            "invalid-main", "invalid-recovery"])
    def test_each_invariant_raises(self, rows, message):
        with pytest.raises(GenerationError) as err:
            _self_check(self.provision(*rows))
        assert str(err.value) == message


class TestScenarios:
    def make_loaded(self):
        return generate_loaded_network(
            small_topology(slot_count=8), 600.0, (2, 1), seed=11
        )

    def test_first_kind_shape(self):
        loaded = self.make_loaded()
        eligible = loaded.eligible_links()
        assert eligible
        scenario = make_scenario(loaded, eligible[0], "first")
        inst = scenario.instance
        broken_ids = {d.id for d in inst.demands}
        assert broken_ids == {
            pd.demand.id
            for pd in loaded.provisioned
            if eligible[0] in pd.main.link_ids()
        }
        assert eligible[0] not in {l.id for l in inst.network.links}
        # freed slots: broken demands' occupations are available again
        for pd in loaded.provisioned:
            if pd.demand.id in broken_ids:
                for link_id in pd.main.link_ids():
                    if link_id == eligible[0]:
                        continue
                    assert set(pd.main.colors()) <= inst.network.available[link_id]

    def test_first_kind_recovery_witness_is_valid(self):
        from flexrsa.extract import verify_solution

        loaded = self.make_loaded()
        broken = loaded.eligible_links()[0]
        scenario = make_scenario(loaded, broken, "first")
        witness = {
            pd.demand.id: pd.recovery
            for pd in loaded.provisioned
            if broken in pd.main.link_ids()
        }
        assert verify_solution(witness, scenario.instance).ok

    def test_second_kind(self):
        loaded = self.make_loaded()
        eligible = loaded.eligible_links()
        if len(eligible) < 2:
            pytest.skip("need two eligible links")
        scenario = make_scenario(loaded, eligible[1], "second", first_break=eligible[0])
        assert scenario.kind == "second"
        assert scenario.first_break == eligible[0]
        dropped = {l.id for l in scenario.instance.network.links}
        assert eligible[0] not in dropped
        assert eligible[1] not in dropped
        assert scenario.replacement_policy in ("first_fit", "recorded_recovery")
        assert scenario.manifest["broken_demands"] == sorted(
            d.id for d in scenario.instance.demands
        )

    @pytest.mark.parametrize("widths, broken, kind, first_break, message", [
        ((2, 1), 2, "third", None, "unknown scenario kind 'third'"),
        ((2, 1), 2, "first", 99,
         "first break 99 given for a first-kind scenario; only the second kind has one"),
        ((2, 1), 1, "first", None,
         "link 1 not eligible (needs a width>1 main); eligible links: [2, 4, 5]"),
        ((1,), 1, "second", None, "no eligible link available for the first break"),
        ((2, 1), 2, "second", 2, "first and second break must differ"),
        ((2, 1), 2, "second", 1, "first break 1 not eligible; eligible links: [2, 4, 5]"),
        ((2, 1), 1, "second", 2,
         "link 1 not eligible for the second break; eligible links: [3, 4, 5, 6]"),
    ], ids=["unknown-kind", "first-kind-first-break", "first-kind-ineligible", "no-first-break",
            "same-break", "ineligible-first-break", "ineligible-second-break"])
    def test_each_refusal_text(self, widths, broken, kind, first_break, message):
        loaded = generate_loaded_network(
            small_topology(slot_count=8), 600.0, widths, seed=9
        )
        with pytest.raises(GenerationError) as err:
            make_scenario(loaded, broken, kind, first_break=first_break)
        assert str(err.value) == message

    def test_same_break_twice_rejected(self):
        loaded = self.make_loaded()
        eligible = loaded.eligible_links()
        with pytest.raises(GenerationError, match="differ"):
            make_scenario(loaded, eligible[0], "second", first_break=eligible[0])


class TestBuiltinTopologies:
    def test_ring14_shape(self):
        net = load_topology("ring14")
        assert len(net.nodes) == 14
        assert len(net.links) == 21
        assert net.slot_count == 80
        assert all(len(net.available[l.id]) == 80 for l in net.links)

    def test_grid12_shape(self):
        net = load_topology("grid12")
        assert len(net.nodes) == 12
        assert len(net.links) == 17

    def test_unknown_name(self):
        with pytest.raises(GenerationError):
            builtin_topology_path("nsfnet")


class TestFirstKindFeasibility:
    def test_small_topology_scenarios_feasible_by_oracle(self):
        from flexrsa.oracle import OracleGuard, oracle_solve

        for seed in range(4):
            loaded = generate_loaded_network(
                small_topology(slot_count=4), 600.0, (2, 1), seed=seed
            )
            for broken in loaded.eligible_links()[:2]:
                scenario = make_scenario(loaded, broken, "first")
                out = oracle_solve(
                    scenario.instance, guard=OracleGuard(max_nodes=5, max_colors=4)
                )
                assert out.feasible, f"seed {seed} break {broken}"
