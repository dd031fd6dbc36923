"""Fewest-hop first-fit and its hop lower bound, on instances built to show
each rule: placement order, the fewest hops at any first color, the reach
over trimmed arcs, and a bound that first-fit misses by one hop."""

from flexrsa.backend import OPTIMAL, SolverConfig
from flexrsa.cli import answer
from flexrsa.extract import verify_solution
from flexrsa.heuristic import hop_bound_routing
from flexrsa.model import Demand, Link, OpticalNetwork, RestorationInstance
from flexrsa.oracle import oracle_solve
from flexrsa.trimming import compute_useful_triples


def routing(instance):
    """(demand id -> (link ids, first color)) of the stage, or None."""
    paths = hop_bound_routing(instance, compute_useful_triples(instance))
    if paths is None:
        return None
    assert verify_solution(paths, instance).ok
    return {d: (p.link_ids(), p.first_color) for d, p in paths.items()}


def one_slot_network(nodes, ends, lengths=None):
    links = [
        Link(k + 1, u, v, 1.0 if lengths is None else lengths[k])
        for k, (u, v) in enumerate(ends)
    ]
    return OpticalNetwork(nodes, links, {l.id: [1] for l in links}, 1)


def test_widest_first():
    # by id, demand 1 would take color 1 and leave demand 2 no two free
    # neighbouring colors
    net = OpticalNetwork([1, 2], [Link(1, 1, 2, 1.0)], {1: [1, 2, 4]}, 4)
    inst = RestorationInstance(net, (Demand(1, 1, 2, 1, 5.0), Demand(2, 1, 2, 2, 5.0)))
    assert routing(inst) == {1: ((1,), 4), 2: ((1,), 1)}


def test_fewest_hops_at_a_higher_first_color(t1):
    # color 1 has only 1-2-3; color 2 has the direct link too
    free = {1: [1, 2], 2: [1, 2], 3: [2]}
    net = OpticalNetwork(t1.network.nodes, t1.network.links, free, 2)
    inst = RestorationInstance(net, (Demand(1, 1, 3, 1, 5.0),))
    assert routing(inst) == {1: ((3,), 2)}


def test_trimmed_arcs_joined_beyond_the_reach():
    # 1->2 lies on 1-2-4-3 (7 km) and 2->3 on 1-5-2-3 (6 km), but the
    # 2-hop path 1-2-3 is 9 km, beyond the 8 km reach
    net = one_slot_network(
        [1, 2, 3, 4, 5],
        [(1, 2), (2, 3), (2, 4), (4, 3), (1, 5), (5, 2)],
        [5.0, 4.0, 1.0, 1.0, 1.0, 1.0],
    )
    inst = RestorationInstance(net, (Demand(1, 1, 3, 1, 8.0),))
    assert routing(inst) == {1: ((5, 6, 2), 1)}  # the shorter of two 3-hop paths


def test_a_bound_missed_by_one_hop_falls_through():
    # demand 1 takes 1-2-3, and demands 2 (1->2) and 3 (2->3) each go one
    # hop around it: 6 slots. The optimum sends demand 1 over 1-4-5-3: 5.
    net = one_slot_network(
        list(range(1, 8)),
        [(1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (1, 6), (6, 2), (2, 7), (7, 3)],
    )
    inst = RestorationInstance(
        net, (Demand(1, 1, 3, 1, 9.0), Demand(2, 1, 2, 1, 9.0), Demand(3, 2, 3, 1, 9.0))
    )
    assert routing(inst) is None
    assert oracle_solve(inst, "feasibility").min_total_slots == 5
    doc = answer(inst, "trimmed", "feasibility", SolverConfig(solver="builtin"))
    assert (doc["status"], doc["objective"], doc["meta"]["solver_invoked"]) == (
        OPTIMAL, 5, True
    )


def test_contested_link_falls_through(contested_link):
    assert routing(contested_link) is None


def test_reach_is_summed_as_the_verifier_sums_it(two_route_reach):
    # 0.1 + 0.2 > 0.3 in floats: the 2-hop route is beyond the reach
    assert routing(two_route_reach) == {1: ((3, 4, 5), 1)}
