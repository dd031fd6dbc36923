"""The `trimmed` window model against `notrim`, `base` and the oracle, and
the hop-bound stage against all of them.

The oracle corpus draws widths up to 2, and a window that trimming cuts off
needs width 3 or more: the first colors of an arc can then have a gap. These
tests use wider demands.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from flexrsa.backend import INFEASIBLE, OPTIMAL, SolverConfig
from flexrsa.backend import solve as backend_solve
from flexrsa.cli import answer
from flexrsa.extract import extract_paths, verify_solution
from flexrsa.heuristic import hop_bound_routing
from flexrsa.io import load_instance
from flexrsa.milp import build_model
from flexrsa.model import Demand, Link, OpticalNetwork, RestorationInstance
from flexrsa.oracle import oracle_solve
from flexrsa.testgen import (
    MODULATION_REACH_KM,
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
from flexrsa.trimming import compute_useful_triples

BUILTIN = SolverConfig(solver="builtin", time_limit=60)


def summary(doc):
    """(status, objective) of a certified answer."""
    if doc["status"] == OPTIMAL:
        assert doc["meta"]["verified"]
    return doc["status"], doc["objective"]


def kept_demands(instance, triples):
    """The instance without its non-re-routable demands, as `answer` keeps
    it in maxsubset mode."""
    return RestorationInstance(
        instance.network,
        tuple(d for d in instance.demands if d.id not in triples.non_reroutable),
    )


def milp_summary(instance, variant, mode):
    """(status, objective) of the variant's MILP itself, solved here past
    trimming's proof and the hop bound: on every demand in feasibility mode,
    on the re-routable ones in maxsubset mode."""
    triples = compute_useful_triples(instance)
    if mode == "maxsubset":
        instance = kept_demands(instance, triples)
    model = build_model(instance, triples, variant, mode)
    outcome = backend_solve(model, BUILTIN)
    if outcome.status != OPTIMAL:
        return outcome.status, None
    result = extract_paths(outcome.chosen, model, instance)
    assert verify_solution(result.paths, instance).ok
    if mode == "maxsubset":
        return OPTIMAL, len(result.restored)
    return OPTIMAL, result.total_slots()


def oracle_summary(instance, mode):
    outcome = oracle_solve(instance, mode)
    if mode == "maxsubset":
        return OPTIMAL, outcome.max_subset_size
    if outcome.feasible:
        return OPTIMAL, outcome.min_total_slots
    return INFEASIBLE, None


class TestCutOffWindow:
    def test_trimming_leaves_a_gap(self, cut_off_window):
        triples = compute_useful_triples(cut_off_window)
        assert triples.arc_first_colors[(1, 1, True)] == {1, 3}

    def test_every_variant_finds_the_optimum(self, cut_off_window):
        assert oracle_summary(cut_off_window, "feasibility") == (OPTIMAL, 6)
        for variant in ("base", "notrim", "trimmed"):
            doc = answer(cut_off_window, variant, "feasibility", BUILTIN)
            assert summary(doc) == (OPTIMAL, 6), variant
            assert doc["paths"][0]["links"] == [1, 2]
            assert doc["paths"][0]["first_color"] == 1

    def test_ring14_first_kind_break_of_link_9(self):
        modulation = "qpsk"
        loaded = generate_loaded_network(
            load_instance(builtin_topology_path("ring14")).network,
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        inst = make_scenario(loaded, 9, "first").instance
        doc = answer(inst, "trimmed", "feasibility", BUILTIN)
        assert summary(doc) == (OPTIMAL, 124)  # notrim's optimum


@st.composite
def wide_instances(draw, demands=3, slots=(4, 6), widths=4):
    """Connected networks of 2-5 nodes, up to `demands` demands of width up
    to `widths`, and a slot count in the range `slots`, within the oracle's
    default guard."""
    n = draw(st.integers(2, 5))
    ends = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    node = st.integers(1, n)
    ends += draw(
        st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3)
    )
    links = [
        Link(k + 1, u, v, float(draw(st.integers(1, 3))))
        for k, (u, v) in enumerate(ends)
    ]
    slots = draw(st.integers(*slots))
    slot_free = st.integers(0, 3).map(bool)  # three in four slots free
    free = {
        l.id: [
            c for c, ok in enumerate(
                draw(st.lists(slot_free, min_size=slots, max_size=slots)), 1
            ) if ok
        ]
        for l in links
    }
    routed = []
    for j in range(draw(st.integers(1, demands))):
        s, t = draw(st.lists(node, min_size=2, max_size=2, unique=True))
        width = draw(st.integers(1, min(widths, slots)))
        reach = float(draw(st.integers(1, 8)))
        routed.append(Demand(j + 1, s, t, width, reach))
    net = OpticalNetwork(list(range(1, n + 1)), links, free, slots)
    return RestorationInstance(net, tuple(routed))


@given(inst=wide_instances(), mode=st.sampled_from(["feasibility", "maxsubset"]))
@settings(max_examples=150, deadline=None)
def test_trimmed_agrees_with_notrim_and_the_oracle(inst, mode):
    want = oracle_summary(inst, mode)
    for variant in ("trimmed", "notrim"):
        assert milp_summary(inst, variant, mode) == want, variant
        assert summary(answer(inst, variant, mode, BUILTIN)) == want, variant


# demands contend for few slots, so that first-fit often misses the bound
@given(
    inst=wide_instances(demands=4, slots=(1, 3), widths=2),
    mode=st.sampled_from(["feasibility", "maxsubset"]),
)
@settings(max_examples=150, deadline=None)
def test_hop_bound_answers_as_the_oracle_and_the_milps(inst, mode):
    # the stage sees re-routable demands only: trimming proves the rest
    # infeasible in feasibility mode and excludes them in maxsubset mode
    triples = compute_useful_triples(inst)
    inst = kept_demands(inst, triples)
    paths = hop_bound_routing(inst, triples)
    event("answered" if paths is not None else "fell through")
    if paths is None:
        return
    assert verify_solution(paths, inst).ok
    assert set(paths) == {d.id for d in inst.demands}
    objective = sum(p.width * len(p.links) for p in paths.values())
    if mode == "maxsubset":
        objective = len(paths)
    want = oracle_summary(inst, mode)
    assert (OPTIMAL, objective) == want
    for variant in ("trimmed", "notrim"):
        assert milp_summary(inst, variant, mode) == want, variant
