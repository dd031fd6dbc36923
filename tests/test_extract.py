import pytest

from flexrsa.backend import OPTIMAL, SolverConfig, solve
from flexrsa.extract import (
    ExtractionError,
    extract_paths,
    solution_to_dict,
    verify_solution,
)
from flexrsa.milp import FlowVar, SelectVar, WindowVar, build_model
from flexrsa.model import RestorationInstance, RoutedPath
from flexrsa.oracle import oracle_solve
from flexrsa.trimming import compute_useful_triples

BUILTIN = SolverConfig(solver="builtin", time_limit=60)


def solve_trimmed(inst, mode="feasibility"):
    triples = compute_useful_triples(inst)
    model = build_model(inst, triples, "trimmed", mode)
    out = solve(model, BUILTIN)
    assert out.status == OPTIMAL
    return model, out


class TestExtraction:
    def test_t1_route(self, t1):
        model, out = solve_trimmed(t1)
        result = extract_paths(out.assignment, model, t1)
        path = result.paths[1]
        assert path.link_ids() == (1, 2)
        assert path.first_color in (1, 2)
        assert verify_solution(result.paths, t1).ok

    def test_t4_contiguous_width_two(self, t4):
        model, out = solve_trimmed(t4)
        path = extract_paths(out.assignment, model, t4).paths[4]
        assert path.link_ids() == (1, 2)
        assert path.width == 2
        assert path.first_color in (1, 2, 3)

    def test_empty_demands(self, t1):
        inst = RestorationInstance(t1.network, ())
        model, out = solve_trimmed(inst)
        assert extract_paths(out.assignment, model, inst).paths == {}

    def test_t3_maxsubset_restores_exactly_one(self, t3):
        model, out = solve_trimmed(t3, "maxsubset")
        result = extract_paths(out.assignment, model, t3)
        assert result.restored is not None
        assert len(result.restored) == 1
        (path,) = result.paths.values()
        assert path.link_ids() == (1,)

    def test_objective_consistency(self, t1, t2, t4):
        for inst in (t1, t2, t4):
            model, out = solve_trimmed(inst)
            result = extract_paths(out.assignment, model, inst)
            assert result.total_slots() == out.objective


def fv(d, l, fwd, c):
    return FlowVar(d, l, fwd, c)


class TestExtractionErrors:
    """Flow models (`notrim`) for per-color faults; windows at the end."""

    def test_split_flow_at_source(self, t1):
        model = build_model(t1, None, "notrim")
        bad = {v: 0 for v in model.variables}
        bad[fv(1, 1, True, 1)] = 1  # forward on link 1 at color 1
        bad[fv(1, 1, True, 2)] = 1  # and again at color 2: two source links? no,
        # same link twice is a broken block of width 2 for a width-1 demand
        bad[fv(1, 2, True, 1)] = 1
        with pytest.raises(ExtractionError):
            extract_paths(bad, model, t1)

    def test_cycle_component_detected(self, t4):
        # legit path at colors 1-2 plus a bogus extra occupation at color 4
        model = build_model(t4, None, "notrim")
        bad = {v: 0 for v in model.variables}
        for link in (1, 2):
            for c in (1, 2):
                bad[fv(4, link, True, c)] = 1
        bad[fv(4, 1, False, 4)] = 1
        with pytest.raises(ExtractionError, match="leftover|block|outgoing"):
            extract_paths(bad, model, t4)

    def test_unselected_demand_with_flow(self, t3):
        model = build_model(t3, None, "notrim", "maxsubset")
        bad = {v: 0 for v in model.variables}
        bad[SelectVar(1)] = 1
        bad[fv(1, 1, True, 1)] = 1
        bad[fv(2, 1, False, 1)] = 1  # demand 2 not selected but flows
        with pytest.raises(ExtractionError, match="unselected"):
            extract_paths(bad, model, t3)

    def test_broken_color_block(self, t4):
        model = build_model(t4, None, "notrim")
        bad = {v: 0 for v in model.variables}
        for link in (1, 2):
            bad[fv(4, link, True, 1)] = 1
            bad[fv(4, link, True, 3)] = 1  # gap at color 2
        with pytest.raises(ExtractionError, match="contiguous|block"):
            extract_paths(bad, model, t4)

    @pytest.mark.parametrize("windows", [
        [(1, 1), (1, 2), (2, 1)],  # two overlapping windows on link 1
        [(1, 1), (2, 3)],  # the links carry different windows
    ], ids=["overlap", "mismatch"])
    def test_window_blocks(self, t4, windows):
        model = build_model(t4, compute_useful_triples(t4), "trimmed")
        bad = {v: 0 for v in model.variables}
        for link, first in windows:
            bad[WindowVar(4, link, True, first)] = 1
        with pytest.raises(ExtractionError, match="contiguous block"):
            extract_paths(bad, model, t4)

    @pytest.mark.parametrize("variant, key", [
        ("trimmed", FlowVar), ("notrim", WindowVar),
    ], ids=["flow-in-windows", "window-in-flow"])
    def test_column_of_the_other_kind(self, t1, variant, key):
        # t1's route 1-2 at color 1, keyed by the kind the model does not have
        model = build_model(t1, compute_useful_triples(t1), variant)
        bad = {v: 0 for v in model.variables}
        bad[key(1, 1, True, 1)] = 1
        bad[key(1, 2, True, 1)] = 1
        with pytest.raises(ExtractionError, match=f"{key.__name__} column in a {variant} model"):
            extract_paths(bad, model, t1)


def witness_arcs(path, s):
    """(link, forward) per link of a routed path, walked from s."""
    arcs, cur = [], s
    for link in path.links:
        forward = link.u == cur
        arcs.append((link, forward))
        cur = link.v if forward else link.u
    return arcs


def column(model, d_id, link_id, forward, color):
    """A demand's column on an arc at a color: its flow column, or in a
    window model the window that starts there."""
    key = WindowVar if model.variant == "trimmed" else FlowVar
    return key(d_id, link_id, forward, color)


def starts(model, path):
    """The colors at which a path's columns start: its one window, or each
    color of its block."""
    return (path.first_color,) if model.variant == "trimmed" else path.colors()


def witness_assignment(model, instance, witness):
    """The model's columns set to 1 exactly where the witness routes flow,
    with every routed demand selected in maxsubset."""
    assignment = {v: 0 for v in model.variables}
    demands = {d.id: d for d in instance.demands}
    for d_id, path in witness.items():
        if model.mode == "maxsubset":
            assignment[SelectVar(d_id)] = 1
        for link, forward in witness_arcs(path, demands[d_id].s):
            for c in starts(model, path):
                assignment[column(model, d_id, link.id, forward, c)] = 1
    assert set(assignment) == set(model.variables)  # the witness has columns
    return assignment


def broken_assignments(model, instance, witness, assignment):
    """Single changes to a witness assignment that must each be refused:
    (what changed, the changed assignment)."""
    columns = set(model.variables)
    demands = {d.id: d for d in instance.demands}
    for d_id, path in sorted(witness.items()):
        d = demands[d_id]
        arcs = witness_arcs(path, d.s)
        on_path = {d.s, d.t} | {n for link in path.links for n in (link.u, link.v)}
        set_at = set(starts(model, path))
        changes = []
        for link, forward in arcs:
            key = column(model, d_id, link.id, forward, path.first_color)
            changes.append((f"drop d{d_id} l{link.id}", key, 0))
            for c in range(1, instance.network.slot_count + 1):
                if c not in set_at:
                    key = column(model, d_id, link.id, forward, c)
                    changes.append((f"d{d_id} l{link.id} at c{c}", key, 1))
        for link in instance.network.links:
            for forward in (True, False):
                head = link.v if forward else link.u
                tail = link.u if forward else link.v
                key = column(model, d_id, link.id, forward, path.first_color)
                if head == d.s:
                    changes.append((f"d{d_id} l{link.id} enters the source", key, 1))
                elif tail not in on_path and head not in on_path:
                    changes.append((f"d{d_id} l{link.id} detached", key, 1))
        if model.mode == "maxsubset":
            changes.append((f"d{d_id} unselected", SelectVar(d_id), 0))
        for what, key, value in changes:
            if key in columns and assignment[key] != value:
                yield what, {**assignment, key: value}


class TestWitnessRoundTrip:
    """Every feasible corpus instance's oracle witness, written as a model
    assignment, extracts to exactly that witness; each single change that
    leaves the one-simple-path-per-demand shape is refused."""

    @pytest.mark.parametrize("variant", ["base", "notrim", "trimmed"])
    def test_corpus(self, small_corpus, variant):
        refused = 0
        for seed, inst in small_corpus:
            outcome = oracle_solve(inst)
            if not outcome.feasible:
                continue
            triples = compute_useful_triples(inst)
            for mode in ("feasibility", "maxsubset"):
                model = build_model(inst, triples, variant, mode)
                assignment = witness_assignment(model, inst, outcome.witness)
                result = extract_paths(assignment, model, inst)
                assert result.paths == outcome.witness, seed
                for what, bad in broken_assignments(model, inst, outcome.witness, assignment):
                    try:
                        extract_paths(bad, model, inst)
                    except ExtractionError:
                        refused += 1
                    else:
                        pytest.fail(f"seed {seed} {mode}: {what} was accepted")
        assert refused


class TestVerification:
    def test_intersecting_paths_reported(self, t3):
        net = t3.network
        p = RoutedPath((net.link(1),), 1, 1)
        report = verify_solution({1: p, 2: p}, t3)
        assert not report.ok
        assert [v.kind for v in report.violations] == ["intersection"]
        assert report.violations[0].demands == (1, 2)

    def test_reach_violation_reported(self, t1):
        path = RoutedPath((t1.network.link(3),), 1, 1)  # length 3 > reach 2
        report = verify_solution({1: path}, t1)
        assert [v.kind for v in report.violations] == ["reach"]

    def test_availability_violation_reported(self, t2):
        path = RoutedPath((t2.network.link(1), t2.network.link(2)), 1, 2)
        report = verify_solution({2: path}, t2)
        assert any(v.kind == "availability" for v in report.violations)

    def test_unknown_demand_reported(self, t1):
        path = RoutedPath((t1.network.link(1),), 1, 1)
        report = verify_solution({99: path}, t1)
        assert [v.kind for v in report.violations] == ["unknown-demand"]

    def test_clean_solution_has_empty_report(self, t1):
        from flexrsa.oracle import oracle_solve

        witness = oracle_solve(t1).witness
        assert verify_solution(witness, t1).ok


class TestSolutionJson:
    def test_document_shape(self, t1):
        model, out = solve_trimmed(t1)
        result = extract_paths(out.assignment, model, t1)
        report = verify_solution(result.paths, t1)
        doc = solution_to_dict(out.status, out.objective, result, report, {"seed": 0})
        assert doc["status"] == "optimal"
        assert doc["objective"] == 2
        assert doc["paths"][0]["demand"] == 1
        assert doc["paths"][0]["links"] == [1, 2]
        assert doc["violations"] == []
        assert doc["meta"]["seed"] == 0
