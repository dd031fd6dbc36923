"""Tests of the benchmark's answer checks.

    python3 -m pytest perfbench
"""

import checks

# a triangle 1-2-3 with a long chord 1-3; slot 2 of link 2 is taken
INSTANCE = checks.parse_instance(
    {
        "slot_count": 3,
        "nodes": [1, 2, 3],
        "links": [
            {"id": 1, "u": 1, "v": 2, "length_km": 100.0, "colors": [[1, 3]]},
            {"id": 2, "u": 2, "v": 3, "length_km": 100.0, "colors": [1, 3]},
            {"id": 3, "u": 1, "v": 3, "length_km": 500.0, "colors": [[1, 3]]},
        ],
        "demands": [
            {"id": 1, "s": 1, "t": 3, "width": 1, "reach_km": 250.0},
            {"id": 2, "s": 2, "t": 3, "width": 1, "reach_km": 250.0},
        ],
    }
)


def path(demand, links, first, width=1):
    return {"demand": demand, "links": links, "first_color": first, "width": width}


def test_valid_paths_pass():
    paths = [path(1, [1, 2], 1), path(2, [2], 3)]
    assert checks.path_problems(INSTANCE, paths) == []
    solution = {"status": "optimal", "objective": 3, "paths": paths}
    assert checks.feasible_answer_problems(INSTANCE, solution) == []


def test_overlapping_paths_rejected():
    paths = [path(1, [1, 2], 1), path(2, [2], 1)]  # both hold slot 1 of link 2
    problems = checks.path_problems(INSTANCE, paths)
    assert any("slot 1" in p and "link 2" in p for p in problems)


def test_path_over_reach_rejected():
    problems = checks.path_problems(INSTANCE, [path(1, [3], 1)])  # 500 km > 250 km
    assert any("exceeds reach" in p for p in problems)


def test_taken_slot_and_broken_walk_rejected():
    assert checks.path_problems(INSTANCE, [path(2, [2], 2)])  # slot 2 is not free
    assert checks.path_problems(INSTANCE, [path(1, [2], 1)])  # link 2 does not leave 1


def test_objective_must_equal_slot_cost():
    paths = [path(1, [1, 2], 1), path(2, [2], 3)]
    solution = {"status": "optimal", "objective": 2, "paths": paths}
    assert checks.feasible_answer_problems(INSTANCE, solution)


def test_trim_proof_checked_with_own_shortest_paths():
    tight = checks.parse_instance(
        {
            "slot_count": 2,
            "nodes": [1, 2, 3],
            "links": [
                {"id": 1, "u": 1, "v": 2, "length_km": 100.0, "colors": [1]},
                {"id": 2, "u": 2, "v": 3, "length_km": 100.0, "colors": [2]},
            ],
            "demands": [{"id": 7, "s": 1, "t": 3, "width": 1, "reach_km": 300.0}],
        }
    )
    assert checks.non_reroutable(tight) == [7]  # no single slot is free end to end
    claim = {"status": "infeasible", "meta": {"non_reroutable": [7]}}
    assert checks.trim_proof_problems(tight, claim) == []
    assert checks.trim_proof_problems(INSTANCE, {"meta": {"non_reroutable": [1]}})
