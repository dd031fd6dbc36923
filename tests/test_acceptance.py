"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus criteria share
session-scoped solve caches; each criterion still times the work it is
specified to bound.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import corpus_instances
from flexrsa.backend import INFEASIBLE, OPTIMAL, SolverConfig, solve
from flexrsa.bench import TIMING_COLUMNS
from flexrsa.cli import main as cli_main
from flexrsa.extract import extract_paths, verify_solution
from flexrsa.io import load_instance, save_instance
from flexrsa.lpformat import emit_lp_text
from flexrsa.milp import SelectVar, build_model, model_statistics
from flexrsa.model import RestorationInstance
from flexrsa.oracle import OracleGuard, oracle_solve, oracle_useful_triples
from flexrsa.testgen import (
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
from flexrsa.trimming import compute_useful_triples

CFG = SolverConfig(solver="builtin", time_limit=120)
WORKERS = 4


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}")


def _pmap(fn, items):
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(fn, items))


def _triples_equal(a, b):
    return (
        a.useful == b.useful
        and dict(a.first_colors) == dict(b.first_colors)
        and dict(a.valid_first_colors) == dict(b.valid_first_colors)
        and a.non_reroutable == b.non_reroutable
    )


@pytest.fixture(scope="session")
def corpus200():
    return corpus_instances(count=200)


@pytest.fixture(scope="session")
def trimmed_runs(corpus200):
    """Per instance: triples, trimmed-MILP outcome, oracle feasibility."""

    def work(item):
        seed, inst = item
        triples = compute_useful_triples(inst)
        model = build_model(inst, triples, "trimmed")
        outcome = solve(model, CFG)
        return seed, inst, triples, model, outcome

    start = time.perf_counter()
    rows = _pmap(work, corpus200)
    oracle = {seed: oracle_solve(inst) for seed, inst in corpus200}
    elapsed = time.perf_counter() - start
    return {"rows": rows, "oracle": oracle, "elapsed": elapsed}


@pytest.fixture(scope="session")
def gen14_run():
    """Criterion-6 pipeline on the shipped 14-node/21-link topology."""
    topology = load_instance(builtin_topology_path("ring14")).network
    loaded = generate_loaded_network(
        topology, reach_km=2500.0, width_schedule=(1, 4, 2, 1), seed=7,
        modulation="qpsk",
    )
    scenario = make_scenario(loaded, loaded.eligible_links()[0], "first")
    inst = scenario.instance

    t0 = time.perf_counter()
    triples = compute_useful_triples(inst)
    trim_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    base = build_model(inst, triples, "base")
    trimmed = build_model(inst, triples, "trimmed")
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    outcome = solve(trimmed, CFG)
    solve_s = time.perf_counter() - t0
    return {
        "instance": inst,
        "triples": triples,
        "base_vars": model_statistics(base)["variables"],
        "trimmed_vars": model_statistics(trimmed)["variables"],
        "trimmed_model": trimmed,
        "outcome": outcome,
        "trim_s": trim_s,
        "build_s": build_s,
        "solve_s": solve_s,
    }


def test_criterion_01_trimming_oracle_equivalence(corpus200):
    start = time.perf_counter()
    mismatches = []
    for seed, inst in corpus200:
        if not _triples_equal(
            compute_useful_triples(inst), oracle_useful_triples(inst)
        ):
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120
    _report(
        1, "trimming == oracle on 200 seeded instances", ok,
        f"{elapsed:.1f}s, mismatches={mismatches[:5]}",
    )
    assert not mismatches, f"trim/oracle mismatch on seeds {mismatches}"
    assert elapsed < 120, f"took {elapsed:.1f}s (budget 120s)"


def test_criterion_02_end_to_end_feasibility(trimmed_runs):
    bad = []
    for seed, inst, triples, model, outcome in trimmed_runs["rows"]:
        oracle = trimmed_runs["oracle"][seed]
        if oracle.feasible:
            if outcome.status != OPTIMAL or outcome.objective != oracle.min_total_slots:
                bad.append((seed, outcome.status, outcome.objective,
                            oracle.min_total_slots))
                continue
            result = extract_paths(outcome.chosen, model, inst)
            if not verify_solution(result.paths, inst).ok:
                bad.append((seed, "verify"))
            elif result.total_slots() != outcome.objective:
                bad.append((seed, "slot-count"))
        else:
            if outcome.status != INFEASIBLE:
                bad.append((seed, outcome.status, "expected infeasible"))
    elapsed = trimmed_runs["elapsed"]
    ok = not bad and elapsed < 600
    _report(
        2, "trimmed MILP == oracle (status, objective, verified paths)", ok,
        f"{elapsed:.1f}s, bad={bad[:5]}",
    )
    assert not bad, f"disagreements: {bad}"
    assert elapsed < 600, f"took {elapsed:.1f}s (budget 600s)"


def test_criterion_03_variant_agreement(corpus200, trimmed_runs):
    reference = {
        seed: (outcome.status, outcome.objective)
        for seed, _i, _t, _m, outcome in trimmed_runs["rows"]
    }

    def work(item):
        seed, inst = item
        results = {}
        for variant in ("base", "notrim"):
            outcome = solve(build_model(inst, None, variant), CFG)
            results[variant] = (outcome.status, outcome.objective)
        return seed, results

    bad = []
    for seed, results in _pmap(work, corpus200):
        for variant, got in results.items():
            if got != reference[seed]:
                bad.append((seed, variant, got, reference[seed]))
    ok = not bad
    _report(3, "base / notrim / trimmed agree in status and objective", ok,
            f"bad={bad[:5]}")
    assert not bad, f"variant disagreements: {bad}"


def _selected(model, outcome):
    """The number of selector columns a maxsubset solve set."""
    return sum(isinstance(model.variables[j], SelectVar) for j in outcome.chosen)


def test_criterion_04_maxsubset_optimality(corpus200, trimmed_runs):
    def work(item):
        seed, inst = item
        triples = compute_useful_triples(inst)
        keep = tuple(
            d for d in inst.demands if d.id not in triples.non_reroutable
        )
        pruned = RestorationInstance(inst.network, keep)
        pruned_triples = compute_useful_triples(pruned)
        model = build_model(pruned, pruned_triples, "trimmed", "maxsubset")
        outcome = solve(model, CFG)
        if outcome.status != OPTIMAL:
            return seed, None, outcome.status
        return seed, _selected(model, outcome), OPTIMAL

    bad = []
    results = _pmap(work, corpus200)
    oracle_by_seed = {
        seed: oracle_solve(inst, "maxsubset") for seed, inst in corpus200
    }
    feasible = {
        seed: trimmed_runs["oracle"][seed].feasible for seed, _ in corpus200
    }
    demand_count = {seed: len(inst.demands) for seed, inst in corpus200}
    for seed, restored, status in results:
        want = oracle_by_seed[seed].max_subset_size
        if restored != want:
            bad.append((seed, status, restored, want))
        elif feasible[seed] and restored != demand_count[seed]:
            bad.append((seed, "full-restore", restored, demand_count[seed]))
    ok = not bad
    _report(4, "maxsubset MILP == oracle maximum subset", ok, f"bad={bad[:5]}")
    assert not bad, f"maxsubset disagreements: {bad}"


def test_criterion_05_golden_fixtures(t1, t2, t3, t4):
    failures = []

    out1 = solve(build_model(t1, compute_useful_triples(t1), "trimmed"), CFG)
    if out1.status != OPTIMAL or out1.objective != 2:
        failures.append(f"T1: {out1.status}/{out1.objective}, expected optimal/2")

    triples2 = compute_useful_triples(t2)
    if triples2.first_colors_of(2, 1) != {2} or triples2.first_colors_of(2, 2) != {2}:
        failures.append("T2: first colors are not {2}")
    model2 = build_model(t2, triples2, "trimmed")
    out2 = solve(model2, CFG)
    if out2.status != OPTIMAL:
        failures.append(f"T2: {out2.status}, expected optimal")
    else:
        path2 = extract_paths(out2.chosen, model2, t2).paths[2]
        if path2.first_color != 2:
            failures.append(f"T2: first color {path2.first_color}, expected 2")

    triples3 = compute_useful_triples(t3)
    out3 = solve(build_model(t3, triples3, "trimmed"), CFG)
    if out3.status != INFEASIBLE:
        failures.append(f"T3: {out3.status}, expected infeasible")
    model3m = build_model(t3, triples3, "trimmed", "maxsubset")
    restored3 = _selected(model3m, solve(model3m, CFG))
    if restored3 != 1:
        failures.append(f"T3: max subset {restored3}, expected 1")

    triples4 = compute_useful_triples(t4)
    if (4, 1, 4) not in triples4.useful:
        failures.append("T4: useful triple (d4, L1, c4) missing")
    if 4 in triples4.first_colors_of(4, 1):
        failures.append("T4: color 4 wrongly a first color")
    model4 = build_model(t4, triples4, "trimmed")
    out4 = solve(model4, CFG)
    if out4.status != OPTIMAL:
        failures.append(f"T4: {out4.status}, expected optimal")
    else:
        path4 = extract_paths(out4.chosen, model4, t4).paths[4]
        if path4.width != 2 or path4.first_color not in (1, 2, 3):
            failures.append(f"T4: got width {path4.width} at {path4.first_color}")

    _report(5, "golden fixtures T1-T4", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_06_trimming_reduction(gen14_run):
    ratio = gen14_run["trimmed_vars"] / gen14_run["base_vars"]
    outcome = gen14_run["outcome"]
    ok = (
        ratio <= 0.25
        and gen14_run["solve_s"] < 120
        and outcome.status in (OPTIMAL, "feasible")
    )
    _report(
        6, "trimmed <= 25% of base variables on generated 14/21 topology", ok,
        f"{gen14_run['trimmed_vars']}/{gen14_run['base_vars']} = {ratio:.1%}, "
        f"solve {gen14_run['solve_s']:.1f}s, {outcome.status}",
    )
    assert ratio <= 0.25, f"trimmed/base = {ratio:.1%}"
    assert gen14_run["solve_s"] < 120
    assert outcome.status in (OPTIMAL, "feasible")


def test_criterion_07_first_kind_always_feasible():
    from tests_support import small_ring

    checked = 0
    failures = []
    seed = 0
    while checked < 20:
        topology = small_ring(slot_count=6)
        loaded = generate_loaded_network(
            topology, reach_km=600.0, width_schedule=(2, 1), seed=seed
        )
        seed += 1
        eligible = loaded.eligible_links()
        for broken in eligible[:2]:
            if checked >= 20:
                break
            scenario = make_scenario(loaded, broken, "first")
            triples = compute_useful_triples(scenario.instance)
            outcome = solve(
                build_model(scenario.instance, triples, "trimmed"), CFG
            )
            if outcome.status != OPTIMAL:
                failures.append((loaded.seed, broken, outcome.status))
            checked += 1
    ok = checked == 20 and not failures
    _report(7, "20 first-kind scenarios all restorable", ok,
            f"checked={checked}, failures={failures}")
    assert checked == 20
    assert not failures, failures


def test_criterion_08_infeasibility_shortcut(t1_low_reach, tmp_path):
    instance_path = str(tmp_path / "low.json")
    save_instance(t1_low_reach, instance_path)
    out_path = str(tmp_path / "sol.json")
    # booby-trapped solver template: invoking it would produce an error status
    code = cli_main(
        ["solve", instance_path, "--solver", "cmd:false {lp_file} {sol_file}",
         "-o", out_path]
    )
    with open(out_path) as fh:
        doc = json.load(fh)
    ok = (
        code == 10
        and doc["status"] == "infeasible"
        and doc["meta"]["solver_invoked"] is False
        and doc["meta"]["proven_by"] == "trimming"
    )
    _report(8, "non-reroutable demand short-circuits without a solver", ok,
            f"exit={code}")
    assert ok


def test_criterion_09_phase_attribution(gen14_run):
    total = gen14_run["trim_s"] + gen14_run["build_s"] + gen14_run["solve_s"]
    share = gen14_run["trim_s"] / total
    ok = share < 0.10
    _report(
        9, "trimming under 10% of pipeline time", ok,
        f"trim {gen14_run['trim_s']*1000:.0f}ms of {total:.2f}s = {share:.1%}",
    )
    assert ok, f"trim share {share:.1%}"


def test_criterion_10_determinism(tmp_path, t1, t3):
    problems = []

    # generated instance + manifest bytes
    dirs = [str(tmp_path / "g1"), str(tmp_path / "g2")]
    for d in dirs:
        assert cli_main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "4",
             "--widths", "2,1", "--slot-count", "10", "--out-dir", d]
        ) == 0
    for suffix in (".json", ".manifest.json"):
        name = f"grid12-qpsk-s4-loaded{suffix}"
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        if a != b:
            problems.append(f"gen bytes differ for {name}")

    # LP text bytes
    triples = compute_useful_triples(t1)
    if emit_lp_text(build_model(t1, triples, "trimmed")) != emit_lp_text(
        build_model(t1, triples, "trimmed")
    ):
        problems.append("LP text differs between builds")

    # bench CSV modulo timing columns
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_instance(t1, str(corpus / "a.json"))
    save_instance(t3, str(corpus / "b.json"))
    csvs = []
    for i in range(2):
        csv_path = str(tmp_path / f"bench{i}.csv")
        md_path = str(tmp_path / f"bench{i}.md")
        assert cli_main(
            ["bench", str(corpus), "--solvers", "builtin", "--time-limit", "60",
             "--jobs", str(1 + i), "--csv", csv_path, "--md", md_path]
        ) == 0
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        timing = {header.index(c) for c in TIMING_COLUMNS}
        scrubbed = [
            ",".join("x" if i in timing else cell
                     for i, cell in enumerate(line.split(",")))
            for line in lines
        ]
        csvs.append(scrubbed)
    if csvs[0] != csvs[1]:
        problems.append("bench CSV differs beyond timing columns")

    _report(10, "determinism of gen / LP / bench artifacts", not problems,
            "; ".join(problems))
    assert not problems, problems
