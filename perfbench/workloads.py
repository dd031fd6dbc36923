"""The workloads: instance generation from a seed, rounds and checks.

Every workload is a closed loop: a client sends its next instance only after
the previous answer returns. A run is made of whole rounds, and every round
of a workload has the same make-up: ring14-first and grid12-second answer
the same instances in every round, tiny-oracle draws new ones of the same
classes. The program sees only the instance files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import checks

LOAD_SEED = 7  # seed of the loaded networks, as in the ROADMAP baseline
RING_BREAK = 1  # the ROADMAP baseline: 16 460 trimmed variables at QPSK
# per modulation: instances of each class in a round (see reference.py)
GRID_ROUND = {
    "8qam": {"feasible": 2, "trim": 2, "highs": 1},
    "qpsk": {"feasible": 2, "highs": 1},
}
TINY_BASE_SEED = 1000  # the acceptance corpus starts here
TINY_SEED_STRIDE = 1000  # instance seeds of one run: base + stride * seed + k
# per round: instances whose demands are all / some / none non-re-routable
TINY_ROUND = {"none": 6, "some": 1, "all": 1}
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "grid12_reference.json")


@dataclass
class Task:
    """One instance file and what an answer to it must satisfy."""

    name: str
    path: str
    inst: checks.Instance
    expect: dict = field(default_factory=dict)


@dataclass
class Answer:
    task: Task
    mode: str
    seconds: float
    exit_code: int
    solution: dict


def write_instance(doc: dict, path: str) -> checks.Instance:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return checks.parse_instance(doc)


def shuffle_lists(doc: dict, rng: random.Random) -> dict:
    """The same instance with its links and demands listed in a new order.

    flexrsa sorts links and demands by id, so the model it builds is the same;
    node names, ids and the node order are kept, because renaming or
    reordering them reorders the model's rows and columns, and HiGHS then
    takes from -25% to +10% of its time on the same instance.
    """
    links = list(doc["links"])
    demands = list(doc["demands"])
    rng.shuffle(links)
    rng.shuffle(demands)
    return dict(doc, links=links, demands=demands)


def loaded_network(topology: str, modulation: str):
    from flexrsa.io import load_instance
    from flexrsa.testgen import (
        MODULATION_REACH_KM,
        builtin_topology_path,
        generate_loaded_network,
    )

    network = load_instance(builtin_topology_path(topology)).network
    return generate_loaded_network(
        network, MODULATION_REACH_KM[modulation], seed=LOAD_SEED, modulation=modulation
    )


def second_kind_doc(loaded, first_break: int, broken_link: int) -> dict:
    from flexrsa.io import instance_to_dict
    from flexrsa.testgen import make_scenario

    scenario = make_scenario(loaded, broken_link, "second", first_break=first_break)
    return instance_to_dict(scenario.instance)


def tiny_class(inst: checks.Instance) -> str:
    stuck = len(checks.non_reroutable(inst))
    if stuck == 0:
        return "none"
    return "all" if stuck == len(inst.demands) else "some"


def tiny_doc(seed: int) -> dict:
    from flexrsa.io import instance_to_dict
    from flexrsa.oracle import random_instance

    return instance_to_dict(random_instance(random.Random(seed)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    clients = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.count = 0

    def _path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"{self.count:05d}-{stem}.json")

    def setup(self) -> None:
        """Generate what every round draws from (timed as set-up)."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        """The tasks of round r."""
        raise NotImplementedError

    def check(self, answers: list) -> list:
        """Problems of the answers to one task."""
        raise NotImplementedError

    def follow_up(self, task: Task, answer: Answer):
        """The next mode to ask for after an answer, or None."""
        return None


class RingFirst(Workload):
    """The first-kind break of link RING_BREAK of ring14 at QPSK, once a
    round, its lists shuffled by the seed."""

    def setup(self) -> None:
        from flexrsa.io import instance_to_dict
        from flexrsa.testgen import make_scenario

        loaded = loaded_network("ring14", "qpsk")
        scenario = make_scenario(loaded, RING_BREAK, "first")
        broken = set(scenario.manifest["broken_demands"])
        self.recovery_cost = sum(
            pd.demand.width * len(pd.recovery.links)
            for pd in loaded.provisioned
            if pd.demand.id in broken
        )
        self.doc = instance_to_dict(scenario.instance)

    def round(self, r: int) -> list:
        rng = random.Random(f"ring14-first-{self.seed}-{r}")
        name = f"ring14-b{RING_BREAK}"
        path = self._path(name)
        inst = write_instance(shuffle_lists(self.doc, rng), path)
        return [Task(name, path, inst, {"recovery_cost": self.recovery_cost})]

    def check(self, answers: list) -> list:
        (a,) = answers
        sol = a.solution
        if sol["status"] != "optimal":
            return [f"first-kind break answered {sol['status']}"]
        problems = checks.feasible_answer_problems(a.task.inst, sol)
        bound = a.task.expect["recovery_cost"]
        if sol["objective"] is not None and sol["objective"] > bound:
            problems.append(f"objective {sol['objective']} > recovery cost {bound}")
        return problems


def largest_first(task: Task):
    """Sort key: trim-proven instances (answered in milliseconds) last, QPSK
    (longer reach, larger models) before 8-QAM, then more broken demands first."""
    return (task.expect["class"] == "trim", "qpsk" not in task.name, -len(task.inst.demands))


class GridSecond(Workload):
    """Second-kind breaks of grid12 at 8-QAM and QPSK, the instances listed in
    the reference file; a maxsubset answer follows every infeasible one. Two
    clients.

    Every round answers the same instances, so runs that fit a different
    number of rounds still answer the same mix; the seed shuffles the lists
    in each file. Rounds of different instances made `answers_per_s` jump by
    a fifth between runs that fitted two rounds and runs that fitted three.

    The clients take the tasks largest model first (see `largest_first`), in
    the same order in every round and for every seed. A seeded task order
    paired different answers on the two CPUs from run to run, and left one
    client idle at the end of a round for up to one long answer.
    """

    clients = 2

    def setup(self) -> None:
        with open(REFERENCE, encoding="utf-8") as fh:
            self.entries = json.load(fh)["instances"]
        loaded = {m: loaded_network("grid12", m) for m in GRID_ROUND}
        self.docs = [
            second_kind_doc(loaded[e["modulation"]], e["first_break"], e["broken_link"])
            for e in self.entries
        ]

    def round(self, r: int) -> list:
        rng = random.Random(f"grid12-second-{self.seed}-{r}")
        tasks = []
        for entry, doc in zip(self.entries, self.docs):
            name = f"grid12-{entry['modulation']}-f{entry['first_break']}-b{entry['broken_link']}"
            path = self._path(name)
            tasks.append(
                Task(name, path, write_instance(shuffle_lists(doc, rng), path),
                     {"class": entry["class"], "status": entry["status"]})
            )
        tasks.sort(key=largest_first)
        return tasks

    def follow_up(self, task: Task, answer: Answer):
        if answer.mode == "feasibility" and answer.solution["status"] == "infeasible":
            return "maxsubset"
        return None

    def check(self, answers: list) -> list:
        feas = answers[0]
        inst = feas.task.inst
        sol = feas.solution
        expect = feas.task.expect
        problems = []
        if sol["status"] != expect["status"]:
            problems.append(f"status {sol['status']}, notrim reference {expect['status']}")
        by_trimming = sol.get("meta", {}).get("proven_by") == "trimming"
        if (expect["class"] == "trim") != by_trimming:
            problems.append(f"class {expect['class']} but proven_by_trimming={by_trimming}")
        if sol["status"] == "optimal":
            problems += checks.feasible_answer_problems(inst, sol)
        elif by_trimming:
            problems += checks.trim_proof_problems(inst, sol)
        if sol["status"] == "infeasible":
            if len(answers) != 2:
                return problems + ["no maxsubset follow-up"]
            sub = answers[1].solution
            problems += checks.maxsubset_answer_problems(inst, sub)
            if len(sub["paths"]) >= len(inst.demands):
                problems.append("maxsubset restores every demand of an infeasible instance")
        return problems


class TinyOracle(Workload):
    """oracle.random_instance instances, both modes each; each round holds
    TINY_ROUND instances of each class, taken in order from the seeded stream.

    Runs by hand only: BENCHMARK.json leaves it out so that the two listed
    workloads get runs long enough to be steady within the time limit (see
    README.md)."""

    def setup(self) -> None:
        self.next_seed = TINY_BASE_SEED + TINY_SEED_STRIDE * self.seed

    def round(self, r: int) -> list:
        want = dict(TINY_ROUND)
        tasks = []
        while any(want.values()):
            seed = self.next_seed
            self.next_seed += 1
            doc = tiny_doc(seed)
            cls = tiny_class(checks.parse_instance(doc))
            if want[cls]:
                want[cls] -= 1
                path = self._path(f"tiny-{seed}")
                tasks.append(
                    Task(f"tiny-{seed}", path, write_instance(doc, path), {"seed": seed})
                )
        return tasks

    def follow_up(self, task: Task, answer: Answer):
        return "maxsubset" if answer.mode == "feasibility" else None

    def check(self, answers: list) -> list:
        from flexrsa.io import load_instance
        from flexrsa.oracle import oracle_solve

        task = answers[0].task
        instance = load_instance(task.path)
        problems = []
        for a in answers:
            sol = a.solution
            truth = oracle_solve(instance, a.mode)
            if a.mode == "feasibility":
                status = "optimal" if truth.feasible else "infeasible"
                if sol["status"] != status:
                    problems.append(f"feasibility status {sol['status']}, oracle {status}")
                elif truth.feasible:
                    problems += checks.feasible_answer_problems(task.inst, sol)
                    if sol["objective"] != truth.min_total_slots:
                        problems.append(
                            f"objective {sol['objective']}, oracle {truth.min_total_slots}"
                        )
                elif sol.get("meta", {}).get("proven_by") == "trimming":
                    problems += checks.trim_proof_problems(task.inst, sol)
            else:
                problems += checks.maxsubset_answer_problems(task.inst, sol)
                if len(sol["paths"]) != truth.max_subset_size:
                    problems.append(
                        f"restored {len(sol['paths'])}, oracle {truth.max_subset_size}"
                    )
        return problems


WORKLOADS = {
    "ring14-first": RingFirst,
    "grid12-second": GridSecond,
    "tiny-oracle": TinyOracle,
}
