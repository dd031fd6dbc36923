import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

import flexrsa
from flexrsa import cli
from flexrsa.backend import SolverConfig
from flexrsa.backend import solve as backend_solve
from flexrsa.cli import main
from flexrsa.extract import ExtractionError, extract_paths, verify_solution
from flexrsa.heuristic import hop_bound_routing
from flexrsa.io import instance_to_dict, save_instance
from flexrsa.milp import build_model
from flexrsa.model import Demand, RestorationInstance
from flexrsa.trimming import compute_useful_triples
from tests_support import canned_solver


@pytest.fixture
def t1_file(t1, tmp_path):
    path = tmp_path / "t1.json"
    save_instance(t1, str(path))
    return str(path)


@pytest.fixture
def contested_file(contested_link, tmp_path):
    path = tmp_path / "contested.json"
    save_instance(contested_link, str(path))
    return str(path)


@pytest.fixture
def t3_file(t3, tmp_path):
    path = tmp_path / "t3.json"
    save_instance(t3, str(path))
    return str(path)


@pytest.fixture
def t1_low_file(t1_low_reach, tmp_path):
    path = tmp_path / "t1low.json"
    save_instance(t1_low_reach, str(path))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def fresh_interpreter(code: str) -> str:
    """What `code` prints when run by a new interpreter on this flexrsa."""
    src = os.path.dirname(os.path.dirname(flexrsa.__file__))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return run.stdout.strip()


class TestTrim:
    def test_emits_triples(self, t1_file, tmp_path, capsys):
        out = tmp_path / "trim.json"
        assert main(["trim", t1_file, "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["stats"]["triples_useful"] == 4
        assert doc["meta"]["infeasible"] is False

    def test_infeasible_flag(self, t1_low_file, tmp_path):
        out = tmp_path / "trim.json"
        assert main(["trim", t1_low_file, "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["non_reroutable"] == [1]
        assert doc["meta"]["infeasible"] is True

    def test_import_and_trim_leave_scipy_unloaded(self, t1_file, tmp_path):
        # scipy's HiGHS bindings load on the first builtin solve only; a
        # fresh interpreter shows whether importing the CLI or trimming
        # pulls scipy in
        out = tmp_path / "trim.json"
        code = (
            "import sys\n"
            "import flexrsa.cli\n"
            "loaded = ['scipy' in sys.modules]\n"
            f"assert flexrsa.cli.main(['trim', {t1_file!r}, '-o', {str(out)!r}]) == 0\n"
            "loaded.append('scipy' in sys.modules)\n"
            "print(loaded)\n"
        )
        assert fresh_interpreter(code) == "[False, False]"  # after import, after trim
        assert read_json(out)["stats"]["triples_useful"] == 4


class TestSolve:
    def test_t1_exit_zero(self, contested_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["solve", contested_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == 3
        assert doc["meta"]["verified"] is True
        assert doc["meta"]["solver_invoked"] is True
        assert doc["meta"]["proven_by"] == "milp"
        # per demand: the forward arcs of links 1, 2 at first colors 1, 2; link 3 at 1
        assert doc["meta"]["model"]["variables"] == 10
        assert list(doc["meta"]["timings"]) == [
            "load_seconds", "trim_seconds", "bound_seconds", "build_seconds",
            "solve_seconds", "highs_seconds", "extract_seconds", "verify_seconds",
        ]

    def test_highs_seconds_and_solver_stats_only_for_builtin(
        self, contested_file, tmp_path
    ):
        out = tmp_path / "sol.json"
        assert main(["solve", contested_file, "--solver", "builtin", "-o", str(out)]) == 0
        meta = read_json(out)["meta"]
        timings = meta["timings"]
        assert 0 < timings["highs_seconds"] <= timings["solve_seconds"]
        stats = meta["solver_stats"]
        assert sorted(stats) == [
            "mip_dual_bound", "mip_gap", "mip_node_count", "simplex_iteration_count",
        ]
        assert stats["mip_gap"] == 0
        assert stats["mip_dual_bound"] == 3  # the optimum
        assert isinstance(stats["mip_node_count"], int)
        assert isinstance(stats["simplex_iteration_count"], int)
        solver = canned_solver(
            tmp_path,
            "Optimal - objective value 3\n"
            "      0 z_d1_l1_f_w1 1 0\n"
            "      2 z_d1_l2_f_w1 1 0\n"
            "      9 z_d2_l3_f_w1 1 0\n",
        )
        assert main(["solve", contested_file, "--solver", solver, "-o", str(out)]) == 0
        meta = read_json(out)["meta"]
        assert "solve_seconds" in meta["timings"]
        assert "highs_seconds" not in meta["timings"]
        assert "solver_stats" not in meta

    def test_failed_external_solve_says_why_and_names_its_log(
        self, contested_file, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        solver = canned_solver(tmp_path, "segfault haiku\n")
        out = tmp_path / "sol.json"
        assert main(["solve", contested_file, "--solver", solver, "-o", str(out)]) == 1
        doc = read_json(out)
        assert doc["status"] == "error"
        assert doc["meta"]["solver_message"] == (
            "solution file has no result; first line: 'segfault haiku'"
        )
        workdir, log = os.path.split(doc["meta"]["solver_log"])
        assert log == "solver.log"
        assert os.path.dirname(workdir) == str(tmp_path)
        assert sorted(os.listdir(workdir)) == ["model.lp", "model.sol", "solver.log"]

    def test_solver_log_only_when_kept(self, contested_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", contested_file, "--solver", "builtin", "-o", str(out)]) == 0
        assert "solver_log" not in read_json(out)["meta"]
        work = tmp_path / "work"
        assert main(
            ["solve", contested_file, "--solver", "builtin", "--keep-files",
             "--workdir", str(work), "-o", str(out)]
        ) == 0
        assert read_json(out)["meta"]["solver_log"] == str(work / "solver.log")

    @pytest.mark.parametrize(
        "suffixes, options, printed",
        [
            (None, [], "False True False"),
            ([], [], "True True True"),
            (None, ["--keep-files"], "False True False"),
            (None, ["--variant", "base"], "False True False"),
        ],
        ids=["by-file", "plain-import", "keep-files", "base"],
    )
    def test_builtin_solve_loads_the_highs_bindings_alone(
        self, contested_file, tmp_path, suffixes, options, printed
    ):
        # the bindings load by file, and the model's rows are numpy arrays:
        # a solve that builds a model, prints its LP text or solves base
        # loads neither scipy.optimize nor scipy.sparse. With no extension
        # file found, the plain import serves the solve instead
        out = tmp_path / "sol.json"
        argv = ["solve", contested_file, "--solver", "builtin", "-o", str(out),
                "--workdir", str(tmp_path / "work"), *options]
        code = (
            "import importlib.machinery, sys\n"
            + (f"importlib.machinery.EXTENSION_SUFFIXES[:] = {suffixes!r}\n"
               if suffixes is not None else "")
            + "import flexrsa.cli\n"
            f"assert flexrsa.cli.main({argv!r}) == 0\n"
            "print('scipy.optimize' in sys.modules,"
            " 'scipy.optimize._highspy._core' in sys.modules,"
            " 'scipy.sparse' in sys.modules)\n"
        )
        assert fresh_interpreter(code) == printed
        assert read_json(out)["meta"]["solver_stats"]["mip_dual_bound"] == 3
        assert (tmp_path / "work" / "model.lp").exists() == ("--keep-files" in options)

    def test_stdout_holds_one_json_document(self, t1_file, capfd):
        # fd level: HiGHS would print from C, past sys.stdout
        assert main(["solve", t1_file, "--solver", "builtin", "--time-limit", "60"]) == 0
        doc = json.loads(capfd.readouterr().out)
        assert doc["status"] == "optimal"

    def test_failed_verification_exits_one(self, contested_file, tmp_path, monkeypatch):
        def shifted(*args, **kwargs):
            # move each slot block one slot out of the spectrum {1, 2}
            result = extract_paths(*args, **kwargs)
            result.paths = {
                d: dataclasses.replace(
                    p, first_color=p.first_color - 1 if p.first_color == 1 else p.first_color + 1
                )
                for d, p in result.paths.items()
            }
            return result

        monkeypatch.setattr("flexrsa.cli.extract_paths", shifted)
        out = tmp_path / "sol.json"
        code = main(
            ["solve", contested_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 1
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["meta"]["verified"] is False

    def test_failed_hop_bound_routing_is_reported_not_replaced(
        self, t1_file, tmp_path, monkeypatch
    ):
        # t1's one demand goes on 1-2-3 at color 1 through the hop bound;
        # the routing moved out of the spectrum {1, 2} is the answer, and
        # no model is built in its place
        def shifted(*args):
            paths = hop_bound_routing(*args)
            assert paths is not None
            return {d: dataclasses.replace(p, first_color=0) for d, p in paths.items()}

        monkeypatch.setattr("flexrsa.cli.hop_bound_routing", shifted)
        out = tmp_path / "sol.json"
        assert main(["solve", t1_file, "--solver", "builtin", "-o", str(out)]) == 1
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert (doc["meta"]["proven_by"], doc["meta"]["verified"]) == ("hop_bound", False)
        assert doc["violations"]
        assert "model" not in doc["meta"]
        assert doc["meta"]["solver_invoked"] is False

    def test_failed_extraction_exits_one(self, contested_file, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ExtractionError(1, "no flow assigned")

        monkeypatch.setattr("flexrsa.cli.extract_paths", broken)
        out = tmp_path / "sol.json"
        code = main(
            ["solve", contested_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 1
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["paths"] == []
        assert doc["meta"]["verified"] is False
        assert doc["meta"]["extraction_error"] == "demand 1: no flow assigned"
        assert "extract_seconds" in doc["meta"]["timings"]
        assert "verify_seconds" not in doc["meta"]["timings"]  # nothing to verify

    def test_t3_exit_ten(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["solve", t3_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 10
        assert read_json(out)["status"] == "infeasible"

    def test_t3_maxsubset_restores_one(self, t3_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["solve", t3_file, "--mode", "maxsubset", "--solver", "builtin",
             "--time-limit", "60", "-o", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["restored"] in ([1], [2])

    def test_maxsubset_objective_is_the_restored_count_as_in_oracle(
        self, t3_file, tmp_path
    ):
        objectives = {}
        for command in (["solve", "--solver", "builtin"], ["oracle"]):
            out = tmp_path / f"{command[0]}.json"
            assert main(
                [command[0], t3_file, "--mode", "maxsubset", *command[1:], "-o", str(out)]
            ) == 0
            doc = read_json(out)
            assert len(doc["restored"]) == 1
            objectives[command[0]] = doc["objective"]
        assert objectives == {"solve": 1, "oracle": 1}

    def test_no_demands_objective_is_the_integer_zero(self, t1, tmp_path):
        # as every other optimal answer's, and the oracle's
        path = tmp_path / "empty.json"
        save_instance(RestorationInstance(t1.network, ()), str(path))
        out = tmp_path / "sol.json"
        assert main(["solve", str(path), "--solver", "builtin", "-o", str(out)]) == 0
        doc = read_json(out)
        assert (doc["status"], doc["meta"]["proven_by"]) == ("optimal", "hop_bound")
        assert doc["objective"] == 0 and type(doc["objective"]) is int
        assert '"objective": 0,' in out.read_text()

    def test_trim_shortcut_skips_solver(self, t1_low_file, tmp_path):
        # a failing command template proves the solver was never invoked
        out = tmp_path / "sol.json"
        code = main(
            ["solve", t1_low_file, "--solver", "cmd:false {lp_file} {sol_file}",
             "-o", str(out)]
        )
        assert code == 10
        doc = read_json(out)
        assert doc["meta"]["solver_invoked"] is False
        assert doc["meta"]["proven_by"] == "trimming"

    def test_variant_agreement_via_cli(self, t1_file, tmp_path):
        objectives = {}
        for variant in ("base", "notrim", "trimmed"):
            out = tmp_path / f"{variant}.json"
            code = main(
                ["solve", t1_file, "--variant", variant, "--solver", "builtin",
                 "--time-limit", "60", "-o", str(out)]
            )
            assert code == 0
            objectives[variant] = read_json(out)["objective"]
        assert len(set(objectives.values())) == 1


class TestAnswerDerivesNothingItDoesNotRead:
    @pytest.mark.parametrize(
        "fixture, mode", [("contested_link", "feasibility"), ("t3", "maxsubset")],
        ids=["feasible", "maxsubset"],
    )
    def test_no_keys_names_or_triples(self, request, monkeypatch, fixture, mode):
        # trim -> build -> solve -> extract -> verify reads the column table
        # and the arrays only; the keys, row names, per-row view and useful
        # triples are derived when something else reads them
        made = {}
        for name in ("compute_useful_triples", "build_model"):
            def keep(*args, _name=name, _fn=getattr(cli, name)):
                made[_name] = _fn(*args)
                return made[_name]

            monkeypatch.setattr(cli, name, keep)
        doc = cli.answer(
            request.getfixturevalue(fixture), "trimmed", mode,
            SolverConfig(solver="builtin", time_limit=60),
        )
        assert (doc["status"], doc["meta"]["verified"]) == ("optimal", True)
        model, triples = made["build_model"], made["compute_useful_triples"]
        assert not {"variables", "row_names", "constraints"} & set(vars(model))
        assert "useful" not in vars(triples)
        assert len(model.constraints) == len(model.row_names) == model.a.shape[0]
        assert len(model.variables) == len(model.c)
        assert triples.useful


class TestReachPolicy:
    @pytest.mark.xfail(
        strict=True,
        reason="trimming compares the summed route length with the reach "
        "exactly, HiGHS accepts the reach row within its feasibility "
        "tolerance: the trimmed MILP finds objective 3, the notrim and base "
        "MILPs the 2-hop route of objective 2, which fails verification",
    )
    def test_variants_agree_on_the_reach_boundary(self, two_route_reach):
        # each variant's MILP itself, past the hop bound, which answers 3
        # for every variant by the verifier's own rule
        triples = compute_useful_triples(two_route_reach)
        answers = {}
        for variant in ("trimmed", "notrim", "base"):
            model = build_model(two_route_reach, triples, variant, "feasibility")
            outcome = backend_solve(model, SolverConfig(solver="builtin"))
            result = extract_paths(outcome.chosen, model, two_route_reach)
            report = verify_solution(result.paths, two_route_reach)
            answers[variant] = (report.ok, outcome.objective)
        assert answers["trimmed"][0]
        assert answers["notrim"] == answers["trimmed"]
        assert answers["base"] == answers["trimmed"]


class TestOracle:
    def test_t1(self, t1_file, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", t1_file, "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["objective"] == 2
        assert doc["meta"]["optima_count"] == 2

    def test_t3_maxsubset(self, t3_file, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", t3_file, "--mode", "maxsubset", "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["meta"]["max_subset_size"] == 1

    def test_guard_refusal(self, tmp_path, t1_file):
        assert main(["oracle", t1_file, "--max-nodes", "1"]) == 1


# a routed path that t1 accepts: 1 -> 2 -> 3 on color 1
GOOD_PATH = {"demand": 1, "links": [1, 2], "first_color": 1, "width": 1}


@pytest.fixture(scope="module")
def grid12_answers(tmp_path_factory):
    """grid12 8-QAM, first break 7, break 12: the instance file and its
    solution documents by mode, each optimal with 14 paths (objective 62 in
    feasibility mode, 14 restored in maxsubset mode)."""
    out_dir = str(tmp_path_factory.mktemp("corpus"))
    assert main(
        ["gen", "grid12", "--modulation", "8qam", "--seed", "7", "--break", "12",
         "--kind", "second", "--first-break", "7", "--out-dir", out_dir]
    ) == 0
    inst = os.path.join(out_dir, "grid12-8qam-s7-b12-second.json")
    docs = {}
    for mode in ("feasibility", "maxsubset"):
        sol = os.path.join(out_dir, f"{mode}.json")
        assert main(["solve", inst, "--mode", mode, "--solver", "builtin", "-o", sol]) == 0
        docs[mode] = read_json(sol)
        assert (docs[mode]["status"], len(docs[mode]["paths"])) == ("optimal", 14)
    return inst, docs


def validate(inst, doc, tmp_path):
    """The exit code of `validate` on the solution document doc, and the
    violations it reports."""
    sol, report = tmp_path / "sol.json", tmp_path / "report.json"
    sol.write_text(json.dumps(doc))
    code = main(["validate", inst, str(sol), "-o", str(report)])
    return code, read_json(report)["violations"]


class TestGenAndValidate:
    def test_gen_loaded_then_scenario_then_solve(self, tmp_path):
        out_dir = str(tmp_path / "corpus")
        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "3",
             "--widths", "2,1", "--slot-count", "12", "--out-dir", out_dir]
        ) == 0
        manifest = read_json(os.path.join(out_dir, "grid12-qpsk-s3-loaded.manifest.json"))
        assert manifest["eligible_links"]
        broken = manifest["eligible_links"][0]

        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "3",
             "--widths", "2,1", "--slot-count", "12", "--out-dir", out_dir,
             "--break", str(broken), "--kind", "first"]
        ) == 0
        inst_path = os.path.join(out_dir, f"grid12-qpsk-s3-b{broken}-first.json")
        sol_path = str(tmp_path / "sol.json")
        code = main(
            ["solve", inst_path, "--solver", "builtin", "--time-limit", "120",
             "-o", sol_path]
        )
        assert code == 0  # first-kind scenarios are always restorable

        assert main(["validate", inst_path, sol_path]) == 0

    def test_second_kind_and_maxsubset(self, tmp_path):
        out_dir = str(tmp_path / "corpus")
        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "3",
             "--widths", "2,1", "--slot-count", "12", "--out-dir", out_dir]
        ) == 0
        manifest = read_json(
            os.path.join(out_dir, "grid12-qpsk-s3-loaded.manifest.json")
        )
        eligible = manifest["eligible_links"]
        if len(eligible) < 2:
            pytest.skip("need two eligible links")
        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "3",
             "--widths", "2,1", "--slot-count", "12", "--out-dir", out_dir,
             "--break", str(eligible[1]), "--kind", "second",
             "--first-break", str(eligible[0])]
        ) == 0
        inst = os.path.join(out_dir, f"grid12-qpsk-s3-b{eligible[1]}-second.json")
        manifest2 = read_json(inst.replace(".json", ".manifest.json"))
        assert manifest2["kind"] == "second"
        assert manifest2["first_break"] == eligible[0]

        sol = str(tmp_path / "maxsub.json")
        code = main(
            ["solve", inst, "--mode", "maxsubset", "--solver", "builtin",
             "--time-limit", "120", "-o", sol]
        )
        assert code == 0
        doc = read_json(sol)
        assert doc["status"] == "optimal"
        assert len(doc["restored"]) <= len(manifest2["broken_demands"])
        assert doc["meta"]["verified"] is True

    def test_gen_deterministic(self, tmp_path):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            assert main(
                ["gen", "grid12", "--modulation", "8qam", "--seed", "9",
                 "--widths", "2,1", "--slot-count", "8", "--out-dir", d]
            ) == 0
        name = "grid12-8qam-s9-loaded"
        for suffix in (".json", ".manifest.json"):
            a = open(os.path.join(dirs[0], name + suffix), "rb").read()
            b = open(os.path.join(dirs[1], name + suffix), "rb").read()
            assert a == b

    def test_validate_rejects_bad_solution(self, t1_file, tmp_path):
        sol = tmp_path / "bad.json"
        sol.write_text(
            json.dumps(
                {"paths": [{"demand": 1, "links": [3], "first_color": 1, "width": 1}]}
            )
        )
        assert main(["validate", t1_file, str(sol)]) == 1

    @pytest.mark.parametrize(
        "mode, keep",
        [("feasibility", 13), ("feasibility", 0), ("maxsubset", 13)],
        ids=["one-path-dropped", "no-paths", "restored-path-dropped"],
    )
    def test_validate_refuses_an_incomplete_solution(self, grid12_answers, tmp_path, mode, keep):
        # every demand an optimal answer routes, or its "restored" lists,
        # needs a path; without "restored", the objective is the paths' slots
        inst, docs = grid12_answers
        doc = dict(docs[mode])
        assert validate(inst, doc, tmp_path) == (0, [])
        dropped = [p["demand"] for p in doc["paths"][keep:]]
        doc["paths"] = doc["paths"][:keep]
        want = [
            {"kind": "unrouted", "demands": [d], "detail": "claimed as routed but has no path"}
            for d in dropped
        ]
        if mode == "feasibility":
            slots = sum(p["width"] * len(p["links"]) for p in doc["paths"])
            want.append({"kind": "objective", "demands": [],
                         "detail": f"objective 62, but {slots} slots on its paths"})
        assert validate(inst, doc, tmp_path) == (1, want)

    @pytest.mark.parametrize(
        "mode, change, kind, detail",
        [
            ("feasibility", {"objective": 1}, "objective", "objective 1, but 62 slots on its paths"),
            ("feasibility", {"status": "infeasible"}, "status",
             "infeasible, yet the document lists paths"),
            ("maxsubset", {"objective": 13}, "objective", "objective 13, but 14 restored demands"),
            ("maxsubset", {"objective": 62}, "objective", "objective 62, but 14 restored demands"),
        ],
        ids=["wrong-objective", "infeasible-with-paths", "maxsubset-one-short",
             "maxsubset-slot-count"],
    )
    def test_validate_refuses_a_status_or_objective_the_paths_contradict(
        self, grid12_answers, tmp_path, mode, change, kind, detail
    ):
        inst, docs = grid12_answers
        doc = dict(docs[mode], **change)
        demands = sorted(p["demand"] for p in doc["paths"]) if kind == "status" else []
        assert validate(inst, doc, tmp_path) == (
            1, [{"kind": kind, "demands": demands, "detail": detail}]
        )

    def test_validate_checks_paths_alone_without_status_and_objective(
        self, grid12_answers, tmp_path
    ):
        inst, docs = grid12_answers
        doc = {"paths": docs["feasibility"]["paths"][:13]}
        assert validate(inst, doc, tmp_path) == (0, [])

    @pytest.mark.parametrize("content", [
        b"{",
        b"\xff\xfe",
        b"[]",
        b'{"paths": 3}',
        b'{"paths": [7]}',
        *[json.dumps({"paths": [{k: v for k, v in GOOD_PATH.items() if k != key}]}).encode()
          for key in GOOD_PATH],
        *[json.dumps({"paths": [dict(GOOD_PATH, **{key: bad})]}).encode()
          for key, bad in (("demand", None), ("links", 1), ("links", ["1"]), ("links", [9]),
                           ("first_color", "1"), ("width", 1.5))],
        json.dumps({"paths": [GOOD_PATH, GOOD_PATH]}).encode(),
        b'{"paths": [], "restored": 1}',
        b'{"paths": [], "restored": ["1"]}',
    ])
    def test_validate_refuses_malformed_solution(self, t1_file, tmp_path, capsys, content):
        sol = tmp_path / "bad.json"
        sol.write_bytes(content)
        assert main(["validate", t1_file, str(sol)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("option, value", [
        ("--widths", ""), ("--widths", "1,x"), ("--widths", "-1"), ("--widths", "0"),
        ("--widths", "99"), ("--slot-count", "0"),
    ])
    def test_gen_refuses_bad_numbers(self, tmp_path, capsys, option, value):
        out_dir = tmp_path / "out"
        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--out-dir", str(out_dir), option, value]
        ) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra", [
        ["--break", "1", "--kind", "first"],
        [],
    ], ids=["first-kind", "no-break"])
    def test_gen_refuses_first_break_without_second_kind(self, tmp_path, capsys, extra):
        out_dir = tmp_path / "out"
        assert main(
            ["gen", "ring14", "--modulation", "qpsk", "--seed", "7",
             "--out-dir", str(out_dir), "--first-break", "3", *extra]
        ) == 1
        assert capsys.readouterr().err == (
            "error: --first-break needs --break and --kind second\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_gen_refuses_kind_without_break(self, tmp_path, capsys, kind):
        out_dir = tmp_path / "out"
        assert main(
            ["gen", "grid12", "--modulation", "qpsk", "--seed", "7",
             "--out-dir", str(out_dir), "--kind", kind]
        ) == 1
        assert capsys.readouterr().err == "error: --kind needs --break\n"
        assert not out_dir.exists()

    def test_gen_break_without_kind_is_first_kind(self, tmp_path):
        dirs = [tmp_path / "default", tmp_path / "first"]
        for d, extra in zip(dirs, ([], ["--kind", "first"])):
            assert main(
                ["gen", "ring14", "--modulation", "qpsk", "--seed", "7",
                 "--break", "1", "--out-dir", str(d), *extra]
            ) == 0
        for suffix in (".json", ".manifest.json"):
            a, b = ((d / f"ring14-qpsk-s7-b1-first{suffix}").read_bytes() for d in dirs)
            assert a == b

    def test_unknown_topology(self, tmp_path):
        assert main(
            ["gen", "usnet", "--modulation", "bpsk", "--out-dir", str(tmp_path)]
        ) == 1


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


class TestBench:
    def test_tiny_corpus(self, tmp_path, t1, t3):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(t1, str(corpus / "t1.json"))
        save_instance(t3, str(corpus / "t3.json"))
        csv_path = tmp_path / "bench.csv"
        md_path = tmp_path / "bench.md"
        code = main(
            ["bench", str(corpus), "--solvers", "builtin", "--time-limit", "60",
             "--jobs", "2", "--csv", str(csv_path), "--md", str(md_path),
             "--exclude-over", "100"]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (
            "case,kind,modulation,broken_link,variant,solver,variables,"
            "constraints,load_seconds,trim_seconds,bound_seconds,build_seconds,"
            "solve_seconds,highs_seconds,extract_seconds,verify_seconds,status,"
            "proven_by,objective"
        )
        assert len(lines) == 1 + 2 * 3  # two cases x three variants
        rows = read_csv_rows(csv_path)
        t1_rows = [r for r in rows if r["case"] == "t1"]
        assert {r["status"] for r in t1_rows} == {"optimal"}
        assert {r["objective"] for r in t1_rows} == {"2"}
        (load,) = {r["load_seconds"] for r in t1_rows}  # one load per case
        assert float(load) > 0
        assert {r["proven_by"] for r in t1_rows} == {"hop_bound"}
        t3_rows = [r for r in rows if r["case"] == "t3"]
        assert {r["status"] for r in t3_rows} == {"infeasible"}
        assert {r["proven_by"] for r in t3_rows} == {"milp"}
        md = md_path.read_text()
        assert "Vars trimmed" in md and "Excluding cells over 100" in md

    def test_means_leave_out_cells_with_no_model(
        self, tmp_path, contested_link, t1_low_reach
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(contested_link, str(corpus / "solved.json"))
        save_instance(t1_low_reach, str(corpus / "trimmed_away.json"))
        csv_path = tmp_path / "b.csv"
        md_path = tmp_path / "b.md"
        assert main(
            ["bench", str(corpus), "--variants", "trimmed", "--solvers", "builtin",
             "--time-limit", "60", "--csv", str(csv_path), "--md", str(md_path),
             "--exclude-over", "100"]
        ) == 0
        rows = {r["case"]: r for r in read_csv_rows(csv_path)}
        assert rows["trimmed_away"]["status"] == "infeasible"
        assert rows["trimmed_away"]["variables"] == rows["trimmed_away"]["solve_seconds"] == ""
        assert float(rows["trimmed_away"]["load_seconds"]) > 0  # loaded all the same
        for column in ("bound_seconds", "highs_seconds", "extract_seconds", "verify_seconds"):
            assert rows["trimmed_away"][column] == ""  # nothing ran past trimming
            assert float(rows["solved"][column]) >= 0
        assert 0 < float(rows["solved"]["highs_seconds"]) <= float(rows["solved"]["solve_seconds"])
        table = [l for l in md_path.read_text().splitlines() if l.startswith("| ")]
        assert len(table) == 4  # two tables, each a header and one group
        for header, group in (table[:2], table[2:]):
            cells = dict(zip(header.split(" | "), group.split(" | ")))
            assert cells["#Tests"] == "2"
            assert cells["Vars trimmed"] == rows["solved"]["variables"] == "10"

    def test_skips_non_instance_json(self, tmp_path, t1, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(t1, str(corpus / "t1.json"))
        (corpus / "sol.json").write_text('{"status": "optimal", "paths": []}')
        code = main(
            ["bench", str(corpus), "--solvers", "builtin", "--time-limit", "60",
             "--variants", "trimmed", "--csv", str(tmp_path / "b.csv"),
             "--md", str(tmp_path / "b.md")]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().err
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the one real instance

    @pytest.mark.parametrize(
        "manifest, reason",
        [("{not json", "invalid JSON"), ('[{"kind": "first"}]', "must be a JSON object")],
        ids=["invalid-json", "array"],
    )
    def test_skips_a_case_with_a_malformed_manifest(
        self, tmp_path, t1, capsys, manifest, reason
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("bad", "good"):
            save_instance(t1, str(corpus / f"{name}.json"))
        (corpus / "bad.manifest.json").write_text(manifest)
        (corpus / "good.manifest.json").write_text('{"kind": "first", "broken_link": 1}')
        csv_path = tmp_path / "b.csv"
        assert main(
            ["bench", str(corpus), "--solvers", "builtin", "--time-limit", "60",
             "--variants", "trimmed", "--csv", str(csv_path), "--md", str(tmp_path / "b.md")]
        ) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"bench: skipping {corpus / 'bad.json'}: {corpus / 'bad.manifest.json'}: ")
        assert reason in line
        (row,) = read_csv_rows(csv_path)
        assert (row["case"], row["kind"], row["broken_link"], row["status"]) == (
            "good", "first", "1", "optimal"
        )

    def test_instance_named_like_a_solution_gets_rows(self, tmp_path, t1):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(t1, str(corpus / "resolution.json"))
        csv_path = tmp_path / "b.csv"
        assert main(
            ["bench", str(corpus), "--solvers", "builtin", "--time-limit", "60",
             "--variants", "trimmed", "--csv", str(csv_path), "--md", str(tmp_path / "b.md")]
        ) == 0
        (row,) = read_csv_rows(csv_path)
        assert (row["case"], row["status"], row["objective"]) == ("resolution", "optimal", "2")

    def test_maxsubset_excludes_non_reroutable_as_solve_does(self, t1, tmp_path):
        # demand 2 (1 -> 3) cannot reach its target within 0.5 km
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        instance = RestorationInstance(
            t1.network, t1.demands + (Demand(2, 1, 3, 1, 0.5),)
        )
        save_instance(instance, str(corpus / "tri.json"))
        sol = tmp_path / "sol.json"
        assert main(
            ["solve", str(corpus / "tri.json"), "--mode", "maxsubset",
             "--solver", "builtin", "--time-limit", "60", "-o", str(sol)]
        ) == 0
        solved = read_json(sol)
        assert solved["meta"]["excluded_non_reroutable"] == [2]

        csv_path = tmp_path / "b.csv"
        assert main(
            ["bench", str(corpus), "--mode", "maxsubset", "--variants", "trimmed",
             "--solvers", "builtin", "--time-limit", "60", "--csv", str(csv_path),
             "--md", str(tmp_path / "b.md")]
        ) == 0
        (row,) = read_csv_rows(csv_path)
        assert row["status"] == solved["status"] == "optimal"
        assert float(row["objective"]) == solved["objective"]

    def test_uncertified_feasible_answer_is_error(self, contested_link, tmp_path):
        # demand 1 leaves the source on two links: no path can be extracted
        solver = canned_solver(
            tmp_path,
            "Feasible - objective value 4\n"
            "0 x_d1_l1_f_c1 1 0\n"
            "8 x_d1_l3_f_c1 1 0\n"
            "11 x_d2_l1_f_c2 1 0\n"
            "15 x_d2_l2_f_c2 1 0\n",
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(contested_link, str(corpus / "contested.json"))
        csv_path = tmp_path / "b.csv"
        assert main(
            ["bench", str(corpus), "--variants", "notrim", "--solvers", solver,
             "--time-limit", "60", "--csv", str(csv_path),
             "--md", str(tmp_path / "b.md")]
        ) == 0
        (row,) = read_csv_rows(csv_path)
        assert row["status"] == "error"
        assert row["objective"] == "4"


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_threads_share_it(self):
        # four threads parse different command lines through the one parser,
        # switching as often as the interpreter allows
        def variant(k):
            return ("notrim", "trimmed")[k % 3 - 1]

        def argv(k):
            if k % 3 == 0:
                return ["trim", f"i{k}.json", "-o", f"o{k}.json"]
            return ["solve", f"i{k}.json", "--variant", variant(k), "--time-limit", str(k)]

        def parse(k):
            args = cli.build_parser().parse_args(argv(k))
            return (args.func, args.instance, args.output, vars(args).get("variant"),
                    vars(args).get("time_limit"))

        def expected(k):
            if k % 3 == 0:
                return (cli.cmd_trim, f"i{k}.json", f"o{k}.json", None, None)
            return (cli.cmd_solve, f"i{k}.json", None, variant(k), float(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(parse, range(1200)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected(k) for k in range(1200)]


class TestVersionAndErrors:
    def test_missing_file(self):
        assert main(["trim", "/nonexistent/instance.json"]) == 1

    def test_directory_as_instance(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("limit", ["-5", "0", "nan"])
    def test_time_limit_must_be_positive(self, t1_file, capsys, limit):
        assert main(["solve", t1_file, "--time-limit", limit]) == 1
        assert capsys.readouterr().err.startswith("error: time limit must be positive")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"links": 5}, "/links: must be a list"),
            ({"demands": 7}, "/demands: must be a list"),
            ({"demands": None}, "/demands: must be a list"),
            ({"slot_count": True}, "/slot_count: must be an integer"),
        ],
    )
    def test_loader_refuses_malformed_document(
        self, t1, tmp_path, capsys, change, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(instance_to_dict(t1), **change)))
        assert main(["solve", str(path), "--solver", "builtin"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -1.0])
    def test_loader_refuses_length_not_finite_and_non_negative(
        self, t1, tmp_path, capsys, length
    ):
        doc = instance_to_dict(t1)
        doc["links"][2]["length_km"] = length
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--solver", "builtin"]) == 1
        assert capsys.readouterr().err == (
            f"error: link 3 has length {length}; it must be finite and non-negative\n"
        )

    @pytest.mark.parametrize("reach", ["1e400", "-1e400", "NaN", "0"])
    def test_loader_refuses_reach_not_finite_and_positive(
        self, t1, tmp_path, capsys, reach
    ):
        # "1e400" loads as inf; the LP file cannot write it
        text = json.dumps(instance_to_dict(t1)).replace('"reach_km": 2.0', f'"reach_km": {reach}')
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = ["solve", str(path), "--solver", "builtin", "--keep-files",
                "--workdir", str(tmp_path / "files")]
        assert main(argv) == 1
        value = float(reach)
        assert capsys.readouterr().err == (
            f"error: demand #0 (id=1): reach {value} must be finite and positive\n"
        )

    def test_loader_checks_a_color_range_before_expanding_it(self, t1, tmp_path, capsys):
        # refused on its ends, before a million colors are expanded
        doc = instance_to_dict(t1)
        doc["links"][1]["colors"] = [1, [1, 10**6]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--solver", "builtin"]) == 1
        assert capsys.readouterr().err == (
            "error: /links/1/colors/1: color range [1, 1000000] outside 1..2\n"
        )

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "flexrsa" in capsys.readouterr().out
