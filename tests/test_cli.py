import dataclasses
import json
import os

import pytest

from flexrsa.cli import main
from flexrsa.extract import ExtractionError, extract_paths
from flexrsa.io import save_instance
from flexrsa.model import Demand, RestorationInstance
from tests_support import canned_solver


@pytest.fixture
def t1_file(t1, tmp_path):
    path = tmp_path / "t1.json"
    save_instance(t1, str(path))
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


class TestSolve:
    def test_t1_exit_zero(self, t1_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            ["solve", t1_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 0
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == 2
        assert doc["meta"]["verified"] is True
        assert doc["meta"]["solver_invoked"] is True
        assert doc["meta"]["model"]["variables"] == 8

    def test_failed_verification_exits_one(self, t1_file, tmp_path, monkeypatch):
        def shifted(*args, **kwargs):
            # move each slot block one slot out of T1's spectrum {1, 2}
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
            ["solve", t1_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 1
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["meta"]["verified"] is False

    def test_failed_extraction_exits_one(self, t1_file, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ExtractionError(1, "no flow assigned")

        monkeypatch.setattr("flexrsa.cli.extract_paths", broken)
        out = tmp_path / "sol.json"
        code = main(
            ["solve", t1_file, "--solver", "builtin", "--time-limit", "60",
             "-o", str(out)]
        )
        assert code == 1
        doc = read_json(out)
        assert doc["status"] == "optimal"
        assert doc["paths"] == []
        assert doc["meta"]["verified"] is False
        assert doc["meta"]["extraction_error"] == "demand 1: no flow assigned"

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
            "constraints,trim_seconds,build_seconds,solve_seconds,status,objective"
        )
        assert len(lines) == 1 + 2 * 3  # two cases x three variants
        rows = read_csv_rows(csv_path)
        t1_rows = [r for r in rows if r["case"] == "t1"]
        assert {r["status"] for r in t1_rows} == {"optimal"}
        assert {r["objective"] for r in t1_rows} == {"2"}
        t3_rows = [r for r in rows if r["case"] == "t3"]
        assert {r["status"] for r in t3_rows} == {"infeasible"}
        md = md_path.read_text()
        assert "Vars trimmed" in md and "Excluding cells over 100" in md

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

    def test_uncertified_feasible_answer_is_error(self, t1, tmp_path):
        # the incumbent leaves the source on two links: no path can be extracted
        solver = canned_solver(
            tmp_path,
            "Feasible - objective value 2\n"
            "0 x_d1_l1_f_c1 1 0\n"
            "1 x_d1_l3_f_c1 1 0\n",
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        save_instance(t1, str(corpus / "t1.json"))
        csv_path = tmp_path / "b.csv"
        assert main(
            ["bench", str(corpus), "--variants", "notrim", "--solvers", solver,
             "--time-limit", "60", "--csv", str(csv_path),
             "--md", str(tmp_path / "b.md")]
        ) == 0
        (row,) = read_csv_rows(csv_path)
        assert row["status"] == "error"
        assert row["objective"] == "2"


class TestVersionAndErrors:
    def test_missing_file(self):
        assert main(["trim", "/nonexistent/instance.json"]) == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "flexrsa" in capsys.readouterr().out
