import os
import subprocess
import sys
import textwrap
import time

import pytest

from flexrsa.backend import (
    ERROR,
    INFEASIBLE,
    OPTIMAL,
    TIMELIMIT,
    SolverConfig,
    SolverNotFound,
    parse_cbc_solution,
    resolve_solver,
    solve,
)
from flexrsa.io import save_instance
from flexrsa.lp_driver import solve_lp_file
from flexrsa.lpformat import emit_lp_text
from flexrsa.milp import build_model
from flexrsa.model import RestorationInstance
from flexrsa.trimming import compute_useful_triples
from tests_support import canned_solver

BUILTIN = SolverConfig(solver="builtin", time_limit=60)


def trimmed(inst, mode="feasibility"):
    return build_model(inst, compute_useful_triples(inst), "trimmed", mode)


class TestBuiltinSolver:
    def test_t1_optimal_objective_two(self, t1):
        out = solve(trimmed(t1), BUILTIN)
        assert out.status == OPTIMAL
        assert out.objective == 2
        assert sum(out.assignment.values()) == 2

    def test_t3_infeasible(self, t3):
        out = solve(trimmed(t3), BUILTIN)
        assert out.status == INFEASIBLE
        assert out.assignment is None

    def test_t3_maxsubset_restores_one(self, t3):
        from flexrsa.milp import SelectVar

        out = solve(trimmed(t3, "maxsubset"), BUILTIN)
        assert out.status == OPTIMAL
        restored = [k for k in out.assignment if isinstance(k, SelectVar) and out.assignment[k]]
        assert len(restored) == 1

    def test_empty_model_short_circuits(self, t1):
        model = trimmed(RestorationInstance(t1.network, ()))
        out = solve(model, BUILTIN)
        assert out.status == OPTIMAL
        assert out.objective == 0
        assert out.solver_name == "trivial"

    def test_unroutable_demand_short_circuits(self, t1_low_reach):
        # the model has zero variables but an unsatisfiable source row
        out = solve(trimmed(t1_low_reach), BUILTIN)
        assert out.status == INFEASIBLE
        assert "srcout_d1" in out.message

    def test_driver_directly(self, t1, tmp_path):
        lp = tmp_path / "m.lp"
        sol = tmp_path / "m.sol"
        lp.write_text(emit_lp_text(trimmed(t1)))
        solve_lp_file(str(lp), str(sol), 30.0)
        status, objective, values = parse_cbc_solution(sol.read_text())
        assert status == OPTIMAL
        assert objective == 2
        assert sum(values.values()) == 2


class TestSolverResolution:
    def test_builtin_always_available(self):
        name, template = resolve_solver("builtin")
        assert name == "builtin-highs"
        assert "{lp_file}" in " ".join(template)

    def test_missing_cbc_actionable(self, monkeypatch):
        monkeypatch.setenv("PATH", "/nonexistent")
        monkeypatch.delenv("FLEXRSA_CBC", raising=False)
        with pytest.raises(SolverNotFound, match="FLEXRSA_CBC"):
            resolve_solver("cbc")

    def test_auto_falls_back_to_builtin(self, monkeypatch):
        monkeypatch.setenv("PATH", "/nonexistent")
        name, _ = resolve_solver("auto")
        assert name == "builtin-highs"

    def test_custom_template_requires_placeholders(self):
        with pytest.raises(SolverNotFound):
            resolve_solver("cmd:mysolver")

    def test_unknown_name(self):
        with pytest.raises(SolverNotFound):
            resolve_solver("gurobi")


class TestCannedOutcomes:
    def test_timelimit_with_incumbent(self, t1, tmp_path):
        model = trimmed(t1)
        body = (
            "Stopped on time limit - objective value 2\n"
            "0 x_d1_l1_f_c1 1 0\n"
            "1 x_d1_l2_f_c1 1 0\n"
        )
        out = solve(model, SolverConfig(solver=canned_solver(tmp_path, body), time_limit=5))
        assert out.status == TIMELIMIT
        assert out.assignment is not None
        assert out.objective == 2

    def test_timelimit_without_incumbent(self, t1, tmp_path):
        model = trimmed(t1)
        out = solve(
            model,
            SolverConfig(
                solver=canned_solver(tmp_path, "Stopped on time limit (no solution)\n"),
                time_limit=5,
            ),
        )
        assert out.status == TIMELIMIT
        assert out.assignment is None

    def test_fractional_binary_is_hard_error(self, t1, tmp_path):
        model = trimmed(t1)
        body = "Optimal - objective value 2\n0 x_d1_l1_f_c1 0.5 0\n"
        out = solve(model, SolverConfig(solver=canned_solver(tmp_path, body), time_limit=5))
        assert out.status == ERROR
        assert "non-integral" in out.message

    def test_garbage_output_is_error_with_log(self, t1, tmp_path):
        model = trimmed(t1)
        out = solve(
            model,
            SolverConfig(solver=canned_solver(tmp_path, "segfault haiku\n"), time_limit=5),
        )
        assert out.status == ERROR
        assert out.log_path and os.path.exists(out.log_path)

    def test_missing_solution_file_is_error(self, t1, tmp_path):
        out = solve(
            trimmed(t1),
            SolverConfig(solver=f"cmd:{sys.executable} -c pass {{lp_file}} {{sol_file}}", time_limit=5),
        )
        assert out.status == ERROR
        assert "no solution file" in out.message

    def test_hung_solver_is_killed_at_the_hard_limit(self, t1, monkeypatch):
        monkeypatch.setattr("flexrsa.backend.HARD_KILL_GRACE_S", 0.0)
        hung = f'cmd:{sys.executable} -c "import time; time.sleep(30)" {{lp_file}} {{sol_file}}'
        start = time.perf_counter()
        out = solve(trimmed(t1), SolverConfig(solver=hung, time_limit=0.1))
        assert time.perf_counter() - start < 10
        assert out.status == TIMELIMIT
        assert out.message.startswith("solver killed")


class TestScipSolutionParsing:
    def test_optimal(self):
        from flexrsa.backend import parse_scip_solution

        text = (
            "solution status: optimal solution found\n"
            "objective value:                     2\n"
            "x_d1_l1_f_c1                         1 \t(obj:1)\n"
            "x_d1_l2_f_c1                         1 \t(obj:1)\n"
        )
        status, objective, values = parse_scip_solution(text)
        assert status == OPTIMAL
        assert objective == 2
        assert values == {"x_d1_l1_f_c1": 1.0, "x_d1_l2_f_c1": 1.0}

    def test_infeasible(self):
        from flexrsa.backend import parse_scip_solution

        status, objective, values = parse_scip_solution(
            "solution status: infeasible\nno solution available\n"
        )
        assert status == INFEASIBLE
        assert values is None

    def test_time_limit_without_solution(self):
        from flexrsa.backend import parse_scip_solution

        status, _, values = parse_scip_solution(
            "solution status: time limit reached\nno solution available\n"
        )
        assert status == TIMELIMIT
        assert values is None

    def test_time_limit_with_incumbent(self):
        from flexrsa.backend import parse_scip_solution

        status, objective, values = parse_scip_solution(
            "solution status: time limit reached\n"
            "objective value:                     3\n"
            "x_d1_l1_f_c1                         1 \t(obj:1)\n"
        )
        assert status == TIMELIMIT
        assert values == {"x_d1_l1_f_c1": 1.0}

    def test_garbage(self):
        from flexrsa.backend import parse_scip_solution

        assert parse_scip_solution("")[0] == ERROR
        assert parse_scip_solution("random text\n")[0] == ERROR


class TestWorkdirHandling:
    def test_keep_files(self, t1, tmp_path):
        cfg = SolverConfig(solver="builtin", time_limit=30, workdir=str(tmp_path / "w"), keep_files=True)
        out = solve(trimmed(t1), cfg)
        assert out.status == OPTIMAL
        assert (tmp_path / "w" / "model.lp").exists()
        assert (tmp_path / "w" / "model.sol").exists()

    def test_keep_files_keeps_a_nonempty_solver_log(self, t1, tmp_path):
        cfg = SolverConfig(solver="builtin", time_limit=30, workdir=str(tmp_path / "w"), keep_files=True)
        assert solve(trimmed(t1), cfg).status == OPTIMAL
        assert (tmp_path / "w" / "solver.log").read_text().strip()

    def test_temp_dir_cleaned_on_success(self, t1):
        out = solve(trimmed(t1), BUILTIN)
        assert out.log_path is None


class TestRoundTrip:
    def test_wall_seconds_include_lp_emission(self, t1, monkeypatch):
        def slow_emit(model):
            time.sleep(0.3)
            return emit_lp_text(model)

        monkeypatch.setattr("flexrsa.backend.emit_lp_text", slow_emit)
        # an instant "solver" that leaves an empty solution file
        cfg = SolverConfig(solver="cmd:touch {lp_file} {sol_file}", time_limit=60)
        out = solve(trimmed(t1), cfg)
        assert out.status == ERROR
        assert out.wall_seconds >= 0.3

    def test_child_finds_flexrsa_found_through_sys_path(self, t1, tmp_path):
        import flexrsa

        src = os.path.dirname(os.path.dirname(os.path.abspath(flexrsa.__file__)))
        instance = str(tmp_path / "t1.json")
        save_instance(t1, instance)
        code = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {src!r})
            from flexrsa.cli import main
            sys.exit(main(["solve", {instance!r}, "--solver", "builtin",
                           "-o", {str(tmp_path / "sol.json")!r}]))
        """)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestObjectiveRecompute:
    def test_objective_is_exact_integer(self, t4):
        out = solve(trimmed(t4), BUILTIN)
        assert out.status == OPTIMAL
        assert isinstance(out.objective, int)
        assert out.objective == 4  # width 2 x two links
