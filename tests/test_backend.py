import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import OptimizeWarning

import flexrsa
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
from flexrsa.io import load_instance, save_instance
from flexrsa.lp_driver import (
    SETTINGS,
    HighsVarType,
    MatrixFormat,
    ObjSense,
    _Highs,
    columnwise,
    solve_highs,
    solve_lp_file,
)
from flexrsa.lpformat import emit_lp_text
from flexrsa.milp import Csr, WindowVar, build_model
from flexrsa.model import RestorationInstance
from flexrsa.testgen import (
    MODULATION_REACH_KM,
    builtin_topology_path,
    generate_loaded_network,
    make_scenario,
)
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
        assert len(out.chosen) == 2

    def test_t3_infeasible(self, t3):
        out = solve(trimmed(t3), BUILTIN)
        assert out.status == INFEASIBLE
        assert out.chosen is None

    def test_t3_maxsubset_restores_one(self, t3):
        from flexrsa.milp import SelectVar

        model = trimmed(t3, "maxsubset")
        out = solve(model, BUILTIN)
        assert out.status == OPTIMAL
        restored = [j for j in out.chosen if isinstance(model.variables[j], SelectVar)]
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

    def test_starts_no_process(self, t1, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("the builtin solver started a process")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        out = solve(trimmed(t1), BUILTIN)
        assert out.status == OPTIMAL
        assert out.objective == 2

    def test_solver_exception_is_error_outcome(self, t1, monkeypatch):
        class Broken(_Highs):
            def passModel(self, *args):
                raise ValueError("bad matrix")

        monkeypatch.setattr("flexrsa.lp_driver._Highs", Broken)
        out = solve(trimmed(t1), BUILTIN)
        assert out.status == ERROR
        assert out.message == "ValueError: bad matrix"

    def test_time_limit_without_incumbent(self, t1):
        # HiGHS stops before it has any solution; notrim's 12 columns, as
        # presolve alone solves t1's 4-column trimmed model before the check
        out = solve(build_model(t1, None, "notrim"), SolverConfig(solver="builtin", time_limit=1e-9))
        assert out.status == TIMELIMIT
        assert out.chosen is None

    def test_driver_directly(self, t1, small_corpus, tmp_path):
        lp = tmp_path / "m.lp"
        sol = tmp_path / "m.sol"
        lp.write_text(emit_lp_text(trimmed(t1)))
        solve_lp_file(str(lp), str(sol), 30.0)
        status, objective, values = parse_cbc_solution(sol.read_text())
        assert status == OPTIMAL
        assert objective == 2
        assert sum(values.values()) == 2
        # the LP file path gives the status and objective of the in-process solve
        for seed, inst in small_corpus:
            triples = compute_useful_triples(inst)
            for mode in ("feasibility", "maxsubset"):
                kept = inst
                if mode == "maxsubset":
                    kept = RestorationInstance(
                        inst.network,
                        tuple(d for d in inst.demands if d.id not in triples.non_reroutable),
                    )
                for variant in ("base", "notrim", "trimmed"):
                    model = build_model(kept, triples, variant, mode)
                    if not model.variables:
                        continue
                    lp.write_text(emit_lp_text(model))
                    solve_lp_file(str(lp), str(sol), 30.0)
                    status, objective, values = parse_cbc_solution(sol.read_text())
                    out = solve(model, BUILTIN)
                    assert status == out.status, (seed, mode, variant)
                    if status == OPTIMAL:
                        assert round(objective) == out.objective
                        assert len(values) == len(model.variables)


def scipy_tocsc(a):
    """scipy's own column-wise copy of the `Csr` matrix a, the reference."""
    return sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape).tocsc()


def highs_input(model, monkeypatch):
    """The arrays and settings that the builtin solve hands to HiGHS for the
    model. HiGHS takes the rows column-wise; the matrix is checked to be the
    model's rows and returned as the model's CSR arrays, whose order within
    a row the digests lock too."""
    seen = {"options": {}}

    class Capture(_Highs):
        def setOptionValue(self, name, value):
            seen["options"][name] = value
            return super().setOptionValue(name, value)

        def passModel(self, *args):
            seen["args"] = args
            raise RuntimeError("captured")

    monkeypatch.setattr("flexrsa.lp_driver._Highs", Capture)
    solve(model, BUILTIN)
    monkeypatch.undo()
    (n, m, nnz, form, sense, offset, c, lower_x, ub, lower, upper,
     start, index, value, integrality) = seen.pop("args")
    assert (n, m, nnz) == (len(model.c), *model.a.shape[:1], model.a.nnz)
    assert (form, sense, offset) == (int(MatrixFormat.kColwise), int(ObjSense.kMinimize), 0.0)
    assert lower_x.tolist() == [0.0] * n
    assert integrality.tolist() == [int(HighsVarType.kInteger)] * n
    want = scipy_tocsc(model.a)
    assert want.has_canonical_format
    for got, ref in ((start, want.indptr), (index, want.indices), (value, want.data)):
        assert got.tolist() == ref.tolist()
    seen.update(
        c=c, indptr=model.a.indptr, indices=model.a.indices, data=model.a.data,
        lower=lower, upper=upper, ub=ub,
    )
    return seen


def highs_input_digest(arrays) -> str:
    """sha256 over the arrays in a fixed order; values and order count, the
    integer and float widths scipy happened to pick do not."""
    h = hashlib.sha256()
    for name in ("c", "indptr", "indices", "data", "lower", "upper", "ub"):
        dtype = np.int64 if name in ("indptr", "indices") else np.float64
        h.update(np.ascontiguousarray(arrays[name], dtype=dtype).tobytes())
    return h.hexdigest()


@st.composite
def csr_matrices(draw):
    """A `Csr` matrix of up to 6 x 6, zero rows or columns included: each
    row holds distinct columns in any order, with nonzero values."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = st.sampled_from([1.0, -1.0, 2.5, -0.5, 3.0])
    rows = [
        draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), values), unique_by=lambda t: t[0],
                      max_size=n))
        for _ in range(m)
    ]
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    terms = [t for r in rows for t in r]
    indices = np.array([j for j, _ in terms], dtype=np.int64)
    data = np.array([v for _, v in terms], dtype=np.float64)
    return Csr(indptr, indices, data, (m, n))


class TestColumnwise:
    @settings(max_examples=200, deadline=None)
    @given(csr_matrices())
    def test_equals_scipy_tocsc(self, a):
        # the copy HiGHS takes is scipy's own column-wise copy, array for
        # array: rows ascending within each column
        start, index, value = columnwise(a)
        want = scipy_tocsc(a)
        assert start.tolist() == want.indptr.tolist()
        assert index.tolist() == want.indices.tolist()
        assert value.tolist() == want.data.tolist()


class TestHighsInputGolden:
    """HiGHS input of the two benchmark-corpus scenarios of test_testgen's
    TestGolden. Reordering rows or columns moves HiGHS time on the same
    instance (by -25% to +10% on ring14), so it must fail here. The trimmed
    cases lock the window model; the notrim and base cases lock the
    free-color and full-spectrum flow models."""

    @pytest.mark.parametrize(
        "topology, modulation, broken, kind, first_break, variant, mode, highs, lp",
        [
            ("ring14", "qpsk", 1, "first", None, "trimmed", "feasibility",
             "e1addfc983eb858706b7aa0b6b03934b1cda829303f31d6a8f189ed9e9910e1d",
             "6cb98d84530863a3573f49d4190618f80cc80ceeadd49271f9040dc869208401"),
            ("grid12", "8qam", 12, "second", 7, "trimmed", "feasibility",
             "0efc9af49f386ccff8d2c8174f26466b269ee938292315047f3915d31e8c480f",
             "3777075065be73e9a0b8ef1173b141552c46f44d5b0f2542f4d2c5e993288035"),
            ("grid12", "8qam", 12, "second", 7, "trimmed", "maxsubset",
             "c0d29fc9d11de906c3bbd78c82cf9488aea2354d3b63e819ad2b6125cd5e898f",
             "6da525e3f637a83114c4bdf00a8f04de664bea38be7ac7d0c8a4a21f6f5f4cee"),
            ("grid12", "8qam", 12, "second", 7, "notrim", "feasibility",
             "5ce3e2daea40ac1180741c49f83ad39c09d34c6d6f67e75fe8d5b53e48be1a87",
             "8a00cb0809a180b6283cfa9e930e9ba3d6a1c8c2839743a28e97d2a79a694140"),
            ("grid12", "8qam", 12, "second", 7, "base", "feasibility",
             "17ab4c5a8fb88cab65b2b7e46ed2f4add1c9016fa7380adf9b6dabcb7a32f09c",
             "bc155d9a04abb2894e80ba14fd046a9ba6990dbb1d9b475b695ea4ab9edf319a"),
        ],
        ids=[
            "ring14-first", "grid12-feasibility", "grid12-maxsubset",
            "grid12-notrim", "grid12-base",
        ],
    )
    def test_digests(
        self, topology, modulation, broken, kind, first_break, variant, mode, highs, lp,
        monkeypatch,
    ):
        loaded = generate_loaded_network(
            load_instance(builtin_topology_path(topology)).network,
            MODULATION_REACH_KM[modulation],
            seed=7,
            modulation=modulation,
        )
        inst = make_scenario(loaded, broken, kind, first_break=first_break).instance
        triples = compute_useful_triples(inst)
        if mode == "maxsubset":  # as the solve command does
            inst = RestorationInstance(
                inst.network,
                tuple(d for d in inst.demands if d.id not in triples.non_reroutable),
            )
        model = build_model(inst, triples, variant, mode)
        assert highs_input_digest(highs_input(model, monkeypatch)) == highs
        assert hashlib.sha256(emit_lp_text(model).encode("utf-8")).hexdigest() == lp

    def test_small_corpus_digest(self, small_corpus):
        # every variant and mode of the tiny corpus, in one digest of the
        # arrays that the builtin solve hands to HiGHS
        h = hashlib.sha256()
        for _, inst in small_corpus:
            triples = compute_useful_triples(inst)
            for variant in ("base", "notrim", "trimmed"):
                for mode in ("feasibility", "maxsubset"):
                    kept = inst
                    if mode == "maxsubset":  # as the solve command does
                        kept = RestorationInstance(inst.network, tuple(
                            d for d in inst.demands if d.id not in triples.non_reroutable
                        ))
                    model = build_model(kept, triples, variant, mode)
                    arrays = dict(
                        c=model.c, indptr=model.a.indptr, indices=model.a.indices,
                        data=model.a.data, lower=model.lower, upper=model.upper,
                        ub=model.ub,
                    )
                    h.update(highs_input_digest(arrays).encode("ascii"))
        assert h.hexdigest() == (
            "b759790f5e9a49683320f446f644d1e906124b40e88be0af2c462e1bb917593d"
        )


class TestHighsSettings:
    def test_exact_settings(self, t1, monkeypatch):
        # one fixed set for every solve, by HiGHS's option names; only the
        # time limit comes from the config
        assert highs_input(trimmed(t1), monkeypatch)["options"] == {
            "output_flag": False,
            "mip_rel_gap": 0.0,
            "mip_heuristic_run_feasibility_jump": False,
            "time_limit": 60.0,
        }

    @pytest.mark.parametrize(
        "name, value", [("bogus_setting", 1), ("mip_rel_gap", "none")],
        ids=["unknown", "wrong-type"],
    )
    def test_refused_setting_is_error_outcome(self, t1, monkeypatch, name, value):
        monkeypatch.setattr("flexrsa.lp_driver.SETTINGS", {**SETTINGS, name: value})
        out = solve(trimmed(t1), BUILTIN)
        assert out.status == ERROR
        assert out.message == f"HiGHS refused the setting {name}={value!r}"

    def test_highs_knows_every_setting(self, t4):
        # HiGHS refuses a setting it does not know (an error outcome), and
        # scipy warns nothing (OptimizeWarning would fail here)
        model = build_model(t4, None, "notrim")
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizeWarning)
            outcome = solve_highs(model.c, model.a, model.lower, model.upper, model.ub, 60.0)
        assert (outcome.status, outcome.message) == (OPTIMAL, "")

    def test_scipy_note_stays_silent_after_a_filter_reset(self, t4):
        # the solve warns nothing, also once a test runner's reset has
        # dropped every warning filter
        model = build_model(t4, None, "notrim")
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            solve_highs(model.c, model.a, model.lower, model.upper, model.ub, 60.0)
        assert [str(w.message) for w in caught] == []

    def test_cli_solve_writes_nothing_to_stderr(self, t1, tmp_path):
        # a fresh interpreter, so no test runner's warning filters apply
        save_instance(t1, str(tmp_path / "t1.json"))
        src = os.path.dirname(os.path.dirname(flexrsa.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "flexrsa.cli", "solve", "t1.json", "--solver", "builtin",
             "-o", "sol.json"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads((tmp_path / "sol.json").read_text())["objective"] == 2


class TestSolverResolution:
    def test_builtin_always_available(self):
        # in process: no command to run
        assert resolve_solver("builtin") == ("builtin-highs", None)

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
            "0 z_d1_l1_f_w1 1 0\n"
            "1 z_d1_l2_f_w1 1 0\n"
        )
        out = solve(model, SolverConfig(solver=canned_solver(tmp_path, body), time_limit=5))
        assert out.status == TIMELIMIT
        assert [model.variables[j] for j in out.chosen] == [
            WindowVar(1, 1, True, 1), WindowVar(1, 2, True, 1),
        ]
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
        assert out.chosen is None

    def test_fractional_binary_is_hard_error(self, t1, tmp_path):
        model = trimmed(t1)
        body = "Optimal - objective value 2\n0 z_d1_l1_f_w1 0.5 0\n"
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
        assert sorted(os.listdir(tmp_path / "w")) == ["model.lp", "solver.log"]
        # a subprocess solver also leaves its solution file
        body = "Optimal - objective value 2\n0 z_d1_l1_f_w1 1 0\n1 z_d1_l2_f_w1 1 0\n"
        cfg = SolverConfig(
            solver=canned_solver(tmp_path, body), time_limit=30,
            workdir=str(tmp_path / "c"), keep_files=True,
        )
        assert solve(trimmed(t1), cfg).status == OPTIMAL
        assert (tmp_path / "c" / "model.lp").exists()
        assert (tmp_path / "c" / "model.sol").exists()

    def test_keep_files_keeps_a_nonempty_solver_log(self, t1, tmp_path):
        cfg = SolverConfig(solver="builtin", time_limit=30, workdir=str(tmp_path / "w"), keep_files=True)
        assert solve(trimmed(t1), cfg).status == OPTIMAL
        log = (tmp_path / "w" / "solver.log").read_text()
        assert log.startswith("status: optimal")
        assert "mip_node_count" in log

    def test_temp_dir_cleaned_on_success(self, t1, tmp_path, monkeypatch):
        cfg = SolverConfig(solver="builtin", time_limit=30, workdir=str(tmp_path / "w"))
        out = solve(trimmed(t1), cfg)
        assert out.log_path is None
        assert not (tmp_path / "w").exists()  # the builtin solver wrote nothing
        # a subprocess solver removes the temp directory it made
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        body = "Optimal - objective value 2\n0 z_d1_l1_f_w1 1 0\n1 z_d1_l2_f_w1 1 0\n"
        cfg = SolverConfig(solver=canned_solver(tmp_path, body), time_limit=30)
        out = solve(trimmed(t1), cfg)
        assert out.status == OPTIMAL
        assert out.log_path is None
        assert not list(tmp_path.glob("flexrsa-*"))


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
