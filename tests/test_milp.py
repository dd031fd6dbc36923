import numpy as np
import pytest

from flexrsa.milp import (
    FlowVar,
    Rows,
    SelectVar,
    WindowVar,
    build_model,
    model_statistics,
    row_family,
)
from flexrsa.model import InputError, RestorationInstance
from flexrsa.trimming import compute_useful_triples


def trimmed(inst, mode="feasibility"):
    return build_model(inst, compute_useful_triples(inst), "trimmed", mode)


class TestVariableSets:
    def test_t1_trimmed_has_four_windows(self, t1):
        # only the forward arcs 1 -> 2 -> 3 lie on a simple path within reach
        model = trimmed(t1)
        assert model_statistics(model).variables == 4
        assert model.variables == (
            WindowVar(1, 1, True, 1), WindowVar(1, 1, True, 2),
            WindowVar(1, 2, True, 1), WindowVar(1, 2, True, 2),
        )
        assert all(type(key) is WindowVar for key in model.variables)

    def test_t4_trimmed_has_one_window_per_first_color(self, t4):
        # width 2 on 4 free colors: first colors 1..3 on both forward arcs,
        # each window costing its 2 slots
        model = trimmed(t4)
        assert model.variables == tuple(
            WindowVar(4, link, True, first) for link in (1, 2) for first in (1, 2, 3)
        )
        assert model.c.tolist() == [2.0] * 6

    def test_t1_base_has_twelve(self, t1):
        model = build_model(t1, None, "base")
        assert model_statistics(model).variables == 12  # 1 demand x 3 links x 2 colors x 2 dirs

    def test_t3_trimmed_has_two(self, t3):
        # both demands run 1 -> 2: the backward arc would enter the source
        model = trimmed(t3)
        assert model_statistics(model).variables == 2
        assert model.variables == (WindowVar(1, 1, True, 1), WindowVar(2, 1, True, 1))

    def test_empty_demand_set(self, t1):
        inst = RestorationInstance(t1.network, ())
        model = trimmed(inst)
        stats = model_statistics(model)
        assert stats.variables == 0
        assert stats.constraints == 0

    def test_base_fixes_occupied_colors(self, t2):
        model = build_model(t2, None, "base")
        # color 1 on link 2 is occupied: both directions fixed to zero
        fixed = {model.variables[j] for j in np.flatnonzero(model.ub == 0)}
        assert FlowVar(2, 2, True, 1) in fixed
        assert FlowVar(2, 2, False, 1) in fixed
        assert FlowVar(2, 1, True, 1) not in fixed

    def test_variable_count_ordering(self, small_corpus):
        for seed, inst in small_corpus[:15]:
            triples = compute_useful_triples(inst)
            n_base = len(build_model(inst, None, "base").variables)
            n_notrim = len(build_model(inst, None, "notrim").variables)
            n_trim = len(build_model(inst, triples, "trimmed").variables)
            assert n_trim <= n_notrim <= n_base, f"seed {seed}"

    def test_maxsubset_adds_exactly_one_selector_per_demand(self, t3):
        feas = trimmed(t3)
        maxs = trimmed(t3, "maxsubset")
        assert len(maxs.variables) == len(feas.variables) + len(t3.demands)
        assert [v for v in maxs.variables if isinstance(v, SelectVar)] == [
            SelectVar(1), SelectVar(2)
        ]
        assert model_statistics(maxs).select_variables == 2


class TestConstraints:
    def test_unicolor_absent_for_useless_link(self, t1):
        model = trimmed(t1)
        tags = [c.tag for c in model.constraints]
        assert "uni_l1_c1" in tags
        assert not any(t.startswith("uni_l3") for t in tags)

    def test_flow_conservation_only_at_inner_nodes(self, t1):
        model = trimmed(t1)
        flows = [c for c in model.constraints if row_family(c.tag) == "flow"]
        # only node index 1 (node 2) is inner; colors 1 and 2
        assert len(flows) == 2
        assert all("_n1" in c.tag for c in flows)

    def test_source_constraints_shape(self, t1):
        model = trimmed(t1)
        src = {c.tag: c for c in model.constraints if row_family(c.tag) == "srcout"}
        con = src["srcout_d1"]
        assert con.relation == "="
        assert con.rhs == 1
        assert set(con.coeffs) == {WindowVar(1, 1, True, 1), WindowVar(1, 1, True, 2)}

    def test_reach_constraint_coefficients(self, t1):
        model = trimmed(t1)
        (reach,) = [c for c in model.constraints if row_family(c.tag) == "reach"]
        assert reach.relation == "<="
        assert reach.rhs == 2.0  # reach 2: a window counts its link once
        assert all(coeff == 1.0 for coeff in reach.coeffs.values())

    def test_windows_need_no_contiguity_rows(self, t4):
        model = trimmed(t4)
        fams = {row_family(c.tag) for c in model.constraints}
        assert fams == {"flow", "srcout", "reach", "uni"}
        rows = {c.tag: c for c in model.constraints}
        # a unicolor row holds every window over its color
        assert set(rows["uni_l1_c2"].coeffs) == {
            WindowVar(4, 1, True, 1), WindowVar(4, 1, True, 2)
        }
        assert set(rows["uni_l1_c4"].coeffs) == {WindowVar(4, 1, True, 3)}
        assert rows["reach_d4"].rhs == 5.0  # the reach, not reach x width
        assert rows["srcout_d4"].rhs == 1  # one window leaves the source
        # flow is conserved per first color at the inner node
        assert sorted(t for t in rows if t.startswith("flow")) == [
            "flow_d4_w1_n1", "flow_d4_w2_n1", "flow_d4_w3_n1"
        ]

    def test_contiguity_families_for_width_two(self, t4):
        model = build_model(t4, None, "notrim")
        fams = {row_family(c.tag) for c in model.constraints}
        assert {"ctgA", "ctgB", "ctgC"} <= fams
        ctg_c = [c for c in model.constraints if row_family(c.tag) == "ctgC"]
        # color 4 is free but never a first color: x4 <= x3 on every arc
        assert [c.tag for c in ctg_c] == [
            "ctgC_d4_l1f_c4", "ctgC_d4_l1b_c4", "ctgC_d4_l2f_c4", "ctgC_d4_l2b_c4"
        ]
        for con in ctg_c:
            assert con.relation == ">="
            assert sorted(con.coeffs.values()) == [-1, 1]

    def test_contiguity_skipped_for_width_one(self, t1):
        model = build_model(t1, None, "notrim")
        assert not any(row_family(c.tag).startswith("ctg") for c in model.constraints)

    def test_base_contiguity_only_window_and_bottom(self, t4):
        model = build_model(t4, None, "base")
        fams = {row_family(c.tag) for c in model.constraints}
        assert "ctgC" not in fams
        ctg_b = [c for c in model.constraints if row_family(c.tag) == "ctgB"]
        assert ctg_b and all(c.tag.endswith("_c1") for c in ctg_b)
        # window rows exist up to the top of the spectrum
        assert any(c.tag.endswith("_c4") for c in model.constraints if row_family(c.tag) == "ctgA")

    def test_no_empty_rows_except_unroutable_source(self, t1_low_reach):
        model = trimmed(t1_low_reach)
        empties = [c for c in model.constraints if not c.coeffs]
        assert [c.tag for c in empties] == ["srcout_d1"]
        assert empties[0].rhs == 1


class TestModes:
    def test_maxsubset_rejects_non_reroutable(self, t1_low_reach):
        triples = compute_useful_triples(t1_low_reach)
        with pytest.raises(InputError, match=r"\[1\]"):
            build_model(t1_low_reach, triples, "trimmed", "maxsubset")

    def test_maxsubset_objective_uses_big_m(self, t3):
        model = trimmed(t3, "maxsubset")
        # 2 (demand, link, color) with a column in either direction, so M = 3
        assert -model.c.min() == 3
        cost = dict(zip(model.variables, model.c.tolist()))
        assert cost[SelectVar(1)] == -3
        assert cost[WindowVar(1, 1, True, 1)] == 1

    def test_maxsubset_source_rows_reference_selector(self, t3):
        model = trimmed(t3, "maxsubset")
        src = [c for c in model.constraints if row_family(c.tag) == "srcout"]
        for con in src:
            assert con.rhs == 0
            sel = [k for k in con.coeffs if isinstance(k, SelectVar)]
            assert len(sel) == 1
            assert con.coeffs[sel[0]] == -1  # width 1

    def test_trimmed_requires_triples(self, t1):
        with pytest.raises(InputError):
            build_model(t1, None, "trimmed")

    def test_unknown_variant_and_mode(self, t1):
        with pytest.raises(InputError):
            build_model(t1, None, "fancy")
        with pytest.raises(InputError):
            build_model(t1, None, "base", "decision")


class TestColumnKeys:
    def test_kinds_never_equal(self):
        flow, window = FlowVar(1, 1, True, 1), WindowVar(1, 1, True, 1)
        assert flow != window
        assert not flow == window
        assert len({flow, window}) == 2
        assert {window: 1}.get(flow) is None


class TestStatistics:
    def test_by_family_counts(self, t4):
        stats = model_statistics(trimmed(t4))
        assert stats.by_family["uni"] == 8  # 2 links x 4 colors
        assert stats.by_family["srcout"] == 1
        assert stats.arc_variables == stats.variables == 6  # windows, no selectors
        maxsubset = model_statistics(trimmed(t4, "maxsubset"))
        assert (maxsubset.arc_variables, maxsubset.select_variables) == (6, 1)
        assert stats.fixed_zero == 0

    def test_base_fixed_accounting(self, t2):
        stats = model_statistics(build_model(t2, None, "base"))
        assert stats.fixed_zero == 2  # (link 2, color 1) in both directions


class TestRows:
    def test_merges_repeats_in_place_and_drops_zeros(self):
        rows = Rows()
        rows.add("a", [2, 0, 2, 1], [1, 1, -3, 0], ">=", 0)
        rows.add("b", [1, 1], [1, -1], "=", 4)  # cancels to an empty row, kept
        rows.add("c", [0], [2.5], "<=", 7.5)
        a, lower, upper = rows.matrix(3)
        assert a.shape == (3, 3)
        assert a.indptr.tolist() == [0, 2, 2, 3]
        assert a.indices.tolist() == [2, 0, 0]
        assert a.data.tolist() == [-2.0, 1.0, 2.5]
        assert lower.tolist() == [0.0, 4.0, -np.inf]
        assert upper.tolist() == [np.inf, 4.0, 7.5]
        assert rows.names == ["a", "b", "c"]


class TestDerivedRows:
    def test_constraints_mirror_the_arrays(self, t4):
        model = trimmed(t4)
        assert len(model.constraints) == model.a.shape[0]
        assert sum(len(con.coeffs) for con in model.constraints) == model.a.nnz
        for con, name in zip(model.constraints, model.row_names):
            assert con.tag == name
        assert model.constraints is model.constraints  # derived once
