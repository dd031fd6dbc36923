import numpy as np
import pytest

from flexrsa.lp_driver import lp_matrix
from flexrsa.lpformat import (
    emit_lp_text,
    parse_lp_text,
    parse_var_name,
    var_name,
)
from flexrsa.milp import FlowVar, MilpModel, SelectVar, build_model
from flexrsa.model import RestorationInstance
from flexrsa.trimming import compute_useful_triples


def roundtrip_matches(model):
    text = emit_lp_text(model)
    parsed = parse_lp_text(text)
    assert parsed.sense == "min"

    want_obj = {var_name(k): float(v) for k, v in model.objective.items() if v != 0}
    assert parsed.objective == want_obj

    assert [parse_var_name(n) for n in parsed.binary] == list(model.variables)

    assert len(parsed.constraints) == len(model.constraints)
    for (tag, coeffs, rel, rhs), con in zip(parsed.constraints, model.constraints):
        assert tag == con.tag
        assert rel == con.relation
        assert rhs == float(con.rhs)
        want = {var_name(k): float(v) for k, v in con.coeffs.items() if v != 0}
        assert coeffs == want, tag

    want_fixed = {var_name(k): (0.0, 0.0) for k in model.fixed_zero}
    assert parsed.fixed == want_fixed
    return text


class TestVariableNames:
    def test_bijective(self):
        keys = [FlowVar(3, 14, True, 80), FlowVar(1, 2, False, 1), SelectVar(7)]
        for key in keys:
            assert parse_var_name(var_name(key)) == key

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_var_name("z_q1")


class TestEmission:
    def test_empty_model_parses(self, t1):
        model = build_model(RestorationInstance(t1.network, ()), None, "base")
        text = roundtrip_matches(model)
        assert "obj: 0" in text
        assert text.startswith("\\ flexrsa")
        assert text.endswith("End\n")

    def test_deterministic(self, t1):
        triples = compute_useful_triples(t1)
        a = emit_lp_text(build_model(t1, triples, "trimmed"))
        b = emit_lp_text(build_model(t1, triples, "trimmed"))
        assert a == b

    def test_t1_trimmed_document(self, t1):
        model = build_model(t1, compute_useful_triples(t1), "trimmed")
        text = roundtrip_matches(model)
        assert text.count("x_d1_l1_f_c1") >= 2  # objective + rows + binary
        assert "uni_l3" not in text

    def test_unroutable_source_row_uses_zero_placeholder(self, t1_low_reach):
        model = build_model(
            t1_low_reach, compute_useful_triples(t1_low_reach), "trimmed"
        )
        # no variables at all: the infeasible row survives as a constant row
        text = emit_lp_text(model)
        assert "srcout_d1: 0 = 1" in text
        parsed = parse_lp_text(text)
        assert parsed.constraints == [("srcout_d1", {}, "=", 1.0)]

    def test_long_rows_wrap_and_reparse(self, t4):
        model = build_model(t4, None, "base")
        text = emit_lp_text(model)
        assert all(len(line) <= 220 for line in text.splitlines())
        roundtrip_matches(model)


class TestRoundTripCorpus:
    def test_all_variants_and_modes(self, small_corpus):
        for seed, inst in small_corpus[:12]:
            triples = compute_useful_triples(inst)
            for variant in ("base", "notrim", "trimmed"):
                roundtrip_matches(build_model(inst, triples, variant))
            keep = tuple(
                d for d in inst.demands if d.id not in triples.non_reroutable
            )
            pruned = RestorationInstance(inst.network, keep)
            pruned_triples = compute_useful_triples(pruned)
            roundtrip_matches(
                build_model(pruned, pruned_triples, "trimmed", "maxsubset")
            )


class TestMatrixRoundTrip:
    """The printed LP, read back and put through the rows accumulator that
    `solve_lp_file` uses, is the matrix the builtin solver gets."""

    def test_corpus_all_variants_and_modes(self, small_corpus):
        for seed, inst in small_corpus:
            triples = compute_useful_triples(inst)
            pruned = RestorationInstance(
                inst.network,
                tuple(d for d in inst.demands if d.id not in triples.non_reroutable),
            )
            for variant in ("base", "notrim", "trimmed"):
                for mode, kept in (("feasibility", inst), ("maxsubset", pruned)):
                    model = build_model(kept, triples, variant, mode)
                    parsed = parse_lp_text(emit_lp_text(model))
                    names, c, a, lower, upper, ub = lp_matrix(parsed)
                    where = (seed, variant, mode)
                    assert names == [var_name(k) for k in model.variables], where
                    assert [tag for tag, *_ in parsed.constraints] == list(model.row_names)
                    assert a.shape == model.a.shape, where
                    assert np.array_equal(a.indptr, model.a.indptr), where
                    assert np.array_equal(a.indices, model.a.indices), where
                    assert np.array_equal(a.data, model.a.data), where
                    for got, want in ((c, model.c), (lower, model.lower),
                                      (upper, model.upper), (ub, model.ub)):
                        assert np.array_equal(got, want), where


class TestParserDetails:
    def test_signs_and_constants(self):
        parsed = parse_lp_text(
            """Minimize
 obj: 2 x - 3.5 y + z
Subject To
 a: x + 1 - y >= -2
 b: - x <= 0
Binary
 x
 y
 z
End
"""
        )
        assert parsed.objective == {"x": 2.0, "y": -3.5, "z": 1.0}
        assert parsed.constraints[0] == ("a", {"x": 1.0, "y": -1.0}, ">=", -3.0)
        assert parsed.constraints[1] == ("b", {"x": -1.0}, "<=", 0.0)

    def test_relation_required(self):
        with pytest.raises(ValueError):
            parse_lp_text("Minimize\n obj: x\nSubject To\n a: x + 1\nBinary\n x\nEnd\n")
