import numpy as np
import pytest

from flexrsa.lpformat import column_names, emit_lp_text, parse_lp_text, var_name
from flexrsa.milp import FlowVar, SelectVar, WindowVar, build_model
from flexrsa.model import RestorationInstance
from flexrsa.trimming import compute_useful_triples


def roundtrip_matches(model):
    """The printed LP reads back as the model's own solver matrix."""
    text = emit_lp_text(model)
    names, c, a, lower, upper, ub, row_names = parse_lp_text(text)
    assert names == [var_name(k) for k in model.variables]
    assert len(set(names)) == len(names)
    assert row_names == model.row_names
    assert a.shape == model.a.shape
    for got, want in ((a.indptr, model.a.indptr), (a.indices, model.a.indices),
                      (a.data, model.a.data), (c, model.c), (lower, model.lower),
                      (upper, model.upper), (ub, model.ub)):
        assert np.array_equal(got, want)
    return text


class TestVariableNames:
    def test_injective(self):
        keys = [FlowVar(1, 11, True, 1), FlowVar(11, 1, True, 1), FlowVar(1, 1, True, 11),
                FlowVar(1, 1, False, 11), WindowVar(1, 1, True, 11),
                WindowVar(1, 1, False, 11), SelectVar(1), SelectVar(11)]
        assert len({var_name(key) for key in keys}) == len(keys)

    @pytest.mark.parametrize("variant, mode", [("base", "maxsubset"), ("trimmed", "maxsubset")])
    def test_column_names_are_the_key_names(self, cut_off_window, variant, mode):
        # formatted from the column table, the names are those of the keys;
        # the fixed columns of base are listed in key order, which puts a
        # link's backward columns before its forward ones
        inst = cut_off_window
        model = build_model(inst, compute_useful_triples(inst), variant, mode)
        assert column_names(model) == [var_name(k) for k in model.variables]
        fixed = sorted(k for k, ub in zip(model.variables, model.ub) if ub == 0)
        assert bool(fixed) == (variant == "base")
        text = emit_lp_text(model)
        bounds = text.split("Bounds\n")[1].split("Binary")[0] if fixed else ""
        assert bounds == "".join(f" {var_name(k)} = 0\n" for k in fixed)


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
        assert text.count("z_d1_l1_f_w1") >= 2  # objective + rows + binary
        assert "uni_l3" not in text

    def test_unroutable_source_row_uses_zero_placeholder(self, t1_low_reach):
        model = build_model(
            t1_low_reach, compute_useful_triples(t1_low_reach), "trimmed"
        )
        # no variables at all: the infeasible row survives as a constant row
        text = emit_lp_text(model)
        assert "srcout_d1: 0 = 1" in text
        names, c, a, lower, upper, ub, row_names = parse_lp_text(text)
        assert row_names == ("srcout_d1",)
        assert a.nnz == 0
        assert lower.tolist() == upper.tolist() == [1.0]

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
    """The printed LP, read back, is the matrix the builtin solver gets."""

    def test_corpus_all_variants_and_modes(self, small_corpus):
        for seed, inst in small_corpus:
            triples = compute_useful_triples(inst)
            pruned = RestorationInstance(
                inst.network,
                tuple(d for d in inst.demands if d.id not in triples.non_reroutable),
            )
            for variant in ("base", "notrim", "trimmed"):
                for mode, kept in (("feasibility", inst), ("maxsubset", pruned)):
                    roundtrip_matches(build_model(kept, triples, variant, mode))


# a hand-written document in the printer's dialect
DOC = """\\ hand-written
Minimize
 obj: 2 x - y
Subject To
 a: x + 3 y >= 1
 b: - x
  - 0.5 y = -1
Bounds
 y = 0
Binary
 x
 y
End
"""


class TestParserDetails:
    def test_signs_and_wrapped_rows(self):
        names, c, a, lower, upper, ub, row_names = parse_lp_text(DOC)
        assert names == ["x", "y"]
        assert c.tolist() == [2.0, -1.0]
        assert row_names == ("a", "b")
        assert a.shape == (2, 2)
        assert a.indptr.tolist() == [0, 2, 4]
        assert a.indices.tolist() == [0, 1, 0, 1]
        assert a.data.tolist() == [1.0, 3.0, -1.0, -0.5]
        assert lower.tolist() == [1.0, -1.0]
        assert upper.tolist() == [np.inf, -1.0]
        assert ub.tolist() == [1.0, 0.0]

    def test_relation_required(self):
        with pytest.raises(ValueError):
            parse_lp_text("Minimize\n obj: x\nSubject To\n a: x + 1\nBinary\n x\nEnd\n")

    @pytest.mark.parametrize("text", [" a: x >= 1\n" + DOC, DOC + " x\n", DOC + "Binary\n"])
    def test_line_outside_any_section(self, text):
        with pytest.raises(ValueError, match="outside any section|after End"):
            parse_lp_text(text)

    @pytest.mark.parametrize("old, new", [("Minimize", "Maximize"), ("Binary", "General")])
    def test_unknown_header(self, old, new):
        with pytest.raises(ValueError, match="unknown section header"):
            parse_lp_text(DOC.replace(old, new))

    def test_unnamed_row(self):
        with pytest.raises(ValueError, match="unnamed row"):
            parse_lp_text(DOC.replace(" a: x", " x"))

    def test_constant_term(self):
        with pytest.raises(ValueError, match="expected a column name"):
            parse_lp_text(DOC.replace(" a: x + 3 y >= 1", " a: x + 1 >= 2"))

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (" a: x + 3 y >= 1", " a: x + x >= 1", "row a: repeats a column"),
            (" a: x + 3 y >= 1", " a: 0 x + y >= 1", "row a: a zero term"),
            (" obj: 2 x - y", " obj: x + x - y", "row obj: repeats a column"),
            (" obj: 2 x - y", " obj: 2 x + 0 y", "row obj: a zero term"),
        ],
        ids=["repeated-column", "zero-coefficient", "objective-repeated-column",
             "objective-zero-coefficient"],
    )
    def test_row_outside_the_printed_dialect(self, old, new, error):
        with pytest.raises(ValueError, match=error):
            parse_lp_text(DOC.replace(old, new))

    @pytest.mark.parametrize("bound", [" y = 1", " y <= 0", " 0 <= y <= 1", " z = 0"])
    def test_bound_other_than_fixed_at_zero(self, bound):
        with pytest.raises(ValueError, match="unsupported bound"):
            parse_lp_text(DOC.replace(" y = 0", bound))
