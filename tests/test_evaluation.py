from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from anafor import (
    Comparison,
    Metrics,
    NameDictionary,
    baseline_resolve_document,
    evaluate,
    parse_document,
    parse_trace,
    resolve_document,
)

DICT = NameDictionary.from_names(["Fatma", "Zeynep", "Ali"])


class TestMetricsFromCounts:
    def test_first_experiment_arithmetic(self):
        metrics = Metrics.from_counts(identified=190, ambiguous=6, correct=162)
        assert metrics.attempted == 184
        assert metrics.recall * 100 == pytest.approx(85.3, abs=0.05)
        assert metrics.precision * 100 == pytest.approx(88.0, abs=0.05)

    def test_second_experiment_arithmetic(self):
        metrics = Metrics.from_counts(identified=205, ambiguous=39, correct=151)
        assert metrics.attempted == 166
        assert metrics.recall * 100 == pytest.approx(73.7, abs=0.05)
        assert metrics.precision * 100 == pytest.approx(91.0, abs=0.05)

    def test_all_ambiguous_guards_division(self):
        metrics = Metrics.from_counts(identified=5, ambiguous=5, correct=0)
        assert metrics.recall == 0.0
        assert metrics.precision == 0.0

    def test_empty_gold_guards_division(self):
        metrics = Metrics.from_counts(identified=0, ambiguous=0, correct=0)
        assert metrics.recall == 0.0 and metrics.precision == 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            Metrics.from_counts(identified=5, ambiguous=6, correct=0)
        with pytest.raises(ValueError):
            Metrics.from_counts(identified=5, ambiguous=1, correct=5)

    @given(
        identified=st.integers(min_value=0, max_value=500),
        data=st.data(),
    )
    def test_recall_never_exceeds_precision(self, identified, data):
        ambiguous = data.draw(st.integers(min_value=0, max_value=identified))
        correct = data.draw(st.integers(min_value=0, max_value=identified - ambiguous))
        metrics = Metrics.from_counts(identified, ambiguous, correct)
        assert metrics.correct <= metrics.attempted <= metrics.identified
        assert metrics.recall <= metrics.precision or metrics.precision == 0.0


class TestEvaluate:
    def test_counts_only_gold_linked_pronouns(self):
        doc = parse_document(
            'Fatma geldi. Ali <pro id="1" ant="Fatma">onu</pro> gördü. '
            'Zeynep <pro id="2">ona</pro> baktı.'
        )
        resolved = resolve_document(doc, DICT)
        metrics = evaluate(resolved, doc)
        assert metrics.identified == 1
        assert metrics.correct == 1

    def test_wrong_resolution_counts_as_attempted(self):
        doc = parse_document(
            "Fatma Zeynep'i gördü. "
            '<zero id="1" kind="pers" num="sg" ant="Zeynep"/> Güldü.'
        )
        metrics = evaluate(resolve_document(doc, DICT), doc)
        assert metrics.identified == 1
        assert metrics.attempted == 1
        assert metrics.correct == 0

    def test_plural_gold_matches_as_set(self):
        doc = parse_document(
            'Ali ve Fatma geldi. Zeynep <pro id="1" ant="Ali;Fatma">onları</pro> gördü.'
        )
        metrics = evaluate(resolve_document(doc, DICT), doc)
        assert metrics.correct == 1

    def test_missing_resolution_id_rejected(self):
        doc = parse_document('Fatma geldi. Ali <pro id="9" ant="Fatma">onu</pro> gördü.')
        with pytest.raises(ValueError, match="no resolution"):
            evaluate([], doc)

    def test_duplicate_resolution_id_rejected(self):
        doc = parse_document('Fatma geldi. Ali <pro id="9" ant="Fatma">onu</pro> gördü.')
        records = parse_trace("9\tresolved\tFatma\t1.0000\t-\n9\tambiguous\t-\t-\t-\n")
        with pytest.raises(ValueError, match="duplicate resolution for pronoun 9"):
            evaluate(records, doc)

    def test_resolution_for_a_pronoun_not_in_gold_rejected(self):
        doc = parse_document('Fatma geldi. Ali <pro id="1" ant="Fatma">onu</pro> gördü.')
        records = parse_trace("1\tresolved\tFatma\t1.0000\t-\n7\tambiguous\t-\t-\t-\n")
        with pytest.raises(ValueError, match="pronoun 7 is not in the gold document"):
            evaluate(records, doc)

    def test_idempotent(self):
        doc = parse_document(
            'Fatma geldi. Ali <pro id="1" ant="Fatma">onu</pro> gördü.'
        )
        resolved = resolve_document(doc, DICT)
        assert evaluate(resolved, doc) == evaluate(resolved, doc)


class TestCompare:
    def test_reported_experiment_deltas(self):
        system = Metrics.from_counts(190, 6, 162)
        baseline = Metrics.from_counts(190, 6, 130)  # 68.4% / 70.7%
        report = Comparison(system, baseline)
        assert report.recall_delta == pytest.approx(16.9)
        text = report.format_text()
        assert "85.3%" in text and "68.4%" in text and "+16.9" in text

    def test_identical_metrics_zero_delta(self):
        metrics = Metrics.from_counts(10, 1, 7)
        report = Comparison(metrics, metrics)
        assert report.recall_delta == 0.0
        assert report.precision_delta == 0.0

    def test_negative_delta_keeps_sign(self):
        # recency alone wins here: the most recent candidate is the gold one,
        # while the preference aggregate favours the sentence-initial name
        doc = parse_document(
            "Fatma Zeynep'i gördü. "
            '<zero id="1" kind="pers" num="sg" ant="Zeynep"/> Güldü.'
        )
        system = evaluate(resolve_document(doc, DICT), doc)
        baseline = evaluate(baseline_resolve_document(doc, DICT), doc)
        report = Comparison(system, baseline)
        assert baseline.correct == 1 and system.correct == 0
        assert report.recall_delta < 0
        assert "-100.0" in report.format_text()

    def test_kv_format(self):
        report = Comparison(Metrics.from_counts(4, 0, 4), Metrics.from_counts(4, 0, 2))
        kv = report.format_kv()
        assert "system.recall=1.000000" in kv
        assert "baseline.correct=2" in kv
        assert "delta.recall_pp=+50.0" in kv
