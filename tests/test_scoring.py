from __future__ import annotations

import math
from itertools import compress, product

import pytest

from anafor import (
    DEFAULT_WEIGHTS,
    FEATURE_NAMES,
    NameDictionary,
    PreferenceVector,
    PreferenceWeights,
    constrained_candidates,
    feature_vector,
    feature_vectors,
    parse_document,
    parse_weights,
    resolve_document,
    load_weights,
    score,
)
from anafor.candidates import SearchScope
from anafor.scoring import format_weights, most_recent_max, weights_of
from conftest import window

DICT = NameDictionary.from_names(
    ["Ayşe", "Ahmet", "Fatma", "Ali", "Zerrin", "Murat", "Zeynep", "Tekin"]
)


def _vectors(text, dictionary=DICT, pronoun_index=0, history=frozenset()):
    doc = parse_document(text)
    pronoun = doc.pronouns[pronoun_index]
    at = window(doc, pronoun, dictionary)
    survivors = constrained_candidates(pronoun, at)
    return doc, pronoun, {
        ";".join(m.base for m in c.members): feature_vector(
            pronoun, c, survivors, history, at
        )
        for c in survivors
    }


class TestFeatureVector:
    def test_quoted_match_is_symmetric(self):
        _, _, vectors = _vectors(
            '"Bugün Ayşe\'yi gördüm" dedi Zerrin. '
            '"Ben de <pro id="1">onu</pro> dün görmüştüm" dedi Murat.'
        )
        assert vectors["Ayşe"].quoted_match is True
        assert vectors["Zerrin"].quoted_match is False

    def test_unquoted_pronoun_gets_unquoted_credit(self):
        _, _, vectors = _vectors(
            'Ali geldi. Murat <pro id="1">onu</pro> gördü.'
        )
        assert vectors["Ali"].quoted_match is True

    def test_recency_marks_nearest_populated_sentence(self):
        _, _, vectors = _vectors(
            'Ali oyun oynuyordu. Murat da geldi. '
            '<zero id="1" kind="pers" num="sg"/> Oyunu sevdi.'
        )
        assert vectors["Murat"].recency is True
        assert vectors["Ali"].recency is False

    def test_nominative_flag(self):
        _, _, vectors = _vectors(
            '"Günaydın" dedi Murat. Ali <pro id="1">ona</pro> baktı.'
        )
        assert set(vectors) == {"Murat"}  # Ali dropped: same sentence
        assert vectors["Murat"].nominative is True

    def test_punctuation_and_first_np(self):
        _, _, vectors = _vectors(
            "Yolda Tekin, Ali'ye seslendi. "
            '<zero id="1" kind="pers" num="sg"/> Çok yorgundu.'
        )
        assert vectors["Tekin"].punctuation is True
        assert vectors["Ali"].punctuation is False
        assert vectors["Tekin"].first_np is False  # 'Yolda' opens the sentence
        assert vectors["Ali"].first_np is False

    def test_first_np_skips_leading_quote(self):
        _, _, vectors = _vectors(
            '"Ayşe geldi" dedi Murat. <zero id="1" kind="pers" num="sg"/> Sustu.'
        )
        assert vectors["Ayşe"].first_np is True

    def test_survivors_outside_the_window_have_no_window_flags(self):
        # Survivors of a wider scope than the one scored with: the window
        # at scope 0 is the pronoun's own sentence, which holds none of them.
        doc = parse_document(
            'Ali Ali geldi. Murat geldi. <zero id="1" kind="pers" num="sg"/> Sustu.'
        )
        (pronoun,) = doc.pronouns
        survivors = constrained_candidates(pronoun, window(doc, pronoun, DICT))
        assert [c.members[0].base for c in survivors] == ["Ali", "Ali", "Murat"]
        wide = feature_vectors(pronoun, survivors, frozenset(),
                               window(doc, pronoun, DICT, SearchScope(3)))
        narrow = feature_vectors(pronoun, survivors, frozenset(),
                                 window(doc, pronoun, DICT, SearchScope(0)))
        assert [(v.first_np, v.repetition) for v in wide] == [
            (True, True), (False, True), (True, False)
        ]
        assert [(v.first_np, v.repetition) for v in narrow] == [(False, False)] * 3
        # A compound survivor reads each member's count, 0 outside the window.
        doc = parse_document(
            'Ali ve Murat geldi. Ali ve Murat güldü. '
            '<zero id="1" kind="pers" num="pl"/> Sustular.'
        )
        (pronoun,) = doc.pronouns
        survivors = constrained_candidates(pronoun, window(doc, pronoun, DICT))
        assert [c.base_names for c in survivors] == [frozenset({"Ali", "Murat"})] * 2
        wide = feature_vectors(pronoun, survivors, frozenset(),
                               window(doc, pronoun, DICT, SearchScope(3)))
        narrow = feature_vectors(pronoun, survivors, frozenset(),
                                 window(doc, pronoun, DICT, SearchScope(0)))
        assert [(v.first_np, v.repetition) for v in wide] == [(True, True)] * 2
        assert [(v.first_np, v.repetition) for v in narrow] == [(False, False)] * 2

    def test_predicate_nominal(self):
        _, _, vectors = _vectors(
            "Bu çocuk Ali'ydi. <zero id=\"1\" kind=\"pers\" num=\"sg\"/> Sinirliydi."
        )
        assert vectors["Ali"].predicate_nominal is True
        assert vectors["Ali"].nominative is False

    def test_repetition_counts_window_occurrences(self):
        _, _, vectors = _vectors(
            "Ayşe parka gitti. Ayşe Zeynep'le oynadı. "
            '<zero id="1" kind="pers" num="sg"/> Şarkı söyledi.'
        )
        assert vectors["Ayşe"].repetition is True
        assert vectors["Zeynep"].repetition is False

    def test_zero_antecedent_history_needs_zero_pronoun(self):
        history = {frozenset({"Ali"})}
        _, _, vectors = _vectors(
            'Ali geldi. Murat <pro id="1">onu</pro> gördü.', history=history
        )
        assert vectors["Ali"].zero_antecedent_history is False  # overt pronoun

    def test_zero_antecedent_history_needs_earlier_sentence(self):
        # The history holds earlier sentences' names only; the walk keeps a
        # sentence's own zeros out of it (test_resolver's
        # test_history_skips_zeros_of_the_same_sentence).
        earlier = {frozenset({"Ali"})}
        _, _, vectors = _vectors(
            'Ali geldi. <zero id="1" kind="pers" num="sg"/> Gitti.', history=earlier
        )
        assert vectors["Ali"].zero_antecedent_history is True


class TestScore:
    def test_all_false_is_zero(self):
        vector = PreferenceVector(*([False] * 8))
        assert score(vector, DEFAULT_WEIGHTS) == 0.0

    def test_all_true_sums_default_weights(self):
        vector = PreferenceVector(*([True] * 8))
        assert score(vector, DEFAULT_WEIGHTS) == pytest.approx(12.20)

    def test_selected_features_sum(self):
        vector = PreferenceVector(
            quoted_match=False,
            recency=True,
            nominative=True,
            first_np=True,
            predicate_nominal=False,
            repetition=False,
            punctuation=False,
            zero_antecedent_history=False,
        )
        assert score(vector, DEFAULT_WEIGHTS) == pytest.approx(5.40)

    def test_each_weight_getter_adds_what_score_adds_bit_for_bit(self):
        # score sums through the getters, so both are held to the flagged
        # weights summed in feature order here.  Big and small weights of
        # both signs make the order of addition show in the bits; repr
        # tells 0 from 0.0 and -0.0.
        weights = PreferenceWeights((0.1, -0.2, 1e16, 0.3, -1e16, 2.5, -0.0, 7e-3))
        for flags in product((False, True), repeat=8):
            vector = PreferenceVector(*flags)
            expected = repr(sum(compress(weights.values, vector)))
            summed = sum(weights_of[vector](list(weights.values)))
            assert (repr(summed), repr(score(vector, weights))) == (expected, expected), flags

    def test_the_resolvers_score_table_holds_what_score_returns(self):
        # The table fills as a resolve meets each vector; it is no part of
        # the weights' equality, hash or repr.
        weights = PreferenceWeights((0.1, -0.2, 1e16, 0.3, -1e16, 2.5, -0.0, 7e-3))
        doc = parse_document(
            "Ali ve Ayşe geldi . Murat'ı gördüler , Fatma'ya güldüler . "
            '<pro id="1">onlar</pro> <zero id="2" kind="pers" num="sg"/> gitti .'
        )
        resolve_document(doc, DICT, weights)
        assert weights.scores
        for vector, value in weights.scores.items():
            assert repr(value) == repr(score(vector, weights))
        fresh = PreferenceWeights(weights.values)
        assert (fresh, hash(fresh), repr(fresh)) == (weights, hash(weights), repr(weights))
        assert fresh.scores == {}


class TestMostRecentMax:
    @pytest.mark.parametrize(
        "scores,index",
        [
            ([], 0),
            ([1.0, 2.0, 2.0, 0.5], 2),
            ([math.inf, 1.0, math.inf], 2),
            ([-math.inf, -math.inf], 1),
            ([-math.inf, 0.0, -0.0], 2),
        ],
    )
    def test_the_last_highest_score_wins(self, scores, index):
        assert most_recent_max(scores) == index


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text(format_weights(DEFAULT_WEIGHTS), encoding="utf-8")
        assert load_weights(path) == DEFAULT_WEIGHTS

    def test_missing_name_rejected(self):
        text = format_weights(DEFAULT_WEIGHTS)
        clipped = "\n".join(text.splitlines()[:-1])
        with pytest.raises(ValueError, match="missing weight names"):
            parse_weights(clipped)

    def test_unknown_name_rejected(self):
        text = format_weights(DEFAULT_WEIGHTS) + "extra = 1.0\n"
        with pytest.raises(ValueError, match="unknown weight names"):
            parse_weights(text)

    def test_any_order_accepted(self):
        lines = format_weights(DEFAULT_WEIGHTS).splitlines()
        assert parse_weights("\n".join(reversed(lines))) == DEFAULT_WEIGHTS

    @pytest.mark.parametrize(
        "line,message",
        [
            ("quoted_match 2.2", "expected 'name = value'"),
            ("= 2.2", "expected 'name = value'"),
            ("recency = 1.0", "duplicate name 'recency'"),
            ("quoted_match = heavy", "bad value 'heavy'"),
            ("quoted_match = nan", "quoted_match must be finite"),
            ("quoted_match = inf", "quoted_match must be finite"),
            ("quoted_match = -inf", "quoted_match must be finite"),
        ],
    )
    def test_bad_line_is_located(self, line, message):
        # The bad line follows the recency line, the second of the file.
        lines = format_weights(DEFAULT_WEIGHTS).splitlines()
        text = "\n".join([lines[1], line] + lines[2:])
        with pytest.raises(ValueError, match=f"^weights line 2: {message}"):
            parse_weights(text)

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            PreferenceWeights((1.0, 2.0))

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            PreferenceWeights((float("nan"),) + DEFAULT_WEIGHTS.values[1:])

    def test_feature_names_match_vector_fields(self):
        assert FEATURE_NAMES == PreferenceVector._fields


class TestArgmaxInvariance:
    def test_positive_scaling_keeps_the_choice(self, names9):
        from conftest import fixture_text

        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        scaled = PreferenceWeights(tuple(3.7 * w for w in DEFAULT_WEIGHTS.values))
        base = resolve_document(doc, names9, DEFAULT_WEIGHTS)
        scaled_run = resolve_document(doc, names9, scaled)
        for lhs, rhs in zip(base.resolutions, scaled_run.resolutions):
            assert lhs.antecedent == rhs.antecedent
