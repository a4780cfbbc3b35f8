from __future__ import annotations

import math
import random

import pytest

from anafor import (
    NameDictionary,
    PreferenceVector,
    PreferenceWeights,
    TrainConfig,
    TrainingInstance,
    build_instances,
    load_dictionary,
    parse_document,
    train,
)
from anafor.scoring import most_recent_max, weights_of
from conftest import FIXTURES, fixture_text
from counting import runs

DICT = NameDictionary.from_names(
    ["Ayşe", "Ahmet", "Fatma", "Ali", "Zerrin", "Murat", "Zeynep"]
)


def _vector(*true_indices: int) -> PreferenceVector:
    return PreferenceVector(*[i in true_indices for i in range(8)])


class TestBuildInstances:
    def test_two_overt_pronouns_with_shared_gold(self):
        doc = parse_document(
            'Ayşe okula gitti. Ahmet ve Fatma <pro id="1" ant="Ayşe">onu</pro> gördü. '
            '<pro id="2" ant="Ayşe">Ona</pro> el salladılar.'
        )
        instances, skipped = build_instances([doc], DICT)
        assert skipped == 0
        assert [inst.pronoun_id for inst in instances] == [1, 2]
        # first pronoun: the lone survivor is the gold antecedent
        assert len(instances[0].vectors) == 1 and instances[0].gold_index == 0
        # second: gold-guided replacement adds a recent Ayşe occurrence, and
        # the gold index points at the most recent gold-matching survivor
        assert len(instances[1].vectors) == 4
        assert instances[1].gold_index == 3

    def test_unresolvable_gold_is_skipped_and_counted(self):
        doc = parse_document(
            '<zero id="1" kind="pers" num="sg" ant="Ali"/> Kapı açıldı.'
        )
        instances, skipped = build_instances([doc], DICT)
        assert instances == []
        assert skipped == 1

    def test_gold_index_targets_correct_survivor(self):
        doc = parse_document(
            "Ali geldi. Murat geldi. Zeynep geldi. "
            '<zero id="1" kind="pers" num="sg" ant="Murat"/> Gitti.'
        )
        (instance,), skipped = build_instances([doc], DICT)
        assert skipped == 0
        assert len(instance.vectors) == 3
        assert instance.gold_index == 1

    def test_document_without_gold_links_rejected(self):
        doc = parse_document('Ali <pro id="1">onu</pro> gördü.')
        with pytest.raises(ValueError, match="gold"):
            build_instances([doc], DICT)

    def test_partially_linked_document_rejected(self):
        doc = parse_document(
            'Ayşe geldi. Ali <pro id="1" ant="Ayşe">onu</pro> gördü. '
            'Murat <pro id="2">ona</pro> baktı.'
        )
        with pytest.raises(ValueError, match="pronoun 2"):
            build_instances([doc], DICT)


class TestTrain:
    def test_single_feature_separation(self):
        # gold always satisfies feature 5, competitors satisfy nothing; from
        # zero weights the recency tie-break first picks the wrong candidate,
        # so the lone distinguishing weight must grow until errors vanish
        instances = [
            TrainingInstance(i, (_vector(5), PreferenceVector(*[False] * 8)), gold_index=0)
            for i in range(10)
        ]
        config = TrainConfig(initial_weights=PreferenceWeights((0.0,) * 8))
        weights, report = train(instances, config)
        assert report.final_errors == 0
        assert weights.values[5] > 0.0
        untouched = [w for i, w in enumerate(weights.values) if i != 5]
        assert untouched == [0.0] * 7

    def test_equal_vectors_miss_does_not_update(self):
        instances = [TrainingInstance(1, (_vector(1), _vector(1)), gold_index=0)]
        weights, report = train(instances, TrainConfig(max_epochs=3))
        # prediction keeps picking the more recent twin: a counted miss,
        # but the feature difference is empty so weights stay put
        assert weights == TrainConfig().initial_weights
        assert report.final_errors == 1
        assert report.epochs == 3

    def test_zero_learning_rate_is_identity(self):
        instances = [TrainingInstance(1, (_vector(2), _vector(3)), gold_index=0)]
        config = TrainConfig(learning_rate=0.0, max_epochs=10)
        weights, _report = train(instances, config)
        assert weights == config.initial_weights

    def test_separable_set_converges(self):
        instances = _separable_instances(random.Random(7), count=50)
        weights, report = train(instances, TrainConfig())
        assert report.final_errors == 0
        assert report.epochs <= 100

    def test_zero_error_epoch_freezes_weights(self):
        instances = _separable_instances(random.Random(11), count=30)
        weights, report = train(instances, TrainConfig())
        assert report.final_errors == 0
        again, again_report = train(
            instances, TrainConfig(initial_weights=weights, max_epochs=1)
        )
        assert again == weights
        assert again_report.final_errors == 0

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"learning_rate": -0.05}, "learning rate must be non-negative"),
            ({"max_epochs": 0}, "need at least one epoch"),
        ],
    )
    def test_bad_config_rejected(self, options, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**options)

    @pytest.mark.parametrize(
        "vectors,gold_index,message",
        [
            ((), 0, "instance needs at least one survivor"),
            ((_vector(),), 1, "gold index out of range"),
            ((_vector(),), -1, "gold index out of range"),
        ],
    )
    def test_bad_instance_rejected(self, vectors, gold_index, message):
        with pytest.raises(ValueError, match=message):
            TrainingInstance(1, vectors, gold_index)

    def test_empty_instances_rejected(self):
        with pytest.raises(ValueError):
            train([])

    def test_overflowing_weight_names_rate_and_epoch(self):
        # The first instance misses whenever w0 + w1 <= 0 and raises both,
        # the second misses whenever w1 >= 0 and lowers w1: w0 overflows in
        # the third epoch, a finite rate of half the size converges.
        instances = [
            TrainingInstance(1, (_vector(0, 1), _vector()), 0),
            TrainingInstance(2, (_vector(), _vector(1)), 0),
        ]
        with pytest.raises(ValueError) as raised:
            train(instances, TrainConfig(learning_rate=1e308))
        assert str(raised.value) == (
            "learning rate 1e+308 made a weight non-finite in epoch 3"
        )
        weights, report = train(instances, TrainConfig(learning_rate=5e307))
        assert weights.values[:2] == (1e308, -5e307)
        assert (report.epochs, report.final_errors) == (4, 0)

    @pytest.mark.parametrize("epochs", [2.5, 3.0, True, "3"])
    def test_non_integer_max_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="max epochs must be an integer"):
            TrainConfig(max_epochs=epochs)

    def test_work_is_bounded_on_cycling_gold(self):
        # The mini corpus plus 12 generated documents never reach a
        # zero-error epoch, so all 100 epochs count; the weights repeat
        # within a few dozen epochs, and the rest need no scoring.
        golden = FIXTURES / "golden"
        texts = [fixture_text("minicorpus/minicorpus.txt")]
        texts += (golden / "generated.docs").read_text(encoding="utf-8").split("\n\n")[:12]
        instances, _skipped = build_instances(
            [parse_document(text) for text in texts], load_dictionary(golden / "generated.names")
        )
        weights_of.clear()  # so that every getter train reads is built in it
        with runs(most_recent_max) as calls, runs(type(weights_of).__missing__) as built:
            _weights, report = train(instances)
        assert report.epochs == 100 and report.final_errors > 0
        assert 0 < calls.n <= 0.25 * len(instances) * report.epochs
        # One weight getter per distinct vector, built once.
        distinct = {vector for instance in instances for vector in instance.vectors}
        assert 0 < built.n <= len(distinct)


def _separable_instances(rng: random.Random, count: int) -> list[TrainingInstance]:
    """Instances whose gold candidate wins by a clear margin under a fixed
    reference weight vector, so perceptron training must converge."""
    reference = PreferenceWeights((4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5))

    def value(vector: PreferenceVector) -> float:
        return sum(w for flag, w in zip(vector, reference.values) if flag)

    instances = []
    for pronoun_id in range(count):
        candidates = []
        while len(candidates) < rng.randint(2, 4):
            flags = tuple(rng.random() < 0.4 for _ in range(8))
            if any(flags):
                candidates.append(PreferenceVector(*flags))
        scores = [value(v) for v in candidates]
        top = max(scores)
        # a unique, clearly separated winner keeps the set separable
        if scores.count(top) != 1 or sorted(scores)[-1] - sorted(scores)[-2] < 0.75:
            continue
        instances.append(
            TrainingInstance(pronoun_id, tuple(candidates), scores.index(top))
        )
    while len(instances) < count:
        instances.extend(instances[: count - len(instances)])
    return instances[:count]
