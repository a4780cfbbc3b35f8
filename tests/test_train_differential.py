"""``anafor.training.train`` against the seed's trainer (seed_walk.py): every
weight bit, the epochs run and the last epoch's errors must match.

The instances draw their vectors from a small pool, so copies of a vector
within an instance and repeated weight states across epochs are common.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

import seed_walk
from anafor import PreferenceVector, PreferenceWeights, TrainConfig, TrainingInstance, train

def _vector(*true_indices: int) -> PreferenceVector:
    return PreferenceVector(*[i in true_indices for i in range(8)])


def _instances(*survivors_and_gold) -> list[TrainingInstance]:
    """Instances from (survivors as lists of true feature indices, gold index)."""
    return [
        TrainingInstance(i, tuple(_vector(*flags) for flags in survivors), gold)
        for i, (survivors, gold) in enumerate(survivors_and_gold)
    ]


# From all-ones weights at the default rate, epoch 28 starts where epoch 26
# did: period 2.
PERIOD_2 = _instances(
    ([(0, 1, 2), (0,), (0,)], 0),
    ([(0, 1, 2), (0, 1, 2), (1,)], 1),
    ([(1,), (0, 1, 2), (1,), (0,)], 2),
    ([(0,), (1,), (1,)], 0),
    ([(0,), (1,)], 1),
    ([(0,), (0, 1, 2), (0, 1, 2)], 2),
)
# Epoch 6 starts where epoch 3 did: period 3.
PERIOD_3 = _instances(
    ([(0, 1, 2, 4), (0, 3, 7)], 1),
    ([(0, 1, 2, 4), (1, 2, 5, 7), (1, 3, 7)], 2),
    ([(1, 3, 7), (0, 3, 7), (1, 2, 5, 7)], 0),
    ([(1, 3, 7), (0, 1, 2, 4)], 1),
    ([(1, 3, 7), (1, 2, 5, 7), (1, 2, 5, 7)], 1),
    ([(0, 3, 7), (1, 3, 7), (0, 3, 7)], 0),
    ([(1, 2, 5, 7), (0, 3, 7)], 1),
)


vectors = st.builds(PreferenceVector, *[st.booleans()] * 8)


@st.composite
def instance_sets(draw) -> list[TrainingInstance]:
    pool = draw(st.lists(vectors, min_size=1, max_size=6))
    instances = []
    for pronoun_id in range(draw(st.integers(1, 30))):
        survivors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        gold = draw(st.integers(0, len(survivors) - 1))
        instances.append(TrainingInstance(pronoun_id, tuple(survivors), gold))
    return instances


weight_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
configs = st.builds(
    TrainConfig,
    learning_rate=st.one_of(st.sampled_from([0.0, 0.05]), st.floats(min_value=0.0, max_value=2.0)),
    max_epochs=st.integers(1, 300),
    initial_weights=st.builds(PreferenceWeights, st.tuples(*[weight_values] * 8)),
)


def _bits(result) -> tuple:
    weights, report = result
    return [value.hex() for value in weights.values], report.epochs, report.final_errors


@settings(max_examples=200, deadline=None)
@given(instances=instance_sets(), config=configs)
# An always-wrong instance of one distinct vector updates by zero, which
# turns a -0.0 weight into 0.0.
@example(
    instances=[TrainingInstance(1, (_vector(), _vector()), 0)],
    config=TrainConfig(initial_weights=PreferenceWeights((-0.0,) * 8), max_epochs=3),
)
# An always-right one never updates, so -0.0 stays.
@example(
    instances=[TrainingInstance(1, (_vector(), _vector()), 1)],
    config=TrainConfig(initial_weights=PreferenceWeights((-0.0,) * 8), max_epochs=3),
)
# Caps that leave one epoch over after the last whole period.
@example(instances=PERIOD_2, config=TrainConfig(max_epochs=101))
@example(instances=PERIOD_3, config=TrainConfig(max_epochs=100))
def test_train_matches_the_seed_trainer(instances, config):
    assert _bits(train(instances, config)) == _bits(seed_walk.train(instances, config))
