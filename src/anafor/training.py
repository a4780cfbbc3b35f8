"""Perceptron (delta-rule) optimization of the preference weights.

Training instances come from gold-annotated documents: each pronoun whose
gold antecedent survives the constraints yields one instance holding the
survivors' feature vectors (ordered oldest anchor first, so the tie rule
"prefer the most recent" is simply "prefer the higher index").  Instances
are built on the resolver's document walk, with each pronoun replaced by its
gold antecedent, so later feature vectors see the correct context.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .candidates import SearchScope
from .corpus import NameDictionary
from .morphology import Lexicon
from .resolver import walk_document
from .scoring import (
    FEATURE_NAMES,
    PreferenceVector,
    PreferenceWeights,
    feature_vectors,
    most_recent_max,
    weights_of,
)
from .textmodel import Document

# Unused here, but perfbench/tracing.py patches them as attributes of this module.
from .candidates import constrained_candidates  # noqa: F401
from .resolver import replace_mention  # noqa: F401
from .scoring import feature_vector  # noqa: F401


@dataclass(frozen=True)
class TrainingInstance:
    pronoun_id: int
    vectors: tuple[PreferenceVector, ...]  # survivors, ascending anchor
    gold_index: int

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("instance needs at least one survivor")
        if not 0 <= self.gold_index < len(self.vectors):
            raise ValueError("gold index out of range")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    max_epochs: int = 100
    initial_weights: PreferenceWeights = PreferenceWeights((1.0,) * len(FEATURE_NAMES))

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if isinstance(self.max_epochs, bool) or not isinstance(self.max_epochs, int):
            raise ValueError(f"max epochs must be an integer, got {self.max_epochs!r}")
        if self.max_epochs < 1:
            raise ValueError("need at least one epoch")


@dataclass(frozen=True)
class TrainReport:
    epochs: int
    final_errors: int


def build_instances(
    corpus: list[Document],
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> tuple[list[TrainingInstance], int]:
    """Turn gold-annotated documents into training instances.

    Returns the instances plus the count of pronouns skipped because their
    gold antecedent did not survive the constraints.  Every pronoun must
    carry a gold link; a document without them is an error.
    """
    instances: list[TrainingInstance] = []
    skipped = 0

    def choose(window, mention, survivors, history):
        nonlocal skipped
        gold = mention.gold_antecedent
        if gold is None:
            raise ValueError(f"pronoun {mention.id} has no gold antecedent")
        gold_index = None
        for i, candidate in enumerate(survivors):
            if candidate.base_names == gold:
                gold_index = i  # keep the most recent gold-matching survivor
        if gold_index is None:
            skipped += 1
        else:
            vectors = tuple(feature_vectors(mention, survivors, history, window))
            instances.append(TrainingInstance(mention.id, vectors, gold_index))
        return sorted(gold)

    for doc in corpus:
        if not any(m.gold_antecedent for m in doc.pronouns):
            raise ValueError("document carries no gold antecedent links")
        walk_document(doc, dictionary, scope, lexicon, choose)
    return instances, skipped


def train(
    instances: list[TrainingInstance],
    config: TrainConfig = TrainConfig(),
) -> tuple[PreferenceWeights, TrainReport]:
    """Delta-rule training: on a miss, move the weights toward the gold
    survivor's features and away from the predicted one.

    Stops at the first zero-error epoch or at ``max_epochs``; deterministic
    given the instance order.

    Two shortcuts leave every weight bit and the report as they would be
    without them.  Copies of a vector tie and the tie goes to the last copy, so
    each distinct vector is scored once, at its last index, through its getter
    in :data:`~anafor.scoring.weights_of`, as :func:`~anafor.scoring.score`
    scores it.  An instance whose one distinct vector is the gold one can
    never miss and is left out.  An epoch is a pure function of the weights
    it starts from, so once an epoch starts from the exact bits an earlier
    one started from, the epochs between them repeat, and as many whole
    periods as fit before ``max_epochs`` are skipped.  A weight that
    overflows is a ValueError.
    """
    if not instances:
        raise ValueError("no training instances")
    # Per instance: its distinct vectors in the order of their last index,
    # their weight getters, those indices, and the gold index and vector.
    distinct = []
    for instance in instances:
        indices = sorted({vector: i for i, vector in enumerate(instance.vectors)}.values())
        if indices != [instance.gold_index]:
            vectors = [instance.vectors[i] for i in indices]
            getters, gold = [weights_of[vector] for vector in vectors], instance.gold_index
            distinct.append((vectors, getters, indices, gold, instance.vectors[gold]))
    weights = list(config.initial_weights.values)
    pack = struct.Struct(f"{len(weights)}d").pack
    started: dict[bytes, int] = {}  # bits of an epoch's starting weights -> epoch
    epoch = 0
    errors = 0
    while epoch < config.max_epochs:
        state = pack(*weights)
        if state in started:
            period = epoch - started[state]
            epoch += (config.max_epochs - epoch) // period * period
            started.clear()  # less than a period is left: run it out
            continue
        started[state] = epoch
        errors = 0
        for vectors, getters, indices, gold_index, gold_vector in distinct:
            predicted = most_recent_max([sum(get(weights)) for get in getters])
            if indices[predicted] != gold_index:
                errors += 1
                weights = [
                    w + config.learning_rate * (int(g) - int(p))
                    for w, g, p in zip(weights, gold_vector, vectors[predicted])
                ]
        epoch += 1
        if not all(map(math.isfinite, weights)):  # a weight never comes back
            rate = config.learning_rate
            raise ValueError(f"learning rate {rate} made a weight non-finite in epoch {epoch}")
        if errors == 0:
            break
    return PreferenceWeights(tuple(weights)), TrainReport(epoch, errors)
