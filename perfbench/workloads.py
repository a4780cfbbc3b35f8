"""The three workloads.  Each builds its inputs from a seed, runs one
operation at a time through the same public functions as the CLI command it
stands for, and checks every output.

``run(i)`` performs operation ``i`` and returns its output; only this call
is timed.  ``check(i, output)`` returns a list of problems.  ``pronouns(i)``
is the number of pronouns operation ``i`` walks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from anafor import corpus, evaluation, resolver, scoring, training
from anafor.corpus import NameDictionary

from . import corpora
from .checks import EPOCHS, Repeats, check_against_oracle, check_generated, check_training

# Mini-corpus tiles in the long_story document.  The cost of one resolve op
# grows with the square of this; see README.md for the sizing.
LONG_STORY_TILES = 2
DENSE_DOCUMENTS = 400
TRAIN_TILES = 1
TRAIN_GENERATED = 12
# Op i trains on collection i % TRAIN_COLLECTIONS; each draws its own
# generated documents, so a run averages over many and one unlucky draw of
# a seed moves the result less.
TRAIN_COLLECTIONS = 8

# Expected compare totals on the mini corpus, from the header of oracle.tsv:
# (identified, attempted, correct) for the system and the baseline.
ORACLE_SYSTEM_TOTALS = (30, 28, 27)
ORACLE_BASELINE_TOTALS = (30, 28, 19)


def _totals(metrics) -> tuple[int, int, int]:
    return metrics.identified, metrics.attempted, metrics.correct


@dataclass(frozen=True)
class Inputs:
    """What every workload draws on: the gazetteer, the names the generator
    writes, and the mini corpus with its hand-traced oracle."""

    names: NameDictionary
    generator_names: tuple[str, ...]
    minicorpus: str
    oracle: corpora.Oracle


class Workload:
    name = ""

    def __init__(self, inputs: Inputs):
        self.names = inputs.names
        self.oracle = inputs.oracle
        self.repeats = Repeats()

    def resolve_op(self, text: str):
        """The ``anafor resolve --trace`` op on in-memory text."""
        doc = corpus.parse_document(text)
        resolved = resolver.resolve_document(doc, self.names)
        paraphrase = corpus.serialize_document(resolved.paraphrased)
        return doc, resolved, paraphrase, resolver.format_trace(resolved.resolutions)


class LongStory(Workload):
    """One long document: the mini corpus tiled, resolved whole per op."""

    name = "long_story"

    def __init__(self, inputs: Inputs, seed: int, tiles: int = LONG_STORY_TILES):
        super().__init__(inputs)
        # The seed only moves the pronoun ids; the text is the tiling.
        stride = inputs.oracle.stride
        self.id_base = random.Random(seed).randrange(1000) * stride
        self.text = corpora.tile_minicorpus(inputs.minicorpus, tiles, stride, self.id_base)
        self.count = tiles * stride

    def pronouns(self, i: int) -> int:
        return self.count

    def run(self, i: int):
        return self.resolve_op(self.text)

    def check(self, i: int, output) -> list[str]:
        doc, resolved, paraphrase, trace = output
        problems = check_against_oracle(
            resolved.resolutions, doc, self.oracle, self.id_base, baseline=False
        )
        return problems + self.repeats.check(0, paraphrase, trace)


class DenseShorts(Workload):
    """Many short, name-dense generated documents, one resolved per op."""

    name = "dense_shorts"

    def __init__(self, inputs: Inputs, seed: int):
        super().__init__(inputs)
        rng = random.Random(seed)
        self.texts = [
            corpora.generate_document(rng, inputs.generator_names)
            for _ in range(DENSE_DOCUMENTS)
        ]
        self.counts = [text.count("<pro ") + text.count("<zero ") for text in self.texts]

    def pronouns(self, i: int) -> int:
        return self.counts[i % len(self.texts)]

    def run(self, i: int):
        return self.resolve_op(self.texts[i % len(self.texts)])

    def check(self, i: int, output) -> list[str]:
        doc, resolved, paraphrase, trace = output
        problems = check_generated(doc, resolved, self.names, paraphrase)
        return problems + self.repeats.check(i % len(self.texts), paraphrase, trace)


class TrainCompare(Workload):
    """Train on a gold collection, then compare system and baseline on the
    mini corpus; one op does both."""

    name = "train_compare"

    def __init__(self, inputs: Inputs, seed: int):
        super().__init__(inputs)
        rng = random.Random(seed)
        self.minicorpus = inputs.minicorpus
        self.collections = [
            [inputs.minicorpus] * TRAIN_TILES + [
                corpora.generate_document(rng, inputs.generator_names)
                for _ in range(TRAIN_GENERATED)
            ]
            for _ in range(TRAIN_COLLECTIONS)
        ]
        self.gold_pronouns = [
            sum(t.count("<pro ") + t.count("<zero ") for t in collection)
            for collection in self.collections
        ]
        self.compare_pronouns = 2 * inputs.oracle.stride
        self.trained: set[int] = set()

    def pronouns(self, i: int) -> int:
        return self.gold_pronouns[i % len(self.collections)] + self.compare_pronouns

    def run(self, i: int):
        collection = self.collections[i % len(self.collections)]
        docs = [corpus.parse_document(text) for text in collection]
        instances, skipped = training.build_instances(docs, self.names)
        weights, report = training.train(instances)
        weights_text = scoring.format_weights(weights)
        gold = corpus.parse_document(self.minicorpus)
        system = resolver.resolve_document(gold, self.names)
        baseline = resolver.baseline_resolve_document(gold, self.names)
        metrics = (evaluation.evaluate(system, gold), evaluation.evaluate(baseline, gold))
        return gold, system, baseline, metrics, weights_text, instances, skipped, report

    def check(self, i: int, output) -> list[str]:
        gold, system, baseline, metrics, weights_text, instances, skipped, report = output
        key = i % len(self.collections)
        problems = check_against_oracle(system.resolutions, gold, self.oracle, 0, False)
        problems += check_against_oracle(baseline.resolutions, gold, self.oracle, 0, True)
        if (_totals(metrics[0]), _totals(metrics[1])) != (
            ORACLE_SYSTEM_TOTALS, ORACLE_BASELINE_TOTALS
        ):
            problems.append(f"compare totals {metrics} differ from the oracle header")
        if len(instances) + skipped != self.gold_pronouns[key]:
            problems.append(f"{len(instances)} instances + {skipped} skipped, but the "
                            f"collection has {self.gold_pronouns[key]} gold pronouns")
        # The generated gold keeps the trainer from converging early.
        if report.epochs != EPOCHS:
            problems.append(f"training stopped after {report.epochs} epochs")
        # The reference trainer is as slow as the one under test, so it runs
        # on each collection's first output only; the repeat digest below
        # holds every later output to that one.
        if key not in self.trained:
            problems += check_training(instances, scoring.parse_weights(weights_text), report)
            self.trained.add(key)
        return problems + self.repeats.check(
            key, weights_text, repr((len(instances), skipped, report))
        )


WORKLOADS = {w.name: w for w in (LongStory, DenseShorts, TrainCompare)}
