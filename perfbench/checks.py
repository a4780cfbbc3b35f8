"""Output checks.  Each returns a list of problems; an empty list is a pass.

A failed check counts the operation as failed, exactly like an exception.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from anafor import corpus
from anafor.morphology import APOSTROPHES
from anafor.textmodel import Document

from .corpora import SCOPE, Oracle


def _names(antecedent) -> str:
    return ";".join(sorted(antecedent)) if antecedent else "-"


def check_against_oracle(
    resolutions: Sequence, doc: Document, oracle: Oracle, id_base: int, baseline: bool
) -> list[str]:
    """Every pronoun of a mini-corpus tiling resolved as the hand trace says."""
    expected = oracle.baseline if baseline else oracle.system
    column = "baseline" if baseline else "system"
    problems = _check_order(resolutions, doc)
    for resolution in resolutions:
        original = (resolution.pronoun_id - id_base - 1) % oracle.stride + 1
        want = expected[original]
        if resolution.antecedent != want:
            problems.append(
                f"{column} pronoun {resolution.pronoun_id} (mini-corpus p{original}): "
                f"got {_names(resolution.antecedent)}, oracle says {_names(want)}"
            )
    return problems


def _check_order(resolutions: Sequence, doc: Document) -> list[str]:
    got = [r.pronoun_id for r in resolutions]
    want = [m.id for m in doc.pronouns]
    if got != want:
        return [f"resolutions cover pronouns {got[:8]}..., expected {want[:8]}..."]
    return []


def _base(surface: str) -> str:
    cut = min((i for i in (surface.find(a) for a in APOSTROPHES) if i >= 0), default=-1)
    return surface if cut < 0 else surface[:cut]


def check_generated(doc: Document, resolved, names, paraphrase_text: str) -> list[str]:
    """Structural checks for a document without a hand trace.

    One resolution per pronoun in document order; each antecedent name is
    in the gazetteer and occurs in the pronoun's input window: its own
    sentence left of it and the SCOPE sentences before, where an earlier
    resolved pronoun of the window stands for its antecedent names; and
    the paraphrase survives a parse/serialize round trip.
    """
    problems = _check_order(resolved.resolutions, doc)
    if problems:
        return problems
    antecedents = {r.pronoun_id: r.antecedent for r in resolved.resolutions}
    for order, mention in enumerate(doc.pronouns):
        antecedent = antecedents[mention.id]
        if antecedent is None:
            continue
        unknown = sorted(n for n in antecedent if n not in names)
        if unknown:
            problems.append(f"pronoun {mention.id}: {unknown} not in the gazetteer")
        sentence = doc.tokens[mention.position].sentence_index
        first = doc.sentences[max(0, sentence - SCOPE)].first
        window = {_base(t.surface) for t in doc.tokens[first:mention.position]}
        for earlier in doc.pronouns[:order]:
            if first <= earlier.position <= mention.position and antecedents[earlier.id]:
                window |= antecedents[earlier.id]
        outside = sorted(antecedent - window)
        if outside:
            problems.append(f"pronoun {mention.id}: {outside} not in its input window")
    if paraphrase_text != corpus.serialize_document(resolved.paraphrased):
        problems.append("paraphrase text differs from serializing the paraphrase")
    reparsed = corpus.parse_document(paraphrase_text)
    if corpus.serialize_document(reparsed) != paraphrase_text or (
        [t.surface for t in reparsed.tokens]
        != [t.surface for t in resolved.paraphrased.tokens]
    ):
        problems.append("paraphrase does not round-trip through parse/serialize")
    return problems


# The train op's configuration: the trainer's documented defaults.
LEARNING_RATE = 0.05
EPOCHS = 100


def _reference_train(instances: Sequence, features: int) -> tuple[list[float], int, int]:
    """The delta rule written out afresh, from all-ones weights: the
    weights, the epochs run and the errors in the last epoch."""
    weights = [1.0] * features
    epochs = errors = 0
    while epochs < EPOCHS:
        epochs += 1
        errors = 0
        for instance in instances:
            scores = [sum(w for w, on in zip(weights, v) if on) for v in instance.vectors]
            best = max(scores)
            # Ties go to the most recent survivor, the highest index.
            predicted = max(k for k, score in enumerate(scores) if score == best)
            if predicted != instance.gold_index:
                errors += 1
                gold, wrong = instance.vectors[instance.gold_index], instance.vectors[predicted]
                weights = [w + LEARNING_RATE * (int(g) - int(p))
                           for w, g, p in zip(weights, gold, wrong)]
        if errors == 0:
            break
    return weights, epochs, errors


def check_training(instances: Sequence, weights, report) -> list[str]:
    """The trained weights and report match the reference trainer's on the
    same instances."""
    want, epochs, errors = _reference_train(instances, len(weights.values))
    problems = []
    if (report.epochs, report.final_errors) != (epochs, errors):
        problems.append(f"train report {report} differs from the reference trainer's "
                        f"{epochs} epochs, {errors} final errors")
    if any(abs(got - w) > 1e-9 for got, w in zip(weights.values, want)):
        problems.append(f"trained weights {weights.values} differ from the reference "
                        f"trainer's {tuple(want)}")
    return problems


class Repeats:
    """Remembers a digest of each input's first output; a later output for
    the same input must match it."""

    def __init__(self) -> None:
        self._seen: dict[object, str] = {}

    def check(self, key, *texts: str) -> list[str]:
        digest = hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()
        first = self._seen.setdefault(key, digest)
        if first != digest:
            return [f"output for input {key!r} changed between repeats"]
        return []
