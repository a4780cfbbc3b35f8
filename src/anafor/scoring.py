"""The eight binary salience preferences and their weighted aggregate score.

:func:`feature_vectors` computes the flags of all of a pronoun's survivors
at once, reading the text, the window's base counts and its first phrase
tokens off the name index it is given, advanced to the pronoun, never the
window's tokens.  A base missing from the counts, one outside the window,
counts 0.  It builds each vector as a bare tuple, takes a one-member
candidate's flags straight off its name and tells a zero pronoun by its
empty ``surface``.  The zero-pronoun history is the caller's: a set of
the name sets already written in for zero pronouns of earlier sentences,
which the document walk keeps.

:func:`score` and the trainer sum a vector's set weights through its getter in
:data:`weights_of`, so the resolver, which keeps each vector's score in the weights'
``scores``, and the trainer add the same floats in the same order: every bit is the same.

Feature order is part of the serialization contract (weights files, trace
bit strings): quoted_match, recency, nominative, first_np,
predicate_nominal, repetition, punctuation, zero_antecedent_history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .candidates import Candidate, NameIndex, _base, _sentence_index
from .textmodel import PronounMention, data_lines, mention_quoted, read_data_file


class PreferenceVector(NamedTuple):
    quoted_match: bool
    recency: bool
    nominative: bool
    first_np: bool
    predicate_nominal: bool
    repetition: bool
    punctuation: bool
    zero_antecedent_history: bool


FEATURE_NAMES: tuple[str, ...] = PreferenceVector._fields
_nominative, _copular = map(attrgetter, ("nominative", "copular_suffix"))


@dataclass(frozen=True)
class PreferenceWeights:
    values: tuple[float, ...]
    scores: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.values) != len(FEATURE_NAMES):
            raise ValueError(f"need {len(FEATURE_NAMES)} weights, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("weights must be finite")


#: Shipped default weights for the eight preferences, in feature order.
DEFAULT_WEIGHTS = PreferenceWeights((2.20, 2.15, 1.85, 1.40, 1.20, 1.20, 1.15, 1.05))


class _WeightGetters(dict):
    """Each vector's itemgetter of the weights of its set features, in
    feature order, built at its first lookup."""

    def __missing__(self, vector: PreferenceVector) -> itemgetter:
        flags = tuple(compress(range(len(vector)), vector))
        if len(flags) > 1:
            getter = itemgetter(*flags)
        else:  # an itemgetter of one index returns the bare weight
            getter = itemgetter(slice(flags[0], flags[0] + 1) if flags else slice(0))
        self[vector] = getter
        return getter


weights_of = _WeightGetters()  # at most one getter for each of the 256 vectors


def score(vector: PreferenceVector, weights: PreferenceWeights) -> float:
    """Aggregate salience: the sum of the weights of the satisfied features."""
    return sum(weights_of[vector](weights.values))


def most_recent_max(scores: Iterable[float]) -> int:
    """Index of the highest of ``scores``, ties going to the highest index,
    ±inf included; 0 for no scores.

    Survivors are ordered oldest anchor first, so a tie goes to the most
    recent candidate.  No score is NaN: the resolver's weights are finite,
    and in training a NaN can only follow a weight overflow, which makes
    that epoch raise.
    """
    best, best_score = 0, -math.inf
    for i, value in enumerate(scores):
        if value >= best_score:
            best, best_score = i, value
    return best


def format_weights(weights: PreferenceWeights) -> str:
    lines = [f"{name} = {value!r}" for name, value in zip(FEATURE_NAMES, weights.values)]
    return "\n".join(lines) + "\n"


def parse_weights(text: str) -> PreferenceWeights:
    """Parse a weights file: eight ``name = value`` lines, any order."""
    mapping: dict[str, float] = {}
    for lineno, line in data_lines(text):
        name, sep, value = line.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"weights line {lineno}: expected 'name = value'")
        if name in mapping:
            raise ValueError(f"weights line {lineno}: duplicate name {name!r}")
        try:
            mapping[name] = float(value.strip())
        except ValueError:
            raise ValueError(f"weights line {lineno}: bad value {value.strip()!r}") from None
        if not math.isfinite(mapping[name]):
            raise ValueError(f"weights line {lineno}: {name} must be finite")
    missing = [name for name in FEATURE_NAMES if name not in mapping]
    if missing:
        raise ValueError(f"missing weight names: {', '.join(missing)}")
    extra = [name for name in mapping if name not in FEATURE_NAMES]
    if extra:
        raise ValueError(f"unknown weight names: {', '.join(extra)}")
    return PreferenceWeights(tuple(mapping[name] for name in FEATURE_NAMES))


def load_weights(path) -> PreferenceWeights:
    return read_data_file(path, parse_weights)


def feature_vectors(
    pronoun: PronounMention,
    survivors: Sequence[Candidate],
    history: AbstractSet[frozenset[str]],
    window: NameIndex,
) -> list[PreferenceVector]:
    """Compute the eight preference flags for each post-constraint
    candidate, in the order of ``survivors``.

    quoted_match is symmetric (both sides quoted, or both unquoted; the
    pronoun's side is :func:`~anafor.textmodel.mention_quoted`); recency
    marks the survivors of the nearest populated sentence; first_np asks
    whether the candidate starts at its sentence's first non-punctuation
    token; repetition requires every member base to occur
    at least twice in the search window, replacement tokens included;
    punctuation asks whether the token after the candidate's anchor is a
    comma; zero_antecedent_history asks whether a zero pronoun's candidate
    names are in ``history``.  The text, window counts and first phrase
    tokens are ``window``'s, the index advanced to the pronoun, so a survivor
    outside it gets first_np False and base counts of 0.  A window at
    another token is a ValueError.
    """
    if window.end != pronoun.position:
        raise ValueError(f"the window is at token {window.end}, not at the pronoun's "
                         f"token {pronoun.position}")
    if not survivors:
        return []
    doc = window.text
    surfaces, quoted, pronoun_quoted = doc.surfaces, doc.quoted, mention_quoted(doc, pronoun)
    nearest_sentence = max(map(_sentence_index, survivors))
    bases, first_phrase = window.bases, window.first_phrase
    zero = not pronoun.surface
    followed = len(surfaces) - 1  # an anchor left of this has a token after it
    vectors = []
    for candidate in survivors:
        members, _, sentence = candidate
        anchor = members[-1].token_index
        if len(members) == 1:
            (name,) = members
            nominative, predicate = name.nominative, name.copular_suffix
            repetition = bases.get(name.base, 0) >= 2
        else:
            nominative = all(map(_nominative, members))
            predicate = any(map(_copular, members))
            repetition = min(map(bases.get, map(_base, members), repeat(0))) >= 2
        vectors.append(tuple.__new__(PreferenceVector, (
            pronoun_quoted == quoted[anchor],
            sentence == nearest_sentence,
            nominative,
            members[0].token_index == first_phrase.get(sentence),
            predicate,
            repetition,
            anchor < followed and surfaces[anchor + 1] == ",",
            zero and candidate.base_names in history,
        )))
    return vectors


def feature_vector(
    pronoun: PronounMention,
    candidate: Candidate,
    survivors: Iterable[Candidate],
    history: AbstractSet[frozenset[str]],
    window: NameIndex,
) -> PreferenceVector:
    """The :func:`feature_vectors` entry of one candidate, which must be
    one of ``survivors``."""
    survivors = list(survivors)
    return feature_vectors(pronoun, survivors, history, window)[survivors.index(candidate)]
