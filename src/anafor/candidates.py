"""Candidate construction and the three hard constraints.

For each pronoun the search window covers its own sentence (tokens strictly
left of the pronoun only, so no cataphora) plus a configurable number of
preceding sentences.  Gazetteer matches become simple candidates; adjacent
names linked by a single ``ve``/``ile`` token merge into one compound
candidate while the members stay available as simple candidates too.  Set
generation builds one plural candidate per sentence out of its distinct
names, and is meant to be invoked only when a plural pronoun finds no
plural candidate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .corpus import NameDictionary
from .morphology import Lexicon, NameOccurrence, match_name, turkish_lower
from .textmodel import Document, Number, PronounKind, PronounMention

LINKER_SURFACES = frozenset({"ve", "ile"})


class CandidateKind(enum.Enum):
    SIMPLE = "simple"
    COMPOUND = "compound"
    GENERATED_SET = "set"


@dataclass(frozen=True)
class Candidate:
    members: tuple[NameOccurrence, ...]
    kind: CandidateKind
    sentence_index: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("candidate needs at least one member")
        if self.kind is CandidateKind.SIMPLE and len(self.members) != 1:
            raise ValueError("simple candidate must have exactly one member")
        if self.kind is not CandidateKind.SIMPLE and len(self.members) < 2:
            raise ValueError("compound/set candidate needs at least two members")

    @property
    def anchor(self) -> int:
        """Token index of the last member, the recency anchor."""
        return self.members[-1].token_index

    @property
    def number(self) -> Number:
        if self.kind is CandidateKind.SIMPLE and not self.members[0].plural_suffix:
            return Number.SINGULAR
        return Number.PLURAL

    @property
    def base_names(self) -> frozenset[str]:
        return frozenset(member.base for member in self.members)


@dataclass(frozen=True)
class SearchScope:
    max_back_sentences: int = 3

    def __post_init__(self) -> None:
        if self.max_back_sentences < 0:
            raise ValueError("scope must be non-negative")


def _window_start(doc: Document, pronoun: PronounMention, scope: SearchScope) -> int:
    pronoun_sentence = doc.sentence_index_of(pronoun.position)
    first_sentence = max(0, pronoun_sentence - scope.max_back_sentences)
    return doc.sentences[first_sentence].first


def scan_name_occurrences(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[NameOccurrence]:
    """All gazetteer matches in the pronoun's search window, left to right."""
    occurrences = []
    for i in range(_window_start(doc, pronoun, scope), pronoun.position):
        match = match_name(doc.tokens[i], dictionary, lexicon)
        if match is not None:
            occurrences.append(match)
    return occurrences


def _compound_runs(doc: Document, occurrences: list[NameOccurrence]):
    # Maximal runs of names chained by single 've'/'ile' tokens:
    # A ve B ile C collapses into one compound of all three.  A run's
    # members are two tokens apart, so one run per index parity is open;
    # a linker token that is itself a name then opens a run of its own.
    runs: list[list[NameOccurrence]] = [[], []]
    for occ in occurrences:
        i = occ.token_index
        run = runs[i % 2]
        if run and run[-1].token_index == i - 2 and (
            turkish_lower(doc.tokens[i - 1].surface) in LINKER_SURFACES
        ):
            run.append(occ)
            continue
        if len(run) >= 2:
            yield run
        runs[i % 2] = [occ]
    yield from (run for run in runs if len(run) >= 2)


def extract_candidates(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[Candidate]:
    """Simple and compound candidates for one pronoun, oldest anchor first."""
    occurrences = scan_name_occurrences(doc, pronoun, dictionary, scope, lexicon)
    candidates = [
        Candidate((occ,), CandidateKind.SIMPLE, doc.sentence_index_of(occ.token_index))
        for occ in occurrences
    ]
    for run in _compound_runs(doc, occurrences):
        candidates.append(
            Candidate(
                members=tuple(run),
                kind=CandidateKind.COMPOUND,
                sentence_index=doc.sentence_index_of(run[-1].token_index),
            )
        )
    candidates.sort(key=lambda c: (c.anchor, len(c.members)))
    return candidates


def generate_sets(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[Candidate]:
    """One plural set candidate per window sentence with two or more names.

    Each distinct base contributes its first occurrence in the sentence;
    all of them join into a single set (no subset enumeration).
    """
    per_sentence: dict[int, dict[str, NameOccurrence]] = {}
    for occ in scan_name_occurrences(doc, pronoun, dictionary, scope, lexicon):
        sentence = doc.sentence_index_of(occ.token_index)
        per_sentence.setdefault(sentence, {}).setdefault(occ.base, occ)
    sets = []
    for sentence in sorted(per_sentence):
        members = sorted(per_sentence[sentence].values(), key=lambda o: o.token_index)
        if len(members) < 2:
            continue
        sets.append(
            Candidate(
                members=tuple(members),
                kind=CandidateKind.GENERATED_SET,
                sentence_index=sentence,
            )
        )
    return sets


def apply_constraints(
    doc: Document,
    pronoun: PronounMention,
    candidates: list[Candidate],
) -> list[Candidate]:
    """Filter candidates through number agreement plus the kind-specific rule.

    Number agreement runs first.  Personal pronouns then lose every
    candidate from their own sentence; reflexive pronouns keep only the
    nearest surviving candidate below the pronoun.  The result is ordered
    by ascending anchor (most recent last) and the pipeline is idempotent.
    """
    survivors = [c for c in candidates if c.number == pronoun.number]
    if pronoun.kind is PronounKind.PERSONAL:
        pronoun_sentence = doc.sentence_index_of(pronoun.position)
        survivors = [c for c in survivors if c.sentence_index != pronoun_sentence]
    elif survivors:
        nearest = max(survivors, key=lambda c: (c.anchor, len(c.members)))
        survivors = [nearest]
    survivors.sort(key=lambda c: (c.anchor, len(c.members)))
    return survivors


def constrained_candidates(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[Candidate]:
    """Full candidate pipeline: extraction, conditional set generation,
    constraints.  Set generation only kicks in for a plural pronoun whose
    extracted candidates contain no plural form."""
    candidates = extract_candidates(doc, pronoun, dictionary, scope, lexicon)
    if pronoun.number is Number.PLURAL and not any(
        c.number is Number.PLURAL for c in candidates
    ):
        candidates = candidates + generate_sets(doc, pronoun, dictionary, scope, lexicon)
    return apply_constraints(doc, pronoun, candidates)
