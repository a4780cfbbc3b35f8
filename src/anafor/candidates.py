"""Candidate construction and the three hard constraints.

For each pronoun the search window covers its own sentence (tokens strictly
left of the pronoun only, so no cataphora) plus a configurable number of
preceding sentences.  Gazetteer matches become simple candidates; adjacent
names linked by a single ``ve``/``ile`` token merge into one compound
candidate while the members stay available as simple candidates too.  Set
generation builds one plural candidate per sentence out of its distinct
names, and is meant to be invoked only when a plural pronoun finds no
plural candidate.

A :class:`NameIndex` is the one reader of a pronoun's window, for
extraction and scoring alike: the walk's text carries one, or else each
reads the window into a new one, of the gazetteer's or the survivors'
names.  Both read the token columns, where a token's index is its offset.
The index builds each candidate once, as its last name enters, and
extraction copies them.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .corpus import NameDictionary
from .morphology import (
    Lexicon, NameOccurrence, _split_apostrophe, match_name, name_occurrence, turkish_lower,
)
from .textmodel import PUNCTUATION_TOKENS, Document, Number, PronounKind, PronounMention

LINKER_SURFACES = frozenset({"ve", "ile"})


class CandidateKind(enum.Enum):
    SIMPLE = "simple"
    COMPOUND = "compound"
    GENERATED_SET = "set"


class _CandidateFields(NamedTuple):
    members: tuple[NameOccurrence, ...]
    kind: CandidateKind
    sentence_index: int


class Candidate(_CandidateFields):
    __slots__ = ()

    def __new__(
        cls, members: tuple[NameOccurrence, ...], kind: CandidateKind, sentence_index: int
    ):
        if not members:
            raise ValueError("candidate needs at least one member")
        if kind is CandidateKind.SIMPLE and len(members) != 1:
            raise ValueError("simple candidate must have exactly one member")
        if kind is not CandidateKind.SIMPLE and len(members) < 2:
            raise ValueError("compound/set candidate needs at least two members")
        return tuple.__new__(cls, (members, kind, sentence_index))

    def _replace(self, **changes) -> Candidate:
        return Candidate(*super()._replace(**changes))

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
    first_sentence = max(0, doc.sentence_index_of(pronoun.position) - scope.max_back_sentences)
    return bisect_left(doc.sentence_of, first_sentence, 0, pronoun.position)


def scan_name_occurrences(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[NameOccurrence]:
    """All gazetteer matches in the pronoun's search window, left to right."""
    occurrences, tokens = [], doc.tokens  # a WalkText builds its tokens on each read
    for i in range(_window_start(doc, pronoun, scope), pronoun.position):
        match = match_name(tokens[i], dictionary, lexicon)
        if match is not None:
            occurrences.append(match)
    return occurrences


class NameIndex:
    """A pronoun's window: its candidates in ``(anchor, size)`` order, the
    counts of its gazetteer bases, and each sentence's first
    non-punctuation token read so far.  Each name makes a simple candidate.
    A compound's names are two tokens apart, so one run per index parity
    is open: a name extends it when it ends two tokens left, in the name's
    sentence, behind a single ``ve``/``ile``, and the longer compound
    replaces the shorter.  A document walk never changes a token left of
    the pronoun it visits, nor starts a window left of the previous one
    (and a window starts on a sentence, so it drops whole runs), so
    :meth:`advance` reads each token once, analyses the suffix of the
    gazetteer names only, and tests it against the punctuation marks only
    until its sentence has a first phrase token.  Only a token whose base
    is a gazetteer entry is counted, a pronoun form spelled like a name
    too; a base whose count falls to zero leaves the counts."""

    def __init__(self, dictionary: NameDictionary, lexicon: Lexicon | None) -> None:
        self.dictionary, self.lexicon = dictionary, lexicon
        self.candidates: list[Candidate] = []
        self.bases: Counter[str] = Counter()
        self.first_phrase: dict[int, int] = {}  # sentence -> token; grows as the text does
        self._runs: list[Candidate | None] = [None, None]  # the open run of each parity
        self._hits, self._hit_bases = [], []  # the counted tokens and their bases, in token order
        self._start = self._end = 0  # the window start; tokens before _end are matched or skipped

    def advance(self, doc: Document, pronoun: PronounMention, scope: SearchScope) -> NameIndex:
        start = _window_start(doc, pronoun, scope)
        candidates, runs, bases = self.candidates, self._runs, self.bases
        if start > self._start:
            drop = bisect_left(candidates, start, key=attrgetter("anchor"))
            gone = bisect_left(self._hits, start)
            for base in self._hit_bases[:gone]:
                bases[base] -= 1
                if not bases[base]:
                    del bases[base]
            del candidates[:drop], self._hits[:gone], self._hit_bases[:gone]
            self._start, self._end = start, max(start, self._end)
        entries, lexicon, first_phrase = self.dictionary.entries, self.lexicon, self.first_phrase
        surfaces, sentence_of, hits, new = doc.surfaces, doc.sentence_of, self._hits, []
        for i in range(self._end, pronoun.position):
            surface, sentence = surfaces[i], sentence_of[i]
            if sentence not in first_phrase and surface not in PUNCTUATION_TOKENS:
                first_phrase[sentence] = i
            base, suffix = _split_apostrophe(surface)
            if base not in entries:
                continue
            hits.append(i)
            new.append(base)
            occ = base and name_occurrence(surface, i, base, suffix, lexicon)
            if not occ:  # a pronoun form
                continue
            # Built unchecked: one member makes a SIMPLE candidate, two or more a COMPOUND.
            candidates.append(tuple.__new__(Candidate, ((occ,), CandidateKind.SIMPLE, sentence)))
            run = runs[i % 2]
            if run and run.anchor == i - 2 and sentence_of[i - 2] == sentence and (
                    turkish_lower(surfaces[i - 1]) in LINKER_SURFACES):
                if run.kind is CandidateKind.COMPOUND:
                    # Only the candidates anchored at i - 1 and i follow it.
                    del candidates[candidates.index(run, -4)]
                compound = (run.members + (occ,), CandidateKind.COMPOUND, sentence)
                candidates.append(tuple.__new__(Candidate, compound))
            runs[i % 2] = candidates[-1]
        bases.update(new)
        self._hit_bases += new
        self._end = pronoun.position
        return self


@dataclass(frozen=True)
class WalkText(Document):
    """The working text of a document walk, with the index of its names."""
    names: NameIndex
    tokens = property(Document.tokens.func)  # built on each read: the text grows
    sentences = property(Document.sentences.func)


def window_index(
    doc: Document,
    pronoun: PronounMention,
    scope: SearchScope,
    dictionary: NameDictionary,
    lexicon: Lexicon | None,
) -> NameIndex:
    """The walk's own index, advanced to the pronoun at the walk's scope,
    or else a new one of the window at ``scope`` with ``dictionary``'s names."""
    if isinstance(doc, WalkText):
        return doc.names
    return NameIndex(dictionary, lexicon).advance(doc, pronoun, scope)


def extract_candidates(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[Candidate]:
    """Simple and compound candidates for one pronoun, oldest anchor first
    and the simple before the compound at one anchor: the window index's."""
    return window_index(doc, pronoun, scope, dictionary, lexicon).candidates.copy()


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
    # The window's names come in token order, so sentences and first occurrences do.
    per_sentence: dict[int, dict[str, NameOccurrence]] = {}
    for candidate in window_index(doc, pronoun, scope, dictionary, lexicon).candidates:
        if candidate.kind is CandidateKind.SIMPLE:
            (occ,) = candidate.members
            per_sentence.setdefault(candidate.sentence_index, {}).setdefault(occ.base, occ)
    return [
        Candidate(tuple(members.values()), CandidateKind.GENERATED_SET, sentence)
        for sentence, members in per_sentence.items()
        if len(members) >= 2
    ]


def apply_constraints(
    doc: Document,
    pronoun: PronounMention,
    candidates: list[Candidate],
) -> list[Candidate]:
    """Filter candidates through number agreement plus the kind-specific rule.

    Number agreement runs first.  Personal pronouns then lose every
    candidate from their own sentence; reflexive pronouns keep only the
    nearest surviving candidate below the pronoun: the greatest by
    ``(anchor, size)``, whatever the input order.  The survivors keep the
    order of ``candidates``, and the pipeline is idempotent.
    """
    survivors = [c for c in candidates if c.number == pronoun.number]
    if pronoun.kind is PronounKind.PERSONAL:
        pronoun_sentence = doc.sentence_index_of(pronoun.position)
        survivors = [c for c in survivors if c.sentence_index != pronoun_sentence]
    elif survivors:
        survivors = [max(survivors, key=lambda c: (c.anchor, len(c.members)))]
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
    extracted candidates contain no plural form.  The survivors come in
    ``(anchor, size)`` order unsorted: extraction gives that order, and
    number agreement leaves a pronoun that generated sets only the sets,
    one per sentence in sentence order."""
    candidates = extract_candidates(doc, pronoun, dictionary, scope, lexicon)
    if pronoun.number is Number.PLURAL and not any(
        c.number is Number.PLURAL for c in candidates
    ):
        candidates += generate_sets(doc, pronoun, dictionary, scope, lexicon)
    return apply_constraints(doc, pronoun, candidates)
