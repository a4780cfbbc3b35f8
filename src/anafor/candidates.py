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
The index builds each candidate once and keeps each number's candidates
apart, so the constraints take a slice of one list, never a filter.
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
    """A pronoun's window: its candidates of each number in ``(anchor,
    size)`` order, the counts of its gazetteer bases, and each window
    sentence's first non-punctuation token read so far.  A name makes a
    simple candidate, plural when its suffix is.  A compound's names are two
    tokens apart, so one run per index parity is open: a name extends it
    when it ends two tokens left, in the name's sentence, behind a single
    ``ve``/``ile``.  A run grows a list of members; its compound, always
    plural, is built once a name that does not extend it arrives or
    :meth:`advance` returns, and again if it grows.  A document walk never
    changes a token left of the pronoun it visits, nor starts a window left
    of the previous one (and a window starts on a sentence, so it drops
    whole sentences), so :meth:`advance` reads each token once, splits only
    one with an apostrophe, analyses the suffix of gazetteer names only, and
    tests punctuation only until its sentence has a first phrase token.  Only
    a token whose base is a gazetteer entry is counted, a pronoun form spelled
    like a name too; a base whose count falls to zero leaves the counts."""

    def __init__(self, dictionary: NameDictionary, lexicon: Lexicon | None) -> None:
        self.dictionary, self.lexicon = dictionary, lexicon
        self.singular, self.plural = [], []  # the candidates of each number
        self.bases: Counter[str] = Counter()
        self.first_phrase: dict[int, int] = {}  # window sentence -> token, in sentence order
        self._runs: list[list[NameOccurrence]] = [[], []]  # the open run of each parity
        self._hits, self._hit_bases = [], []  # the counted tokens and their bases, in token order
        self._start = self._end = 0  # the window start; tokens before _end are matched or skipped

    @property
    def candidates(self) -> list[Candidate]:
        """Both numbers' candidates, merged in ``(anchor, size)`` order."""
        return sorted(self.singular + self.plural, key=lambda c: (c.anchor, len(c.members)))

    def advance(self, doc: Document, pronoun: PronounMention, scope: SearchScope) -> NameIndex:
        start = _window_start(doc, pronoun, scope)
        singular, plural, runs, bases = self.singular, self.plural, self._runs, self.bases
        if start > self._start:
            first = doc.sentence_of[start]
            for kept in singular, plural:
                del kept[:bisect_left(kept, first, key=attrgetter("sentence_index"))]
            while self.first_phrase and (old := next(iter(self.first_phrase))) < first:
                del self.first_phrase[old]
            gone = bisect_left(self._hits, start)
            for base in self._hit_bases[:gone]:
                bases[base] -= 1
                if not bases[base]:
                    del bases[base]
            del self._hits[:gone], self._hit_bases[:gone]
            self._start, self._end = start, max(start, self._end)
        entries, lexicon, first_phrase = self.dictionary.entries, self.lexicon, self.first_phrase
        surfaces, sentence_of, hits, new = doc.surfaces, doc.sentence_of, self._hits, []
        pending = None  # the run whose compound is not built yet

        def compound(run: list[NameOccurrence]) -> tuple:  # its candidate's fields
            return tuple(run), CandidateKind.COMPOUND, sentence_of[run[0].token_index]

        for i in range(self._end, pronoun.position):
            surface, sentence = surfaces[i], sentence_of[i]
            if sentence not in first_phrase and surface not in PUNCTUATION_TOKENS:
                first_phrase[sentence] = i
            apostrophe = "'" in surface or "’" in surface
            base, suffix = _split_apostrophe(surface) if apostrophe else (surface, "")
            if base not in entries:
                continue
            hits.append(i)
            new.append(base)
            occ = base and name_occurrence(surface, i, base, suffix, lexicon)
            if not occ:  # a pronoun form
                continue
            run = runs[i % 2]
            if not (run and run[-1].token_index == i - 2 and sentence_of[i - 2] == sentence
                    and turkish_lower(surfaces[i - 1]) in LINKER_SURFACES):
                run = runs[i % 2] = []
            if run is not pending:
                if pending:
                    plural.append(tuple.__new__(Candidate, compound(pending)))
                if len(run) > 1:  # built before it grew: only i - 1 follows it
                    del plural[plural.index(compound(run), -4)]
                pending = run or None
            run.append(occ)
            # Built unchecked: one member makes a SIMPLE candidate.
            simple = tuple.__new__(Candidate, ((occ,), CandidateKind.SIMPLE, sentence))
            (plural if occ.plural_suffix else singular).append(simple)
        if pending:
            plural.append(tuple.__new__(Candidate, compound(pending)))
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
    and the simple before the compound at one anchor: the index's, merged."""
    return window_index(doc, pronoun, scope, dictionary, lexicon).candidates


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
    """Full candidate pipeline, read off the window's index: the
    candidates of the pronoun's number, or the sets when a plural pronoun
    finds none; of these a reflexive keeps the last, the nearest, and a
    personal pronoun the prefix before its own sentence.  So the survivors
    come in ``(anchor, size)`` order, or the sets' sentence order."""
    index = window_index(doc, pronoun, scope, dictionary, lexicon)
    kept = index.plural if pronoun.number is Number.PLURAL else index.singular
    if not kept and pronoun.number is Number.PLURAL:
        kept = generate_sets(doc, pronoun, dictionary, scope, lexicon)
    if pronoun.kind is PronounKind.REFLEXIVE:
        return kept[-1:]
    own = doc.sentence_of[pronoun.position]
    return kept[:bisect_left(kept, own, key=attrgetter("sentence_index"))]
