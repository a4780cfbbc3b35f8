"""Candidate construction and the three hard constraints.

For each pronoun the search window covers its own sentence (tokens strictly
left of the pronoun only, so no cataphora) plus a configurable number of
preceding sentences.  Gazetteer matches become simple candidates; adjacent
names linked by a single ``ve``/``ile`` token merge into one compound
candidate while the members stay available as simple candidates too.  Set
generation builds one plural candidate per sentence out of its distinct
names, and is meant to be invoked only when a plural pronoun finds no
plural candidate.

A :class:`NameIndex` is the package's one reader of a pronoun's window:
it is built over one text at one scope, and reads only those.
``constrained_candidates`` and ``feature_vectors`` take the window, an
index advanced to the pronoun, and read the text off it.
``extract_candidates`` and ``generate_sets`` read a new index of their
own text, gazetteer, scope and lexicon.  The index reads the token columns,
builds each candidate once and keeps each number's candidates apart, so
the constraints take a slice of one list, never a filter.  It keeps its
window in plain dicts and lists, and reads enum members off module
constants and a name's suffix flags off the lexicon's table.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import defaultdict
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .corpus import NameDictionary
from .morphology import Lexicon, NameOccurrence, _split_apostrophe, default_lexicon, turkish_lower
# Unused here, but perfbench/tracing.py patches it as an attribute of this module.
from .morphology import match_name  # noqa: F401
from .textmodel import (
    PUNCTUATION_TOKENS, Document, Number, PronounKind, PronounMention, WorkingText,
)

LINKER_SURFACES = frozenset({"ve", "ile"})
_base, _sentence_index = map(attrgetter, ("base", "sentence_index"))


class CandidateKind(enum.Enum):
    SIMPLE = "simple"
    COMPOUND = "compound"
    GENERATED_SET = "set"


_SIMPLE, _COMPOUND = CandidateKind.SIMPLE, CandidateKind.COMPOUND
_SINGULAR, _PLURAL, _REFLEXIVE = Number.SINGULAR, Number.PLURAL, PronounKind.REFLEXIVE


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
        return _SINGULAR if self.kind is _SIMPLE and not self.members[0].plural_suffix else _PLURAL

    @property
    def base_names(self) -> frozenset[str]:
        return frozenset(map(_base, self.members))


class SearchScope(NamedTuple("SearchScope", [("max_back_sentences", int)])):
    __slots__ = ()

    def __new__(cls, max_back_sentences: int = 3):
        if max_back_sentences < 0:
            raise ValueError("scope must be non-negative")
        return tuple.__new__(cls, (max_back_sentences,))

    def _replace(self, **changes) -> SearchScope:
        return SearchScope(*super()._replace(**changes))


class NameIndex:
    """A pronoun's window: its candidates of each number in ``(anchor,
    size)`` order, the counts of its gazetteer bases in a plain dict, and
    each window sentence's first non-punctuation token read so far.  A name
    makes a simple candidate, plural when its suffix is.  A compound's names
    are two tokens apart, so one run per index parity is open: a name
    extends it when it ends two tokens left, in the name's sentence, behind
    a single ``ve``/``ile``.  A run grows a list of members; its compound,
    always plural, is built once a name that does not extend it arrives or
    :meth:`advance` returns, and again if it grows.  A document walk never
    changes a token left of the pronoun it visits, nor starts a window left
    of the previous one, so :meth:`advance` reads each token once, splits
    only one with an apostrophe, reads a gazetteer name's flags off the
    lexicon's table, analysing a surface only at its first hit, and tests
    punctuation only until its sentence has a first phrase token.  A
    window's first sentence is the pronoun's sentence number less the
    scope; when that moves right, the sentences it passes leave whole,
    with their first phrase tokens and counted bases.  Only a token whose
    base is a gazetteer entry is counted, a pronoun form spelled like a
    name too; a base whose count falls to zero leaves the counts at once.
    The index reads one ``text`` at one scope, both fixed when it is built;
    ``end`` is the token :meth:`advance` last stopped at, the pronoun's;
    advancing to a token left of it is a ValueError."""

    def __init__(self, text: Document | WorkingText, dictionary: NameDictionary,
                 scope: SearchScope, lexicon: Lexicon | None) -> None:
        self.text, self.max_back_sentences = text, scope.max_back_sentences
        self.dictionary, self.analyses = dictionary, (lexicon or default_lexicon()).analyses
        self.singular, self.plural = [], []  # the candidates of each number
        self.bases: dict[str, int] = {}  # the positive counts
        self.first_phrase: dict[int, int] = {}  # window sentence -> token, in sentence order
        self._runs: list[list[NameOccurrence]] = [[], []]  # the open run of each parity
        self._named: defaultdict[int, list[str]] = defaultdict(list)  # sentence -> counted bases
        self._first = self.end = 0  # the window's first sentence; tokens before end are read

    def advance(self, pronoun: PronounMention) -> NameIndex:
        doc = self.text
        if not 0 <= pronoun.position < len(doc.sentence_of):
            raise IndexError(f"token index out of range: {pronoun.position}")
        first = doc.sentence_of[pronoun.position] - self.max_back_sentences
        if pronoun.position < self.end:
            raise ValueError(f"the index is at token {self.end}, right of the pronoun's "
                             f"token {pronoun.position}")
        singular, plural, bases, runs = self.singular, self.plural, self.bases, self._runs
        sentence_of, named = doc.sentence_of, self._named
        if first > self._first:  # the window moves right
            for kept in singular, plural:
                del kept[:bisect_left(kept, first, key=_sentence_index)]
            for old in range(self._first, first):  # the sentences that leave, with their names
                self.first_phrase.pop(old, None)
                for base in named.pop(old, ()):
                    bases[base] -= 1
                    if not bases[base]:
                        del bases[base]
            self._first = first
            self.end = bisect_left(sentence_of, first, self.end, pronoun.position)
        entries, analyses, first_phrase = self.dictionary.entries, self.analyses, self.first_phrase
        surfaces, pending = doc.surfaces, None  # pending: the run whose compound is not built yet
        for i in range(self.end, pronoun.position):
            surface, sentence = surfaces[i], sentence_of[i]
            if sentence not in first_phrase and surface not in PUNCTUATION_TOKENS:
                first_phrase[sentence] = i
            base = surface.partition("'")[0]  # cut in C, unless a ’ comes first
            if "’" in base:
                base = _split_apostrophe(surface)[0]
            if base not in entries:
                continue
            named[sentence].append(base)
            bases[base] = bases.get(base, 0) + 1
            flags = analyses[surface]
            if not (base and flags):  # a pronoun form
                continue
            occ = tuple.__new__(NameOccurrence, (base, i, *flags))
            run = runs[i % 2]
            if not (run and run[-1].token_index == i - 2 and sentence_of[i - 2] == sentence
                    and turkish_lower(surfaces[i - 1]) in LINKER_SURFACES):
                run = runs[i % 2] = []
            if run is not pending:
                if pending:
                    plural.append(_compound(pending, sentence_of))
                if len(run) > 1:  # built before it grew: only i - 1 follows it
                    del plural[plural.index(_compound(run, sentence_of), -4)]
                pending = run or None
            run.append(occ)
            # Built unchecked: one member makes a SIMPLE candidate.
            simple = tuple.__new__(Candidate, ((occ,), _SIMPLE, sentence))
            (plural if occ.plural_suffix else singular).append(simple)
        if pending:
            plural.append(_compound(pending, sentence_of))
        self.end = pronoun.position
        return self


def _compound(run: list[NameOccurrence], sentence_of: Sequence[int]) -> Candidate:
    # A run's compound, built unchecked: only a run of two or more members is built.
    return tuple.__new__(Candidate, (tuple(run), _COMPOUND, sentence_of[run[0].token_index]))


def extract_candidates(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> list[Candidate]:
    """Simple and compound candidates for one pronoun, oldest anchor first
    and the simple before the compound at one anchor: a new index's, merged."""
    index = NameIndex(doc, dictionary, scope, lexicon).advance(pronoun)
    return sorted(index.singular + index.plural, key=lambda c: (c.anchor, len(c.members)))


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
    candidates = extract_candidates(doc, pronoun, dictionary, scope, lexicon)
    return _sets(c for c in candidates if c.kind is _SIMPLE)


def _sets(simple: Iterable[Candidate]) -> list[Candidate]:
    # Simple candidates in token order give sentences and first occurrences in order.
    per_sentence: dict[int, dict[str, NameOccurrence]] = {}
    for (occ,), _, sentence in simple:
        per_sentence.setdefault(sentence, {}).setdefault(occ.base, occ)
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


def constrained_candidates(pronoun: PronounMention, window: NameIndex) -> list[Candidate]:
    """Full candidate pipeline, read off ``window``, the index advanced to
    the pronoun, and its text: the candidates of the pronoun's number, or
    the sets of its singular names when a plural pronoun finds none; of
    these a reflexive keeps the last, the nearest, and a personal pronoun
    the prefix before its own sentence.  So the survivors come in
    ``(anchor, size)`` order, or the sets' sentence order.  A window at
    another token is a ValueError."""
    if window.end != pronoun.position:
        raise ValueError(f"the window is at token {window.end}, not at the pronoun's "
                         f"token {pronoun.position}")
    kept = window.plural if pronoun.number is _PLURAL else window.singular
    if not kept and pronoun.number is _PLURAL:  # every name in the window is singular
        kept = _sets(window.singular)
    if pronoun.kind is _REFLEXIVE:
        return kept[-1:]
    own = window.text.sentence_of[pronoun.position]
    return kept[:bisect_left(kept, own, key=_sentence_index)]
