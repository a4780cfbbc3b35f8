"""Core document model: tokens, sentences and pronoun mentions.

A :class:`Document` holds its tokens as parallel columns: the surfaces,
the sentence of each token and whether it stands between quote marks.  A
token's index is its offset, a sentence is a run of one sentence number,
and anything else, such as a comma after a token, is read off neighbours.
``assemble_document`` builds every Document the package returns, parsed or
paraphrased, from its surfaces and sentence numbers: one join and one split
check the surfaces, the quote marks' pairing gives the flags and ``validate``
checks the rest.  A Document holds tuples and is immutable, save the resolver
walk's working text, which holds lists grown and spliced in place.

``doc.tokens`` and ``doc.sentences`` build :class:`Token` and
:class:`Sentence` records for callers that want them, on first read for a
Document over tuples, which keeps them, and on each read for the walk's
working text, which grows; parse and the walk read only the columns.
Records are ``NamedTuple``s, as
are names, candidates, vectors, pronoun forms and search scopes: a tuple
costs a third of a frozen dataclass, and acts as one (``SearchScope(3) ==
(3,)``).  ``Token``, ``SearchScope`` and ``_replace`` check fields; their
``_make`` and ``tuple.__new__`` (which builds names, candidates and
vectors) do not.  A dataclass stays where one serves: callers
copy ``Document``, ``PronounMention``, ``Lexicon`` and the resolver's
records by ``dataclasses.replace``, ``PreferenceWeights`` keeps ``scores``
out of equality, and a tuple's pickling would read ``NameDictionary.__iter__``.
``PronounMention`` and ``Resolution``, built per pronoun, fill their fields in
one ``__dict__`` update, twice as fast as one ``object.__setattr__`` each.

Tokenization is deliberately shallow: text splits on whitespace, the
punctuation marks ``, . ! ? … "`` (``PUNCTUATION_TOKENS``) become tokens of
their own, and apostrophes stay inside the token (``Ali'yi`` is one token)
because the apostrophe is the cue for proper-name case suffixes.  It runs
in C: ``str.replace`` pads each mark with spaces, and ``str.split`` cuts
the text where the regex class ``\\s`` would.
``decode_utf8`` turns the bytes of every input file, or of stdin, into text;
``read_data_file`` and ``data_lines`` read the gazetteer, weights and lexicon.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import sub
from typing import Iterable, Iterator, NamedTuple, Sequence

QUOTE = '"'
SENTENCE_TERMINATORS = frozenset({".", "!", "?", "…"})
PUNCTUATION_TOKENS = SENTENCE_TERMINATORS | {",", QUOTE}
_BREAKS = SENTENCE_TERMINATORS | {QUOTE}
_PADDED = [(mark, f" {mark} ") for mark in PUNCTUATION_TOKENS]


class PronounKind(enum.Enum):
    PERSONAL = "pers"
    REFLEXIVE = "refl"


class Number(enum.Enum):
    SINGULAR = "sg"
    PLURAL = "pl"


class Overtness(enum.Enum):
    OVERT = "overt"
    ZERO = "zero"


class _TokenFields(NamedTuple):
    surface: str
    index: int
    sentence_index: int
    quoted: bool = False


def check_surfaces(surfaces: Sequence[str]) -> None:
    """Raise a ValueError naming the first surface that is empty or holds
    whitespace; none is exactly when none is empty and their join holds none."""
    if surfaces and (not all(surfaces) or (joined := "".join(surfaces)).split() != [joined]):
        bad = next(surface for surface in surfaces if surface.split() != [surface])
        raise ValueError(f"token surface must be non-empty and whitespace-free: {bad!r}")


class Token(_TokenFields):
    """A token; the constructor and ``_replace`` check its surface,
    ``Token._make`` does not."""

    __slots__ = ()

    def __new__(cls, surface: str, index: int, sentence_index: int, quoted: bool = False):
        check_surfaces([surface])
        return tuple.__new__(cls, (surface, index, sentence_index, quoted))

    def _replace(self, **changes) -> Token:
        return Token(*super()._replace(**changes))


class Sentence(NamedTuple):
    first: int  # token indices, inclusive
    last: int


@dataclass(frozen=True)
class PronounMention:
    """One overt or zero pronoun occurrence.

    ``surface`` is the pronoun token's text for an overt mention and empty for
    a zero mention: an empty surface is what makes a mention zero.
    ``position`` is the index of the pronoun token itself for overt
    mentions; for zero mentions it is the index of the token the zero
    marker precedes.
    """

    id: int
    kind: PronounKind
    number: Number
    position: int
    surface: str = ""
    gold_antecedent: frozenset[str] | None = None

    def __init__(
        self, id: int, kind: PronounKind, number: Number, position: int,
        surface: str = "", gold_antecedent: frozenset[str] | None = None,
    ) -> None:
        if gold_antecedent is not None and not gold_antecedent:
            raise ValueError("gold antecedent, when present, must be non-empty")
        self.__dict__.update(id=id, kind=kind, number=number, position=position,
                             surface=surface, gold_antecedent=gold_antecedent)

    @property
    def overtness(self) -> Overtness:
        return Overtness.OVERT if self.surface else Overtness.ZERO


class _kept_if_fixed(cached_property):
    """A ``cached_property`` that a Document over lists, which grows, builds on each read."""

    def __get__(self, doc, owner=None):
        if doc is not None and isinstance(doc.surfaces, list):
            return self.func(doc)
        return super().__get__(doc, owner)


@dataclass(frozen=True)
class Document:
    """Token ``i`` is ``surfaces[i]``, in sentence ``sentence_of[i]``, quoted if
    ``quoted[i]``.  Sentence numbers start at 0 and step by 0 or 1 per token."""

    surfaces: tuple[str, ...]
    sentence_of: tuple[int, ...]
    quoted: tuple[bool, ...]
    pronouns: tuple[PronounMention, ...]

    @_kept_if_fixed
    def tokens(self) -> tuple[Token, ...]:
        """The columns as :class:`Token` records, built on first read."""
        columns = self.surfaces, range(len(self.surfaces)), self.sentence_of, self.quoted
        return tuple(map(Token._make, zip(*columns)))

    @_kept_if_fixed
    def sentences(self) -> tuple[Sentence, ...]:
        """Each sentence's first and last token, read off ``sentence_of`` on first read."""
        column = self.sentence_of
        bounds = [bisect_left(column, k) for k in range(column[-1] + 2 if column else 0)]
        return tuple(Sentence(first, end - 1) for first, end in zip(bounds, bounds[1:]))

    def sentence_index_of(self, token_index: int) -> int:
        if not 0 <= token_index < len(self.sentence_of):
            raise IndexError(f"token index out of range: {token_index}")
        return self.sentence_of[token_index]

    def validate(self) -> None:
        """Check the structural invariants; raise ValueError on violation."""
        n, column = len(self.surfaces), self.sentence_of
        if len(column) != n or len(self.quoted) != n:
            raise ValueError("token columns differ in length")
        if n and column[0] != 0:
            raise ValueError(f"token 0 is in sentence {column[0]}, not sentence 0")
        if not set(map(sub, column[1:], column)) <= {0, 1}:
            i = next(i for i in range(1, n) if column[i] - column[i - 1] not in (0, 1))
            raise ValueError(f"token {i} is in sentence {column[i]}, after {column[i - 1]}")
        seen_ids, last_position = set(), -1
        for mention in self.pronouns:
            if mention.id in seen_ids:
                raise ValueError(f"duplicate pronoun id {mention.id}")
            seen_ids.add(mention.id)
            if not 0 <= mention.position < n:
                raise ValueError(f"pronoun {mention.id} position out of range")
            if mention.position < last_position:
                raise ValueError("pronouns are not ordered by position")
            last_position = mention.position
            if mention.surface and self.surfaces[mention.position] != mention.surface:
                raise ValueError(f"pronoun {mention.id} surface does not match its token")


def mention_quoted(doc: Document, mention: PronounMention) -> bool:
    """Whether ``mention`` stands between quote marks: its token's flag,
    save for a zero before a quote mark, whose flag is always False.  Such
    a zero is quoted when a quote is open left of the mark: the flag of the
    nearest non-quote token to the left, flipped by each quote mark between."""
    surfaces, quoted, position = doc.surfaces, doc.quoted, mention.position
    if mention.surface or surfaces[position] != QUOTE:
        return quoted[position]
    i = position - 1
    while i >= 0 and surfaces[i] == QUOTE:
        i -= 1
    return (i >= 0 and quoted[i]) != ((position - 1 - i) % 2 == 1)


def decode_utf8(data: bytes, name, bom: bool = False) -> str:
    """Decode the bytes read from ``name`` (``-`` for stdin) as UTF-8.

    Line ends are translated as a file opened in text mode translates
    them, and ``bom`` drops a leading byte order mark.  Undecodable bytes
    raise a ValueError that names the source.
    """
    try:
        text = data.decode("utf-8-sig" if bom else "utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name}: not valid UTF-8 ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_data_file(path, parse=str):
    """``parse`` of a data file's text, UTF-8 with one leading byte order mark
    dropped; a ValueError that ``parse`` raises gets ``path`` in front."""
    with open(path, "rb") as handle:
        text = decode_utf8(handle.read(), path, bom=True)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line's 1-based number and its text before any ``#``, stripped, unless blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def split_tokens(text: str) -> list[str]:
    """Split plain text into token surfaces; punctuation marks stand alone."""
    for mark, padded in _PADDED:
        text = text.replace(mark, padded)
    return text.split()


def sentence_numbers(surfaces: Sequence[str]) -> list[int]:
    """The sentence number of each token in a token stream, from 0.

    A sentence ends after a run of terminator tokens; a closing double
    quote immediately after the run belongs to the ending sentence.  Only
    the terminators and quote marks are visited.
    """
    column: list[int] = []
    n, sentence, quotes_seen = len(surfaces), 0, 0
    for i in compress(range(n), map(_BREAKS.__contains__, surfaces)):
        if i < len(column):  # inside the run and closing quote that ended a sentence
            continue
        if surfaces[i] == QUOTE:
            quotes_seen += 1
            continue
        end = i + 1
        while end < n and surfaces[end] in SENTENCE_TERMINATORS:
            end += 1
        if end < n and surfaces[end] == QUOTE and quotes_seen % 2 == 1:
            quotes_seen += 1
            end += 1
        column += [sentence] * (end - len(column))
        sentence += 1
    return column + [sentence] * (n - len(column))


def _quoted_flags(surfaces: Sequence[str], sentence_of: Sequence[int]) -> list[bool]:
    """Quote characters pair up left to right; tokens strictly between an
    opening quote and its partner are quoted.  An unpaired last quote opens
    a span that ends with its own sentence.  Only the quotes are visited."""
    flags, quotes, at = [False] * len(surfaces), [], -1
    with suppress(ValueError):  # raised past the last quote
        while True:
            at = surfaces.index(QUOTE, at + 1)
            quotes.append(at)
    if len(quotes) % 2:
        quotes.append(bisect_right(sentence_of, sentence_of[quotes[-1]], quotes[-1]))
    for opening, closing in zip(quotes[::2], quotes[1::2]):
        flags[opening + 1:closing] = [True] * (closing - opening - 1)
    return flags


def assemble_document(
    surfaces: Sequence[str], sentence_of: Sequence[int], pronouns: Iterable[PronounMention] = (),
) -> Document:
    """Build a Document from its surface and sentence columns and its pronoun
    mentions, sorted by position (stably); ``validate`` checks the result."""
    if len(sentence_of) != len(surfaces):
        raise ValueError("token columns differ in length")
    check_surfaces(surfaces)
    quoted = _quoted_flags(surfaces, sentence_of)
    ordered = tuple(sorted(pronouns, key=lambda m: m.position))
    doc = Document(tuple(surfaces), tuple(sentence_of), tuple(quoted), ordered)
    doc.validate()
    return doc
