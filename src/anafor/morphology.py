"""Suffix-based morphological heuristics, no parser required.

Two jobs live here: classifying pronoun surface forms against a closed
inflection lexicon, and analysing proper-name tokens (gazetteer match plus
case / plurality / copula flags read off the post-apostrophe suffix).

Both the pronoun lexicon and the suffix tables ship as an editable data
file (``data/lexicon.txt``); see :meth:`Lexicon.from_text` for the format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .textmodel import Number, PronounKind, data_lines, read_data_file

if TYPE_CHECKING:
    from .corpus import NameDictionary
    from .textmodel import Token

APOSTROPHES = ("'", "’")

_SECTION_RE = re.compile(r"\[(pronoun|suffix)\s+([^\]]+)\]\s*$")


def turkish_lower(text: str) -> str:
    """Lowercase with Turkish dotted/dotless i handling (İ->i, I->ı)."""
    return text.replace("İ", "i").replace("I", "ı").lower()


def turkish_upper(text: str) -> str:
    """Uppercase with Turkish dotted/dotless i handling (i->İ, ı->I)."""
    return text.replace("i", "İ").replace("ı", "I").upper()


PronounForm = NamedTuple("PronounForm", [("lemma", str), ("kind", PronounKind), ("number", Number)])


class NameOccurrence(NamedTuple):
    """A gazetteer name matched at one token position."""

    base: str
    token_index: int
    nominative: bool  # neither a case marker nor a copula follows the name
    plural_suffix: bool
    copular_suffix: bool


@dataclass(frozen=True)
class Lexicon:
    """Closed pronoun inflection lexicon plus name-suffix tables."""

    pronoun_forms: Mapping[str, PronounForm]  # keys are turkish_lower surfaces
    # Longest first, so the first form that matches is the longest match.
    plural_prefixes: tuple[str, ...]
    copula_suffixes: tuple[str, ...]
    # name_occurrence's suffix flags per name surface, None for a pronoun form.
    analyses: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_text(cls, text: str) -> "Lexicon":
        """Parse the lexicon file format.

        Sections are ``[pronoun LEMMA KIND NUMBER]`` (KIND pers|refl,
        NUMBER sg|pl) and ``[suffix case|plural|copula]`` (case: required and
        checked, never consulted); each section lists one form per line.
        """
        forms: dict[str, PronounForm] = {}
        tables: dict[str, set[str]] = {"case": set(), "plural": set(), "copula": set()}
        current: PronounForm | str | None = None
        for lineno, line in data_lines(text):
            match = _SECTION_RE.match(line)
            if match:
                section_kind, payload = match.group(1), match.group(2).split()
                if section_kind == "pronoun":
                    if len(payload) != 3:
                        raise ValueError(f"lexicon line {lineno}: bad pronoun section header")
                    lemma, kind_value, number_value = payload
                    try:
                        current = PronounForm(
                            lemma=lemma,
                            kind=PronounKind(kind_value),
                            number=Number(number_value),
                        )
                    except ValueError as exc:
                        raise ValueError(f"lexicon line {lineno}: {exc}") from None
                else:
                    if len(payload) != 1 or payload[0] not in tables:
                        raise ValueError(f"lexicon line {lineno}: bad suffix section header")
                    current = payload[0]
                continue
            if current is None:
                raise ValueError(f"lexicon line {lineno}: entry outside any section")
            if isinstance(current, PronounForm):
                key = turkish_lower(line)
                if key in forms:
                    raise ValueError(f"lexicon line {lineno}: duplicate pronoun form {line!r}")
                forms[key] = current
            else:
                tables[current].add(turkish_lower(line))
        if not forms:
            raise ValueError("lexicon defines no pronoun forms")
        for name, table in tables.items():
            if not table:
                raise ValueError(f"lexicon defines no [suffix {name}] entries")
        return cls(
            pronoun_forms=dict(forms),
            plural_prefixes=tuple(sorted(tables["plural"], key=len, reverse=True)),
            copula_suffixes=tuple(sorted(tables["copula"], key=len, reverse=True)),
        )

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        return read_data_file(path, cls.from_text)


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    text = resources.files(__package__).joinpath("data/lexicon.txt").read_text("utf-8")
    return Lexicon.from_text(text)


def classify_pronoun(surface: str, lexicon: Lexicon | None = None) -> PronounForm | None:
    """Match a surface form against the pronoun lexicon; None if no match.

    Matching is case-insensitive under Turkish casing, so sentence-initial
    forms like ``Onu`` classify the same as ``onu``.
    """
    lexicon = lexicon or default_lexicon()
    return lexicon.pronoun_forms.get(turkish_lower(surface))


def _split_apostrophe(surface: str) -> tuple[str, str]:
    """Cut at the first apostrophe of either kind: (base, suffix)."""
    base, _, suffix = surface.partition("'")
    if "’" in base:  # a ’ comes first
        base, _, suffix = surface.partition("’")
    return base, suffix


def _analyze_suffix(suffix: str, lexicon: Lexicon) -> tuple[bool, bool, bool]:
    """Classify a post-apostrophe suffix into (nominative, plural, copular).

    Longest-match: an optional plural prefix, then an optional copula in
    final position.  A name is nominative only when nothing else remains:
    any suffix left makes it oblique, so the case table is never consulted.
    """
    rest = turkish_lower(suffix)
    if not rest:
        return True, False, False
    plural = False
    for prefix in lexicon.plural_prefixes:
        if rest.startswith(prefix):
            plural = True
            rest = rest[len(prefix):]
            break
    copular = False
    for copula in lexicon.copula_suffixes:
        if rest.endswith(copula):
            copular = True
            rest = rest[:-len(copula)]
            break
    return not (copular or rest), plural, copular


def match_name(
    token: "Token",
    dictionary: "NameDictionary",
    lexicon: Lexicon | None = None,
) -> NameOccurrence | None:
    """Match a token against the name gazetteer; None if it is not a name.

    The base is the token surface up to the first apostrophe (or the whole
    token) and must equal a dictionary entry exactly, Turkish casing
    included.  Surfaces in the pronoun lexicon never match, even when a
    same-spelled dictionary entry exists.
    """
    base, suffix = _split_apostrophe(token.surface)
    if not base or base not in dictionary:
        return None
    return name_occurrence(token.surface, token.index, base, suffix, lexicon)


def name_occurrence(
    surface: str,
    token_index: int,
    base: str,
    suffix: str,
    lexicon: Lexicon | None = None,
) -> NameOccurrence | None:
    """:func:`match_name` for ``surface``, token ``token_index``, split at its
    apostrophe into ``base``, a gazetteer entry, and ``suffix``.  Its
    analysis is kept on the lexicon, where the name index reads later hits."""
    lexicon = lexicon or default_lexicon()
    pronoun = turkish_lower(surface) in lexicon.pronoun_forms
    flags = lexicon.analyses[surface] = None if pronoun else _analyze_suffix(suffix, lexicon)
    return None if flags is None else tuple.__new__(NameOccurrence, (base, token_index, *flags))
