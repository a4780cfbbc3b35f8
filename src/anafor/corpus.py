"""Annotated corpus files and the proper-name gazetteer.

Corpus files are plain UTF-8 narrative text with inline pronoun tags:

    overt pronoun:  <pro id="3" ant="Ayşe">onu</pro>
    zero pronoun:   <zero id="4" kind="pers" num="sg" ant="Murat"/>

``ant`` is optional and holds the gold antecedent as semicolon-joined base
names (``ant="Ahmet;Fatma"`` for a plural link).  Overt tags carry no kind
or number attributes: both are derived from the surface form, and a surface
that is not a recognized pronoun form is a parse error.  A zero tag anchors
to the next token in the stream.  Proper names are never annotated; they
are found through the gazetteer.

The literal ``<`` character is reserved for tags and may not appear in the
running text.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator
import re

from .morphology import Lexicon, classify_pronoun, default_lexicon, turkish_lower, turkish_upper
from .textmodel import (
    Document,
    Number,
    Overtness,
    PronounKind,
    PronounMention,
    PUNCTUATION_TOKENS,
    QUOTE,
    sentence_spans,
    split_tokens,
    assemble_document,
    decode_utf8,
)

_PRO_OPEN_RE = re.compile(r"<pro\b([^<>]*)>")
_ZERO_RE = re.compile(r"<zero\b([^<>]*?)/>")
_ATTR_RE = re.compile(r'\s*([A-Za-z_]\w*)\s*=\s*"([^"]*)"')
_PRO_CLOSE = "</pro>"


class ParseError(ValueError):
    """Malformed corpus input, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _checked_name(name: str) -> str:
    """``name`` if it may be a gazetteer entry, else a ValueError saying why."""
    if not name:
        raise ValueError("dictionary entry must be non-empty")
    if any(ch.isspace() for ch in name):
        raise ValueError(f"dictionary entry contains whitespace: {name!r}")
    if any(ch in name for ch in ("'", "’", '"', "<")):
        raise ValueError(f"dictionary entry contains a reserved character: {name!r}")
    head = name[0]
    if turkish_upper(head) != head or turkish_lower(head) == head:
        raise ValueError(f"dictionary entry must start uppercase: {name!r}")
    return name


@dataclass(frozen=True)
class NameDictionary:
    """Gazetteer of proper person names (base forms, Turkish casing)."""

    entries: frozenset[str]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "NameDictionary":
        return cls(entries=frozenset(map(_checked_name, names)))

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)


def load_dictionary(path) -> NameDictionary:
    """Load a gazetteer file: one name per line, ``#`` comments allowed."""
    with open(path, "rb") as handle:
        raw = decode_utf8(handle.read(), path, bom=True)
    names = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        try:
            names.append(_checked_name(entry))
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return NameDictionary(entries=frozenset(names))


class _Scanner:
    def __init__(self, text: str, lexicon: Lexicon):
        self.text = text
        self.lexicon = lexicon
        self.surfaces: list[str] = []
        self.records: list[PronounMention] = []
        # Tag offset of the first zero still waiting for its token.
        self.pending_zero: int | None = None
        self.seen_ids: set[int] = set()
        self._line_starts = [0] + [m.end() for m in re.finditer(r"\n", text)]

    def error(self, message: str, offset: int) -> ParseError:
        line = bisect_right(self._line_starts, offset) - 1
        return ParseError(message, line + 1, offset - self._line_starts[line] + 1)

    def emit_surface(self, surface: str) -> int:
        self.pending_zero = None
        self.surfaces.append(surface)
        return len(self.surfaces) - 1

    def parse_attrs(self, raw: str, offset: int, allowed: frozenset[str]) -> dict[str, str]:
        attrs: dict[str, str] = {}
        pos = 0
        while pos < len(raw):
            match = _ATTR_RE.match(raw, pos)
            if not match:
                if raw[pos:].strip():
                    raise self.error(f"malformed attribute list: {raw.strip()!r}", offset)
                break
            key, value = match.group(1), match.group(2)
            if key not in allowed:
                raise self.error(f"unknown attribute {key!r}", offset)
            if key in attrs:
                raise self.error(f"duplicate attribute {key!r}", offset)
            attrs[key] = value
            pos = match.end()
        return attrs

    def parse_id(self, attrs: dict[str, str], offset: int) -> int:
        if "id" not in attrs:
            raise self.error("missing id attribute", offset)
        try:
            mention_id = int(attrs["id"])
        except ValueError:
            raise self.error(f"id is not an integer: {attrs['id']!r}", offset) from None
        if mention_id in self.seen_ids:
            raise self.error(f"duplicate pronoun id {mention_id}", offset)
        self.seen_ids.add(mention_id)
        return mention_id

    def parse_gold(self, attrs: dict[str, str], offset: int) -> frozenset[str] | None:
        if "ant" not in attrs:
            return None
        names = attrs["ant"].split(";")
        if len(names) > 1 and all(names[:-1]) and not names[-1]:
            raise self.error("trailing ';' separator in ant attribute", offset)
        if not all(names):
            raise self.error("empty name in ant attribute", offset)
        try:
            NameDictionary.from_names(names)
        except ValueError as exc:
            raise self.error(f"bad name in ant attribute: {exc}", offset) from None
        return frozenset(names)

    def run(self) -> None:
        text = self.text
        i = 0
        while True:
            lt = text.find("<", i)
            for surface in split_tokens(text[i:] if lt < 0 else text[i:lt]):
                self.emit_surface(surface)
            if lt < 0:
                break
            if text.startswith("<pro", lt) and _PRO_OPEN_RE.match(text, lt):
                i = self._read_pro(lt)
            elif text.startswith("<zero", lt) and _ZERO_RE.match(text, lt):
                i = self._read_zero(lt)
            else:
                raise self.error("malformed tag", lt)
        if self.pending_zero is not None:
            raise self.error("zero pronoun tag has no following token", self.pending_zero)

    def _read_pro(self, offset: int) -> int:
        match = _PRO_OPEN_RE.match(self.text, offset)
        assert match is not None
        attrs = self.parse_attrs(match.group(1), offset, frozenset({"id", "ant"}))
        mention_id = self.parse_id(attrs, offset)
        gold = self.parse_gold(attrs, offset)
        close = self.text.find(_PRO_CLOSE, match.end())
        if close < 0:
            raise self.error("unterminated <pro> tag", offset)
        raw_surface = self.text[match.end():close]
        if "<" in raw_surface:
            raise self.error("nested tag inside <pro>", offset)
        tokens = split_tokens(raw_surface)
        if len(tokens) != 1:
            raise self.error(
                f"pronoun tag must contain exactly one token, got {raw_surface!r}", offset
            )
        surface = tokens[0]
        form = classify_pronoun(surface, self.lexicon)
        if form is None:
            raise self.error(f"not a recognized pronoun form: {surface!r}", offset)
        position = self.emit_surface(surface)
        self.records.append(
            PronounMention(
                id=mention_id,
                kind=form.kind,
                number=form.number,
                position=position,
                surface=surface,
                gold_antecedent=gold,
            )
        )
        return close + len(_PRO_CLOSE)

    def _read_zero(self, offset: int) -> int:
        match = _ZERO_RE.match(self.text, offset)
        assert match is not None
        attrs = self.parse_attrs(
            match.group(1), offset, frozenset({"id", "kind", "num", "ant"})
        )
        mention_id = self.parse_id(attrs, offset)
        for required in ("kind", "num"):
            if required not in attrs:
                raise self.error(f"missing {required} attribute", offset)
        try:
            kind = PronounKind(attrs["kind"])
        except ValueError:
            raise self.error(f"unknown kind value: {attrs['kind']!r}", offset) from None
        try:
            number = Number(attrs["num"])
        except ValueError:
            raise self.error(f"unknown num value: {attrs['num']!r}", offset) from None
        gold = self.parse_gold(attrs, offset)
        if self.pending_zero is None:
            self.pending_zero = offset
        # The zero precedes the next token, which takes this index.
        self.records.append(
            PronounMention(
                id=mention_id,
                kind=kind,
                number=number,
                position=len(self.surfaces),
                gold_antecedent=gold,
            )
        )
        return match.end()


def parse_document(text: str, lexicon: Lexicon | None = None) -> Document:
    """Parse an annotated corpus file into a Document; one leading UTF-8
    byte-order mark is dropped."""
    scanner = _Scanner(text.removeprefix("\ufeff"), lexicon or default_lexicon())
    scanner.run()
    spans = sentence_spans(scanner.surfaces)
    sentence_surfaces = [scanner.surfaces[start:end] for start, end in spans]
    return assemble_document(sentence_surfaces, scanner.records)


def _render_mention_attrs(mention: PronounMention) -> str:
    parts = [f'id="{mention.id}"']
    if mention.overtness is Overtness.ZERO:
        parts.append(f'kind="{mention.kind.value}"')
        parts.append(f'num="{mention.number.value}"')
    if mention.gold_antecedent is not None:
        parts.append(f'ant="{";".join(sorted(mention.gold_antecedent))}"')
    return " ".join(parts)


def serialize_document(doc: Document) -> str:
    """Render a Document back to annotated text, one sentence per line.

    Re-parsing the output yields a structurally identical Document; the
    attribute order inside tags is canonical (id, kind, num, ant).
    """
    zeros_at: defaultdict[int, list[PronounMention]] = defaultdict(list)
    overt_at: dict[int, PronounMention] = {}
    for mention in doc.pronouns:
        if mention.overtness is Overtness.ZERO:
            zeros_at[mention.position].append(mention)
        else:
            overt_at[mention.position] = mention

    lines = []
    quote_parity = 0
    for sent in doc.sentences:
        parts: list[str] = []
        previous_opening_quote = False
        for i in range(sent.first, sent.last + 1):
            surface = doc.tokens[i].surface
            rendered = surface
            if i in overt_at:
                mention = overt_at[i]
                rendered = f"<pro {_render_mention_attrs(mention)}>{surface}</pro>"
            glue = (
                parts
                and surface in PUNCTUATION_TOKENS
                and (surface != QUOTE or quote_parity % 2 == 1)
                or previous_opening_quote
            )
            if i in zeros_at:
                tags = " ".join(
                    f"<zero {_render_mention_attrs(m)}/>" for m in zeros_at[i]
                )
                rendered = f"{tags} {rendered}"
                glue = False
            if parts and not glue:
                parts.append(" ")
            parts.append(rendered)
            previous_opening_quote = surface == QUOTE and quote_parity % 2 == 0
            if surface == QUOTE:
                quote_parity += 1
        lines.append("".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
