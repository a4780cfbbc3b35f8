"""Deterministic workload inputs: mini-corpus tiles, generated documents and
the benchmark gazetteer.

Everything here is plain text built from a seed; the program under test
only ever sees the generated texts and the gazetteer file.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

MINICORPUS = Path("tests/fixtures/minicorpus/minicorpus.txt")
ORACLE = Path("tests/fixtures/minicorpus/oracle.tsv")
FIXTURE_NAMES = Path("tests/fixtures/names9.txt")

_ID_RE = re.compile(r'id="(\d+)"')

# Names the generator writes into its documents, on top of the nine fixture
# names.  None of them is spelled like a common word of the workload texts.
GENERATOR_NAMES = (
    "Emre", "Elif", "Burak", "Selin", "Kerem", "Derya", "Cem", "Ece", "Okan",
    "Pınar", "Serkan", "Hakan", "Leyla", "Onur", "Sevgi", "Volkan", "Yasemin",
    "Kemal", "Oya", "Levent", "Canan", "Berk", "İpek", "Tolga", "Sibel",
    "Orhan", "Filiz", "Eda", "Kaan", "Nazlı", "Gökhan", "Melek",
)

SYNTHETIC_NAME_COUNT = 3000


@dataclass(frozen=True)
class Oracle:
    """Hand-traced system and baseline antecedents of the mini corpus, keyed
    by pronoun id; ``None`` stands for an ambiguous pronoun."""

    system: dict[int, frozenset[str] | None]
    baseline: dict[int, frozenset[str] | None]
    stride: int  # highest pronoun id, the id offset between two tiles


def read_minicorpus(root: Path) -> tuple[str, Oracle]:
    text = (root / MINICORPUS).read_text(encoding="utf-8")
    system: dict[int, frozenset[str] | None] = {}
    baseline: dict[int, frozenset[str] | None] = {}
    for line in (root / ORACLE).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        pid, _gold, sys_out, sys_ant, base_out, base_ant = line.split("\t")
        system[int(pid)] = frozenset(sys_ant.split(";")) if sys_out == "resolved" else None
        baseline[int(pid)] = frozenset(base_ant.split(";")) if base_out == "resolved" else None
    stride = max(int(m.group(1)) for m in _ID_RE.finditer(text))
    if sorted(system) != list(range(1, stride + 1)):
        raise ValueError("oracle ids do not cover the mini corpus ids 1..N")
    return text, Oracle(system, baseline, stride)


def tile_minicorpus(text: str, k: int, stride: int, id_base: int = 0) -> str:
    """The mini corpus repeated k times; tile t renumbers pronoun id i to
    ``id_base + t * stride + i``, so ids stay unique and map back to the
    oracle through ``(id - id_base - 1) % stride + 1``."""
    tiles = []
    for t in range(k):
        offset = id_base + t * stride
        tiles.append(_ID_RE.sub(lambda m: f'id="{offset + int(m.group(1))}"', text))
    return "".join(tiles)


# ---------------------------------------------------------------------------
# Generated documents.
#
# A document is a list of sentences, one per line.  Scene sentences place
# four names with case, copula and plural suffixes, ve/ile compounds and
# commas; pronoun sentences add one overt or zero pronoun and two or three
# names of their own.  Every pronoun carries a gold link chosen by an
# annotator rule: the first nominative name (else the first name) of the
# nearest earlier sentence with a candidate of the right number, and for a
# reflexive the nearest such candidate left of it in its own sentence.  The
# rule does not match the eight preferences exactly, so the default weights
# miss about a fifth of the links (the paper reports 15-25% errors) and the
# delta-rule trainer never reaches a zero-error epoch.

SCOPE = 3

_ADVERBS = ("dün", "bugün", "sabah", "akşam", "sessizce", "hızla", "yavaşça",
            "birlikte", "yine", "hemen", "biraz", "uzun")
_PLACES = ("okula", "parka", "eve", "bahçeye", "çarşıya", "denize", "köye", "pazara")
_OBJECTS = ("kitap", "çay", "ekmek", "mektup", "çiçek", "elma", "resim")

# {A}, {B}, {C}: distinct names; ":acc" etc. select a case suffix; {adv},
# {place} and {obj} draw filler words.
_SCENES = (
    "{A} ve {B} {adv} {adv} {C:gen} evine giderken yolda {D:acc} {adv} gördüler.",
    "{A}, {B:dat} ve {C:dat} {adv} {adv} seslendi, {D} de {adv} {place} geldi.",
    "Bu {adv} {A:acc} gören {B}, {C:com} ve {D:com} {adv} parkta oturdu.",
    "Kapıdaki çocuk {adv} {A:cop}, {B} ise {C:gen} ve {D:gen} {adv} kardeşiydi.",
    "{A:pl} {adv} {place} geldi ve {B} ile {C}, {D:acc} {adv} karşıladı.",
    '"{A:acc} {adv} gördüm" dedi {B}, {C} ve {D} de {adv} güldü.',
    "{A} ile {B}, {C:abl} ve {D:abl} {adv} {adv} bir {obj} aldılar.",
    "{A} {obj} okuyordu, {B} ve {C} {adv} çay içerken {D} {adv} geldi.",
)

# (template, kind, number, overtness); {P} is the pronoun slot.
_PRONOUN_SENTENCES = (
    ("{P} {adv} {A:com} ve {B:com} {place} gitti, {C} de {adv} geldi.", "pers", "sg", "zero"),
    ("{A} {P:onu} {adv} {B:gen} evinde {C:com} {adv} birlikte gördü.", "pers", "sg", "overt"),
    ("{A}, {P:ona} {adv} {B:gen} ve {C:gen} mektubunu {adv} verdi.", "pers", "sg", "overt"),
    ("{A} {P:ondan} {adv} bir {obj} istedi, {B} de {adv} güldü.", "pers", "sg", "overt"),
    ("{A} {adv} {P:onunla} {place} gitti ve {B:acc} {adv} gördü.", "pers", "sg", "overt"),
    ("{P:O} {adv} {place} gitti ve {A:acc} ile {B:acc} {adv} gördü.", "pers", "sg", "overt"),
    ("{P} {adv} {place} gittiler, {A} ve {B} de {adv} geldi.", "pers", "pl", "zero"),
    ("{A} {P:onları} {adv} {place} götürdü, {B} de {adv} geldi.", "pers", "pl", "overt"),
    ("{A} ve {B} {P:kendilerine} {adv} bir {obj} aldılar, {C} {adv} baktı.", "refl", "pl", "overt"),
    ("{A} {adv} {P:kendine} güvendi, {B} ise {C:dat} {adv} güvendi.", "refl", "sg", "overt"),
    ("{A}, {B:dat} rağmen {P:kendini} {adv} {adv} suçladı.", "refl", "sg", "overt"),
    ("{A} {P} {adv} {obj} temizledi, {B} de {adv} yardım etti.", "refl", "sg", "zero"),
)
_PRONOUN_WEIGHTS = (5, 3, 2, 1, 1, 2, 2, 2, 1, 2, 1, 1)

_SLOT_RE = re.compile(r"\{(\w+)(?::(\w+))?\}")
_COMPOUND_RE = re.compile(r"\{([A-D])(:\w+)?\} (?:ve|ile) (\{([A-D])(:\w+)?\})")
_FILLERS = {"adv": _ADVERBS, "place": _PLACES, "obj": _OBJECTS}
_BACK = set("aıou")
_VOWELS = set("aeıioöuü")


def _harmony(name: str) -> tuple[str, str]:
    """(two-way, four-way) harmony vowels for suffixes after ``name``."""
    last = next((ch for ch in reversed(name.lower()) if ch in _VOWELS), "e")
    two = "a" if last in _BACK else "e"
    four = {"a": "ı", "ı": "ı", "o": "u", "u": "u", "e": "i", "i": "i",
            "ö": "ü", "ü": "ü"}[last]
    return two, four


def inflect(name: str, case: str | None) -> str:
    if case is None:
        return name
    two, four = _harmony(name)
    vowel_end = name[-1].lower() in _VOWELS
    suffix = {
        "acc": ("y" if vowel_end else "") + four,
        "dat": ("y" if vowel_end else "") + two,
        "loc": "d" + two,
        "abl": "d" + two + "n",
        "gen": ("n" if vowel_end else "") + four + "n",
        "com": ("y" if vowel_end else "") + "l" + two,
        "cop": ("y" if vowel_end else "") + "d" + four,
        "pl": "l" + two + "r",
    }[case]
    return f"{name}'{suffix}"


@dataclass
class _Entity:
    """One candidate the annotator sees: its names, number and whether it
    carries no case suffix (replacements are bare names, so nominative)."""

    names: tuple[str, ...]
    plural: bool
    nominative: bool = True


# Sentences, and pronouns among them, in one generated document.
DOCUMENT_SENTENCES = 10
DOCUMENT_PRONOUNS = 6


class _DocumentWriter:
    def __init__(self, rng: random.Random, names: tuple[str, ...]):
        self.rng = rng
        self.names = names
        self.next_id = 1
        self.lines: list[str] = []
        # Per sentence: entities in text order, with earlier pronouns
        # counted as their gold antecedents (the gold walk replaces them).
        self.entities: list[list[_Entity]] = []

    def _fill(self, template: str, chosen: dict[str, str]):
        """Fill a template; returns the text with the pronoun slot marked by
        a NUL, the entities in text order, and the pronoun's entity index."""
        entities: list[_Entity] = []
        pronoun_slot = None
        # Two names joined by ve/ile also form a plural compound candidate,
        # placed right after its second member.
        compounds = {
            m.start(3): _Entity((chosen[m.group(1)], chosen[m.group(4)]), True,
                                not (m.group(2) or m.group(5)))
            for m in _COMPOUND_RE.finditer(template)
        }

        def slot(match: re.Match) -> str:
            nonlocal pronoun_slot
            key, case = match.group(1), match.group(2)
            if key in _FILLERS:
                return self.rng.choice(_FILLERS[key])
            if key == "P":
                pronoun_slot = len(entities)
                return "\x00"
            name = chosen[key]
            entities.append(_Entity((name,), case == "pl", case in (None, "pl")))
            if match.start() in compounds:
                entities.append(compounds[match.start()])
            return inflect(name, case)

        return _SLOT_RE.sub(slot, template), entities, pronoun_slot

    def scene(self) -> None:
        chosen = dict(zip("ABCD", self.rng.sample(self.names, 4)))
        text, entities, _ = self._fill(self.rng.choice(_SCENES), chosen)
        self.lines.append(text)
        self.entities.append(entities)

    def pronoun_sentence(self) -> None:
        template, kind, number, overtness = self.rng.choices(
            _PRONOUN_SENTENCES, weights=_PRONOUN_WEIGHTS
        )[0]
        chosen = dict(zip("ABC", self.rng.sample(self.names, 3)))
        text, entities, slot = self._fill(template, chosen)
        plural = number == "pl"
        if kind == "refl":
            own = [e for e in entities[:slot] if e.plural == plural]
            gold = own[-1].names if own else self._gold(plural)
        else:
            gold = self._gold(plural)
        pid = self.next_id
        self.next_id += 1
        ant = ";".join(sorted(set(gold)))
        form = re.search(r"\{P(?::(\w+))?\}", template).group(1)
        if overtness == "zero":
            tag = f'<zero id="{pid}" kind="{kind}" num="{number}" ant="{ant}"/>'
        else:
            tag = f'<pro id="{pid}" ant="{ant}">{form}</pro>'
        self.lines.append(text.replace("\x00", tag))
        entities.insert(slot, _Entity(tuple(sorted(set(gold))), len(set(gold)) > 1 or plural))
        self.entities.append(entities)

    def _gold(self, plural: bool) -> tuple[str, ...]:
        window = self.entities[-SCOPE:]
        ranked = []  # nearest sentence first, nominative first within it
        for sentence in reversed(window):
            fitting = [e for e in sentence if e.plural == plural]
            ranked += [e for e in fitting if e.nominative] + [e for e in fitting if not e.nominative]
        if plural and not ranked:
            # No plural candidate: set generation offers each sentence's names.
            for sentence in reversed(window):
                members = sorted({n for e in sentence for n in e.names})
                if len(members) >= 2:
                    ranked.append(_Entity(tuple(members), True))
        if not ranked:
            return (self.rng.choice(self.names),)
        return ranked[0].names


def generate_document(rng: random.Random, names: tuple[str, ...]) -> str:
    """One gold-annotated document: a scene sentence, then DOCUMENT_SENTENCES
    - 1 sentences of which DOCUMENT_PRONOUNS carry a pronoun."""
    writer = _DocumentWriter(rng, names)
    writer.scene()
    with_pronoun = set(rng.sample(range(1, DOCUMENT_SENTENCES), DOCUMENT_PRONOUNS))
    for i in range(1, DOCUMENT_SENTENCES):
        if i in with_pronoun:
            writer.pronoun_sentence()
        else:
            writer.scene()
    return "\n".join(writer.lines) + "\n"


# ---------------------------------------------------------------------------
# Gazetteer.

_SYLLABLES = ("ba", "ke", "mu", "ta", "ri", "so", "le", "na", "di", "ze",
              "ro", "gü", "şa", "ce", "fi", "ya", "hu", "po", "vi", "ka")
_CODAS = ("", "n", "r", "m", "l", "t", "k", "s")


def _turkish_lower(word: str) -> str:
    return word.replace("İ", "i").replace("I", "ı").lower()


def vocabulary(texts) -> set[str]:
    """Lower-cased bases (text before any apostrophe) of every word in the
    given texts and in the generator's templates."""
    words: set[str] = set()
    sources = list(texts) + list(_SCENES) + [t for t, *_ in _PRONOUN_SENTENCES]
    sources += [" ".join(_ADVERBS + _PLACES + _OBJECTS)]
    for text in sources:
        text = re.sub(r"<[^>]*>|\{[^}]*\}", " ", text)
        for word in re.findall(r"[^\s,.!?…\"]+", text):
            words.add(_turkish_lower(re.split(r"['’]", word)[0]))
    return words


def _turkish_capitalize(word: str) -> str:
    head = {"i": "İ", "ı": "I"}.get(word[0], word[0].upper())
    return head + word[1:]


def build_gazetteer(root: Path, minicorpus_text: str) -> tuple[list[str], tuple[str, ...]]:
    """The benchmark gazetteer and the subset the generator writes.

    The gazetteer holds the fixture names, the generator's names and
    synthetic names up to a few thousand entries.  No synthetic entry is
    spelled like any word of the workload texts, so the mini corpus's
    capitalized common nouns (Deniz, Hava, Sokak, ...) stay non-names.
    """
    fixture = tuple(
        line.strip()
        for line in (root / FIXTURE_NAMES).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    )
    generator_names = fixture + GENERATOR_NAMES
    words = vocabulary([minicorpus_text])
    clash = [name for name in GENERATOR_NAMES if _turkish_lower(name) in words]
    if clash:
        raise ValueError(f"generator names used as common words: {clash}")
    combos = (
        "".join(parts) + coda
        for count in (2, 3)
        for parts in itertools.product(_SYLLABLES, repeat=count)
        for coda in _CODAS
    )
    fresh = (word for word in combos if word not in words)
    synthetic = [_turkish_capitalize(w) for w in itertools.islice(fresh, SYNTHETIC_NAME_COUNT)]
    entries = sorted(set(generator_names) | set(synthetic))
    return entries, generator_names
