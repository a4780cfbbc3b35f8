"""Left-to-right resolution with antecedent replacement, plus the
most-recent-candidate baseline.

One walk, :func:`walk_document`, visits the pronouns in document order for
the resolver, the baseline and the trainer alike; each supplies only the
choice of what to write in.  Whenever a pronoun is resolved, its token (or
zero-marker position) is rewritten to the antecedent's bare base names
joined with ``ve``, so the replacement is visible to later candidate
extraction and repetition counting.  Ambiguous pronouns stay in the text
untouched.  Sentence boundaries never move; token indices of later
pronouns are remapped after every replacement.  The resolver picks the
highest-scoring survivor; the baseline scores nothing, so the most recent
survivor wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterable, Sequence

from .candidates import Candidate, SearchScope, constrained_candidates
from .corpus import NameDictionary
from .morphology import Lexicon
from .scoring import (
    DEFAULT_WEIGHTS,
    PreferenceVector,
    PreferenceWeights,
    ResolutionHistory,
    feature_vector,
    most_recent_max,
    score,
)
from .textmodel import Document, Overtness, PronounMention, assemble_document


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    vector: PreferenceVector | None  # None in baseline traces
    score: float


@dataclass(frozen=True)
class Resolution:
    """Outcome for one pronoun: an antecedent name set, or ambiguous."""

    pronoun_id: int
    antecedent: frozenset[str] | None
    score: float | None
    trace: tuple[ScoredCandidate, ...] = ()

    @property
    def resolved(self) -> bool:
        return self.antecedent is not None


@dataclass(frozen=True)
class ResolvedDocument:
    resolutions: tuple[Resolution, ...]
    paraphrased: Document


def _replacement_surfaces(names: Sequence[str]) -> list[str]:
    surfaces: list[str] = []
    for name in names:
        if surfaces:
            surfaces.append("ve")
        surfaces.append(name)
    return surfaces


def replace_mention(doc: Document, mention: PronounMention, names: Sequence[str]) -> Document:
    """Rewrite one pronoun as its antecedent names and drop it from the
    mention list; positions of later mentions shift accordingly."""
    if not names:
        raise ValueError("replacement needs at least one name")
    position = mention.position
    sentence = doc.sentence_index_of(position)
    sentence_surfaces = [
        [token.surface for token in doc.sentence_tokens(k)]
        for k in range(len(doc.sentences))
    ]
    local = position - doc.sentences[sentence].first
    inserted = _replacement_surfaces(names)
    if mention.overtness is Overtness.OVERT:
        sentence_surfaces[sentence][local:local + 1] = inserted
        delta = len(inserted) - 1
    else:
        sentence_surfaces[sentence][local:local] = inserted
        delta = len(inserted)

    order = {m.id: i for i, m in enumerate(doc.pronouns)}
    resolved_order = order[mention.id]
    remaining = []
    for other in doc.pronouns:
        if other.id == mention.id:
            continue
        shifts = other.position > position or (
            other.position == position and order[other.id] > resolved_order
        )
        if shifts and delta:
            other = dc_replace(other, position=other.position + delta)
        remaining.append(other)
    return assemble_document(sentence_surfaces, remaining)


def walk_document(
    doc: Document,
    dictionary: NameDictionary,
    scope: SearchScope,
    lexicon: Lexicon | None,
    choose: Callable[
        [Document, PronounMention, list[Candidate], ResolutionHistory], Sequence[str] | None
    ],
) -> Document:
    """The left-to-right pass shared by resolve, baseline and training.

    For each pronoun in document order, ``choose`` sees the current text,
    the mention, its constrained survivors and the zero-pronoun history, and
    returns the names to write in, or None to leave the pronoun in place.
    Returns the document with every chosen replacement made.
    """
    work = doc
    history = ResolutionHistory()
    left_in_place = 0
    for _ in doc.pronouns:
        # Replaced mentions leave work.pronouns and the rest keep their
        # order, so the next unvisited mention follows the ones left in place.
        mention = work.pronouns[left_in_place]
        survivors = constrained_candidates(work, mention, dictionary, scope, lexicon)
        names = choose(work, mention, survivors, history)
        if names is None:
            left_in_place += 1
            continue
        mention_sentence = work.sentence_index_of(mention.position)
        work = replace_mention(work, mention, names)
        if mention.overtness is Overtness.ZERO:
            history.record(frozenset(names), mention_sentence)
    return work


def _decide(
    doc: Document,
    pronoun: PronounMention,
    survivors: list[Candidate],
    history: ResolutionHistory,
    weights: PreferenceWeights | None,
    scope: SearchScope,
) -> tuple[Resolution, Candidate | None]:
    # weights=None is the baseline: nothing is scored, so every survivor
    # ties at 0.0 and the most recent one wins.
    if not survivors:
        return Resolution(pronoun.id, None, None), None
    if weights is None:
        scored = [ScoredCandidate(candidate, None, 0.0) for candidate in survivors]
    else:
        scored = []
        for candidate in survivors:
            vector = feature_vector(doc, pronoun, candidate, survivors, history, scope)
            scored.append(ScoredCandidate(candidate, vector, score(vector, weights)))
    best = scored[most_recent_max([entry.score for entry in scored])]
    resolution = Resolution(pronoun.id, best.candidate.base_names, best.score, tuple(scored))
    return resolution, best.candidate


def resolve_pronoun(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    weights: PreferenceWeights = DEFAULT_WEIGHTS,
    history: ResolutionHistory | None = None,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> Resolution:
    """Resolve a single pronoun against the current document state.

    Expects earlier pronouns to have been replaced already; the highest
    scoring survivor wins, ties go to the most recent anchor, and an empty
    survivor set reports the pronoun as ambiguous.
    """
    survivors = constrained_candidates(doc, pronoun, dictionary, scope, lexicon)
    history = history if history is not None else ResolutionHistory()
    return _decide(doc, pronoun, survivors, history, weights, scope)[0]


def _resolve_all(
    doc: Document,
    dictionary: NameDictionary,
    weights: PreferenceWeights | None,
    scope: SearchScope,
    lexicon: Lexicon | None,
) -> ResolvedDocument:
    resolutions = []

    def choose(work, mention, survivors, history):
        resolution, winner = _decide(work, mention, survivors, history, weights, scope)
        resolutions.append(resolution)
        return None if winner is None else [member.base for member in winner.members]

    paraphrased = walk_document(doc, dictionary, scope, lexicon, choose)
    return ResolvedDocument(tuple(resolutions), paraphrased)


def resolve_document(
    doc: Document,
    dictionary: NameDictionary,
    weights: PreferenceWeights = DEFAULT_WEIGHTS,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> ResolvedDocument:
    """Resolve every pronoun left to right and paraphrase the document."""
    return _resolve_all(doc, dictionary, weights, scope, lexicon)


def baseline_resolve_document(
    doc: Document,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> ResolvedDocument:
    """Same pipeline, but selection always favours the most recent survivor."""
    return _resolve_all(doc, dictionary, None, scope, lexicon)


# ---------------------------------------------------------------------------
# Trace records: one tab-separated line per pronoun, machine-readable.

AMBIGUOUS_FIELD = "-"


def _format_candidate(entry: ScoredCandidate) -> str:
    names = ";".join(member.base for member in entry.candidate.members)
    bits = entry.vector.bits() if entry.vector is not None else AMBIGUOUS_FIELD
    return f"{names}:{bits}={entry.score:.4f}"


def format_trace(resolutions: Iterable[Resolution]) -> str:
    lines = []
    for resolution in resolutions:
        if resolution.resolved:
            fields = [
                str(resolution.pronoun_id),
                "resolved",
                ";".join(sorted(resolution.antecedent)),
                f"{resolution.score:.4f}",
                "|".join(_format_candidate(entry) for entry in resolution.trace),
            ]
        else:
            fields = [
                str(resolution.pronoun_id),
                "ambiguous",
                AMBIGUOUS_FIELD,
                AMBIGUOUS_FIELD,
                AMBIGUOUS_FIELD,
            ]
        lines.append("\t".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[Resolution]:
    """Read a trace back as resolutions without candidate entries; the
    score is None where the trace has ``-``."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 5:
            raise ValueError(f"trace line {lineno}: expected 5 tab-separated fields")
        try:
            pronoun_id = int(fields[0])
        except ValueError:
            raise ValueError(f"trace line {lineno}: bad pronoun id {fields[0]!r}") from None
        outcome = fields[1]
        if outcome == "resolved":
            names = frozenset(fields[2].split(";"))
            if not names or "" in names:
                raise ValueError(f"trace line {lineno}: bad antecedent field")
        elif outcome == "ambiguous":
            names = None
        else:
            raise ValueError(f"trace line {lineno}: unknown outcome {outcome!r}")
        try:
            trace_score = None if fields[3] == AMBIGUOUS_FIELD else float(fields[3])
        except ValueError:
            raise ValueError(f"trace line {lineno}: bad score {fields[3]!r}") from None
        records.append(Resolution(pronoun_id, names, trace_score))
    return records
