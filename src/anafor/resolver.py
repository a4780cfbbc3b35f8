"""Left-to-right resolution with antecedent replacement, plus the
most-recent-candidate baseline.

One walk, :func:`walk_document`, visits the pronouns in document order for
the resolver, the baseline and the trainer alike; each supplies only the
choice of what to write in.  Whenever a pronoun is resolved, its token (or
zero-marker position) is rewritten to the antecedent's bare base names
joined with ``ve`` and quoted as the pronoun is (``mention_quoted``), so
the replacement is visible to later candidate extraction and scoring.
Ambiguous pronouns stay in the text untouched.  The walk streams the
text's token columns in up to each pronoun, :func:`replace_mention`
splices each replacement into those columns alone, in place, and one name
index of the text reads each token once: advanced to a pronoun, it is the
window the walk hands to :func:`~anafor.candidates.constrained_candidates`,
which slices out the survivors, and the resolver and trainer hand to
:func:`~anafor.scoring.feature_vectors`, so the cost per pronoun is flat
across sentences and inside them.  The walk returns its paraphrase through
:func:`~anafor.textmodel.assemble_document`, which checks every surface.
The resolver picks the highest-scoring survivor, reading each vector's
:func:`score` off the weights' ``scores`` table, which sums it once; the
baseline scores nothing, so the most recent survivor wins.  A :class:`Resolution`
keeps its survivors, vectors and scores as three columns, which the trace
zips, formatting each vector and score pair once.  A zero pronoun has an empty ``surface``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import copysign, isnan
from typing import AbstractSet, Callable, Iterable, Sequence

from .candidates import Candidate, NameIndex, SearchScope, constrained_candidates
from .corpus import NameDictionary
from .morphology import Lexicon
from .scoring import (
    DEFAULT_WEIGHTS,
    PreferenceVector,
    PreferenceWeights,
    _base,
    feature_vectors,
    most_recent_max,
    score,
)
from .textmodel import QUOTE, Document, PronounMention, assemble_document, mention_quoted

# Unused here, but perfbench/tracing.py patches it as an attribute of this module.
from .scoring import feature_vector  # noqa: F401


@dataclass(frozen=True)
class Resolution:
    """One pronoun's outcome, an antecedent name set or ambiguous, and the survivors it
    was chosen from, oldest anchor first, with their vectors and scores (baseline: None, 0.0)."""

    pronoun_id: int
    antecedent: frozenset[str] | None
    score: float | None
    survivors: tuple[Candidate, ...] = ()
    vectors: tuple[PreferenceVector | None, ...] = ()
    scores: tuple[float, ...] = ()

    def __init__(
        self, pronoun_id: int, antecedent: frozenset[str] | None, score: float | None,
        survivors: tuple[Candidate, ...] = (), vectors: tuple[PreferenceVector | None, ...] = (),
        scores: tuple[float, ...] = (),
    ) -> None:
        self.__dict__.update(pronoun_id=pronoun_id, antecedent=antecedent, score=score,
                             survivors=survivors, vectors=vectors, scores=scores)

    @property
    def resolved(self) -> bool:
        return self.antecedent is not None


@dataclass(frozen=True)
class ResolvedDocument:
    resolutions: tuple[Resolution, ...]
    paraphrased: Document


def replace_mention(work: Document, mention: PronounMention, names: Sequence[str]) -> None:
    """Write the walk's pronoun as its antecedent names, in place.

    The pronoun is the last mention visited: its token is the working
    text's last token, so only the columns' last elements change.  An
    overt pronoun's token gives way to the names; a zero's names go in
    before its token.  The names take their quote flag, the mention's own
    (:func:`~anafor.textmodel.mention_quoted`).  No name may be a quote
    mark, since that would re-pair every quote after it.
    """
    if not names:
        raise ValueError("replacement needs at least one name")
    if QUOTE in names:
        raise ValueError("a replacement name cannot be a quote mark")
    position = mention.position
    at = slice(position, position + 1 if mention.surface else position)
    inserted = [surface for name in names for surface in ("ve", name)][1:]
    work.quoted[at] = [mention_quoted(work, mention)] * len(inserted)
    work.sentence_of[at] = [work.sentence_of[position]] * len(inserted)
    work.surfaces[at] = inserted


def walk_document(
    doc: Document,
    dictionary: NameDictionary,
    scope: SearchScope,
    lexicon: Lexicon | None,
    choose: Callable[
        [NameIndex, PronounMention, list[Candidate], AbstractSet[frozenset[str]]],
        Sequence[str] | None,
    ],
) -> Document:
    """The left-to-right pass shared by resolve, baseline and training.

    The working text is the only Document over lists, read by its columns
    only.  Candidates never lie right of a pronoun, so its columns are
    streamed in from ``doc`` only at each pronoun, through its token, and
    after the last pronoun.  So a splice has a tail of at most one token,
    no token left of the pronoun moves, and one :class:`NameIndex` of it
    at ``scope`` matches each token once and keeps the window's candidates
    of each number, base counts (a plain dict) and first phrase tokens:
    advanced to each pronoun, it is that pronoun's window.  For each
    pronoun in document order ``choose`` sees that window, which it must
    not keep, the mention, its survivors, sliced off the window, and the
    zero-pronoun history, and returns the names to write in,
    or None to leave the pronoun.  The text's mention list gets only the
    pronouns left in place; nothing reads it before the walk ends.  The
    history is the set of name sets written in for zero pronouns of earlier
    sentences: the zeros of a sentence join it when the walk reaches the
    first pronoun of a later sentence.  Returns the paraphrase, assembled
    from the working text's columns by :func:`~anafor.textmodel.assemble_document`.
    """
    work = Document([], [], [], [])
    window = NameIndex(work, dictionary, scope, lexicon)
    columns = [(work.surfaces, doc.surfaces), (work.sentence_of, doc.sentence_of),
               (work.quoted, doc.quoted)]
    history: set[frozenset[str]] = set()
    zeros: list[frozenset[str]] = []  # written in for the zeros of sentence `sentence`
    sentence = streamed = 0  # doc's first streamed tokens are in the working text
    for mention in doc.pronouns:
        if doc.sentence_of[mention.position] != sentence:
            history.update(zeros)
            zeros, sentence = [], doc.sentence_of[mention.position]
        if mention.position >= streamed:
            for column, source in columns:
                column += source[streamed:mention.position + 1]
            streamed = mention.position + 1
        visited = PronounMention(
            mention.id, mention.kind, mention.number, len(work.surfaces) - 1,
            mention.surface, mention.gold_antecedent,
        )
        survivors = constrained_candidates(visited, window.advance(visited))
        names = choose(window, visited, survivors, history)
        if names is None:
            work.pronouns.append(visited)
        else:
            replace_mention(work, visited, names)
            if not visited.surface:
                zeros.append(frozenset(names))
    for column, source in columns:
        column += source[streamed:]
    return assemble_document(work.surfaces, work.sentence_of, work.pronouns)


def _resolve_all(
    doc: Document,
    dictionary: NameDictionary,
    weights: PreferenceWeights | None,
    scope: SearchScope,
    lexicon: Lexicon | None,
) -> ResolvedDocument:
    resolutions = []

    def choose(window, mention, survivors, history):
        # weights=None is the baseline: nothing is scored, so every survivor
        # ties at 0.0 and the most recent one wins.
        if not survivors:
            resolutions.append(Resolution(mention.id, None, None))
            return None
        if weights is None:
            vectors, scores = (None,) * len(survivors), (0.0,) * len(survivors)
        else:
            vectors = feature_vectors(mention, survivors, history, window)
            known = weights.scores
            scores = [known[v] if v in known else known.setdefault(v, score(v, weights))
                      for v in vectors]
        best = most_recent_max(scores)
        winner = survivors[best]
        resolutions.append(Resolution(mention.id, winner.base_names, scores[best],
                                      tuple(survivors), tuple(vectors), tuple(scores)))
        return list(map(_base, winner.members))

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


@lru_cache(maxsize=1024)  # the 256 vectors of up to four weights, and the baseline's
def _scored_bits(vector: PreferenceVector | None, value: float, sign: float) -> str:
    bits = AMBIGUOUS_FIELD if vector is None else "".join("1" if flag else "0" for flag in vector)
    return f":{bits}={value:.4f}"


def format_trace(resolutions: Iterable[Resolution]) -> str:
    lines = []
    for resolution in resolutions:
        if not resolution.resolved:
            lines.append(f"{resolution.pronoun_id}\tambiguous" + f"\t{AMBIGUOUS_FIELD}" * 3)
            continue
        head = f"{resolution.pronoun_id}\tresolved\t{';'.join(sorted(resolution.antecedent))}"
        entries = "|".join([
            (m[0].base if len(m) == 1 else ";".join(map(_base, m)))
            + _scored_bits(vector, value, copysign(1, value))  # the sign keys -0.0 apart from 0.0
            for (m, _, _), vector, value in zip(
                resolution.survivors, resolution.vectors, resolution.scores)
        ])
        lines.append(f"{head}\t{resolution.score:.4f}\t{entries}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[Resolution]:
    """Read a trace back as resolutions without candidate entries.  An ambiguous
    line has ``-`` in its last three fields and score None, and a resolved line
    a number, not NaN, for its score.  One leading byte-order mark is dropped."""
    records = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
        if outcome == "ambiguous":
            if fields[2:] != [AMBIGUOUS_FIELD] * 3:
                raise ValueError(f"trace line {lineno}: an ambiguous line has "
                                 f"{AMBIGUOUS_FIELD!r} in its last three fields")
            records.append(Resolution(pronoun_id, None, None))
            continue
        if outcome != "resolved":
            raise ValueError(f"trace line {lineno}: unknown outcome {outcome!r}")
        listed = fields[2].split(";")
        names = frozenset(listed)  # distinct names, none empty or holding whitespace
        if len(names) < len(listed) or any(name.split() != [name] for name in listed):
            raise ValueError(f"trace line {lineno}: bad antecedent field")
        try:
            if isnan(trace_score := float(fields[3])):  # no sum of finite weights; inf is one
                raise ValueError
        except ValueError:
            raise ValueError(f"trace line {lineno}: bad score {fields[3]!r}") from None
        records.append(Resolution(pronoun_id, names, trace_score))
    return records
