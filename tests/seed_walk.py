"""The resolver walk, baseline and trainer as they were before they shared
``anafor.resolver.walk_document``, kept verbatim as the reference that
``test_walk_differential.py`` compares the shared walk against.

The document walks, the tie rules, antecedent replacement and the
per-candidate preference flags live here.  ``replace_mention``
re-assembles and re-validates the whole document, so it is also the
reference for the package's spliced replacement, and ``feature_vector``
(which re-reads the search window for every member of every survivor) is
the reference for ``anafor.scoring.feature_vectors``.
``extract_candidates`` is the extraction as it was before the name index
built compounds as names enter it: it merges each window's names into
compounds afresh and sorts them, and is the reference that
``test_index_differential.py`` holds the package's extraction to.
``apply_constraints`` and ``constrained_candidates`` are the constraint
pipeline as it was when it sorted every pronoun's survivors, and the
reference that ``test_index_differential.py`` holds the package's order
to; the walks here take their candidates from it.  ``format_trace`` and
``_format_candidate`` are the trace formatter before it memoised each
vector's bit string, the reference of ``test_trace_differential.py``.
``serialize_document``, ``sentence_spans`` and ``_quoted_flags`` are the
text layer as it was when each visited every token, the reference of the
text-layer checks in ``test_walk_differential.py``; ``sentence_column``
reads the spans as the package's ``sentence_numbers`` column.
``seed_assemble_document`` is the build from per-sentence surfaces as it
was before tokens were built in bulk, the reference of
``test_assemble_differential.py``; the parser and ``replace_mention`` here
build their Documents with it.
``ResolutionHistory`` is the seed's zero-pronoun history, which the walk
now keeps as a plain set of name sets.  The resolver sums each vector's
weights left to right itself, as the trainer's ``_predict`` does, so the
differentials see a fault in ``anafor.scoring.score``.
``parse_document``, ``_read_tag``, ``_mention_id``, ``_attributes``,
``_gold``, their patterns and the regex ``split_tokens`` are the parser as
it was when every tag went through the attribute reader, the reference of
``test_parse_differential.py``.  ``load_dictionary`` is the gazetteer
reader as it was when it checked every line on its own, the reference of
``test_gazetteer_differential.py``; it and the parser check names with
``_checked_name``, the gazetteer's name rule as it was then, with the
rule since added that a name is in Unicode NFC.
``parse_weights`` and ``lexicon_from_text`` are the weights and lexicon
readers as they were when each skipped its own comments and blank lines,
the references of ``test_data_file_differential.py``, which also holds
the package's ``_split_apostrophe`` to the one here.  ``_window_start`` and
``scan_name_occurrences`` are the seed's window scan, the one copy left:
the package reads every window through its name index; the scan matches
each token with the package's ``match_name``.  One line
differs from the seed: a pronoun's quote flag is ``mention_quoted``'s,
which fixes the seed's reading of a zero before a closing quote mark as
unquoted.
"""

from __future__ import annotations

import re
import math
import unicodedata
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace, replace as dc_replace
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from anafor.candidates import (
    LINKER_SURFACES,
    Candidate,
    CandidateKind,
    SearchScope,
    generate_sets,
)
from anafor.corpus import NameDictionary, ParseError, _render_mention_attrs
from anafor.morphology import (
    APOSTROPHES, Lexicon, NameOccurrence, PronounForm, classify_pronoun, default_lexicon,
    match_name, turkish_lower, turkish_upper,
)
from anafor.resolver import AMBIGUOUS_FIELD, Resolution, ResolvedDocument
from anafor.scoring import DEFAULT_WEIGHTS, FEATURE_NAMES, PreferenceVector, PreferenceWeights
from anafor.textmodel import (
    PUNCTUATION_TOKENS,
    QUOTE,
    SENTENCE_TERMINATORS,
    Document,
    Number,
    Overtness,
    PronounKind,
    PronounMention,
    Sentence,
    Token,
    decode_utf8,
    mention_quoted,
)
from anafor.training import TrainConfig, TrainingInstance, TrainReport


@dataclass
class ResolutionHistory:
    """Base-name sets chosen for zero pronouns earlier in the document,
    together with the sentence index of each such zero pronoun."""

    _entries: list[tuple[frozenset[str], int]] = field(default_factory=list)

    def record(self, names: frozenset[str], sentence_index: int) -> None:
        self._entries.append((frozenset(names), sentence_index))

    def seen_before(self, names: frozenset[str], sentence_index: int) -> bool:
        return any(
            entry == names and recorded < sentence_index
            for entry, recorded in self._entries
        )


def _split_apostrophe(surface: str) -> tuple[str, str]:
    cut = min((i for i in (surface.find(a) for a in APOSTROPHES) if i >= 0), default=-1)
    if cut < 0:
        return surface, ""
    return surface[:cut], surface[cut + 1:]


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
    window = doc.tokens[_window_start(doc, pronoun, scope):pronoun.position]  # one read
    return [occ for occ in (match_name(token, dictionary, lexicon) for token in window) if occ]


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
            turkish_lower(doc.surfaces[i - 1]) in LINKER_SURFACES
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
    """Simple and compound candidates for one pronoun, oldest anchor first.

    The simple candidates come from a scan of the window, where the
    package's body took them from its name index."""
    simple = [
        Candidate((occ,), CandidateKind.SIMPLE, doc.sentence_index_of(occ.token_index))
        for occ in scan_name_occurrences(doc, pronoun, dictionary, scope, lexicon)
    ]
    candidates = simple + [
        Candidate(tuple(run), CandidateKind.COMPOUND, doc.sentence_index_of(run[-1].token_index))
        for run in _compound_runs(doc, [c.members[0] for c in simple])
    ]
    candidates.sort(key=lambda c: (c.anchor, len(c.members)))
    return candidates


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


def _first_phrase_token(doc: Document, sentence_index: int) -> int | None:
    sent = doc.sentences[sentence_index]
    for i in range(sent.first, sent.last + 1):
        if doc.tokens[i].surface not in PUNCTUATION_TOKENS:
            return i
    return None


def _base_occurrences(
    doc: Document, pronoun: PronounMention, base: str, scope: SearchScope
) -> int:
    count = 0
    for i in range(_window_start(doc, pronoun, scope), pronoun.position):
        if _split_apostrophe(doc.tokens[i].surface)[0] == base:
            count += 1
    return count


def feature_vector(
    doc: Document,
    pronoun: PronounMention,
    candidate: Candidate,
    survivors: Iterable[Candidate],
    history: ResolutionHistory,
    scope: SearchScope = SearchScope(),
) -> PreferenceVector:
    """Compute the eight preference flags for one post-constraint candidate.

    quoted_match is symmetric (both sides quoted, or both unquoted);
    recency marks the survivors of the nearest populated sentence;
    repetition requires every member base to occur at least twice in the
    search window, replacement tokens included; punctuation asks whether
    the token after the candidate's anchor is a comma.
    """
    pronoun_sentence = doc.sentence_index_of(pronoun.position)
    nearest_sentence = max(c.sentence_index for c in survivors)
    return PreferenceVector(
        quoted_match=(
            mention_quoted(doc, pronoun) == doc.tokens[candidate.anchor].quoted
        ),
        recency=candidate.sentence_index == nearest_sentence,
        nominative=all(member.nominative for member in candidate.members),
        first_np=(
            candidate.members[0].token_index
            == _first_phrase_token(doc, candidate.sentence_index)
        ),
        predicate_nominal=any(member.copular_suffix for member in candidate.members),
        repetition=all(
            _base_occurrences(doc, pronoun, member.base, scope) >= 2
            for member in candidate.members
        ),
        punctuation=(
            candidate.anchor + 1 < len(doc.tokens)
            and doc.tokens[candidate.anchor + 1].surface == ","
        ),
        zero_antecedent_history=(
            pronoun.overtness is Overtness.ZERO
            and history.seen_before(candidate.base_names, pronoun_sentence)
        ),
    )


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
        [token.surface for token in doc.tokens[first:last + 1]]
        for first, last in doc.sentences
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
    return seed_assemble_document(sentence_surfaces, remaining)[0]


class ScoredCandidate(NamedTuple):
    """A survivor with its vector (None in the baseline) and score, the
    entry the seed's walks choose from; ``_resolve_one`` turns a pronoun's
    entries into the columns of the package's ``Resolution``."""

    candidate: Candidate
    vector: PreferenceVector | None
    score: float


_Chooser = Callable[
    [Document, PronounMention, list[Candidate], ResolutionHistory],
    list[ScoredCandidate],
]


def _pick(scored: Sequence[ScoredCandidate]) -> ScoredCandidate:
    # Survivors arrive anchored-ascending; >= keeps the most recent maximum,
    # so score ties fall back to recency.
    best = scored[0]
    for entry in scored[1:]:
        if entry.score >= best.score:
            best = entry
    return best


def _resolve_one(
    doc: Document,
    pronoun: PronounMention,
    dictionary: NameDictionary,
    scope: SearchScope,
    lexicon: Lexicon | None,
    history: ResolutionHistory,
    chooser: _Chooser,
) -> tuple[Resolution, Candidate | None]:
    survivors = constrained_candidates(doc, pronoun, dictionary, scope, lexicon)
    if not survivors:
        return Resolution(pronoun.id, None, None, ()), None
    scored = chooser(doc, pronoun, survivors, history)
    best = _pick(scored)
    candidates, vectors, scores = zip(*scored)
    resolution = Resolution(
        pronoun_id=pronoun.id,
        antecedent=best.candidate.base_names,
        score=best.score,
        survivors=candidates,
        vectors=vectors,
        scores=scores,
    )
    return resolution, best.candidate


def _preference_chooser(weights: PreferenceWeights, scope: SearchScope) -> _Chooser:
    def choose(doc, pronoun, survivors, history):
        scored = []
        for candidate in survivors:
            vector = feature_vector(doc, pronoun, candidate, survivors, history, scope)
            total = sum(w for flag, w in zip(vector, weights.values) if flag)
            scored.append(ScoredCandidate(candidate, vector, total))
        return scored

    return choose


def _recency_chooser(doc, pronoun, survivors, history):
    # Baseline: no preference scoring, the anchor order alone decides.
    return [ScoredCandidate(candidate, None, 0.0) for candidate in survivors]



def _run_document(
    doc: Document,
    dictionary: NameDictionary,
    scope: SearchScope,
    lexicon: Lexicon | None,
    chooser: _Chooser,
) -> ResolvedDocument:
    work = doc
    history = ResolutionHistory()
    resolutions = []
    for pronoun_id in [mention.id for mention in doc.pronouns]:
        mention = next(m for m in work.pronouns if m.id == pronoun_id)
        resolution, candidate = _resolve_one(
            work, mention, dictionary, scope, lexicon, history, chooser
        )
        resolutions.append(resolution)
        if candidate is not None:
            mention_sentence = work.sentence_index_of(mention.position)
            work = replace_mention(
                work, mention, [member.base for member in candidate.members]
            )
            if mention.overtness is Overtness.ZERO:
                history.record(candidate.base_names, mention_sentence)
    return ResolvedDocument(tuple(resolutions), work)


def resolve_document(
    doc: Document,
    dictionary: NameDictionary,
    weights: PreferenceWeights = DEFAULT_WEIGHTS,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> ResolvedDocument:
    """Resolve every pronoun left to right and paraphrase the document."""
    return _run_document(doc, dictionary, scope, lexicon, _preference_chooser(weights, scope))


def baseline_resolve_document(
    doc: Document,
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> ResolvedDocument:
    """Same pipeline, but selection always favours the most recent survivor."""
    return _run_document(doc, dictionary, scope, lexicon, _recency_chooser)


def build_instances(
    corpus: list[Document],
    dictionary: NameDictionary,
    scope: SearchScope = SearchScope(),
    lexicon: Lexicon | None = None,
) -> tuple[list[TrainingInstance], int]:
    """Turn gold-annotated documents into training instances.

    Returns the instances plus the count of pronouns skipped because their
    gold antecedent did not survive the constraints.  Every pronoun must
    carry a gold link; a document without them is an error.
    """
    instances: list[TrainingInstance] = []
    skipped = 0
    for doc in corpus:
        if not any(m.gold_antecedent for m in doc.pronouns):
            raise ValueError("document carries no gold antecedent links")
        work = doc
        history = ResolutionHistory()
        for pronoun_id in [m.id for m in doc.pronouns]:
            mention = next(m for m in work.pronouns if m.id == pronoun_id)
            gold = mention.gold_antecedent
            if gold is None:
                raise ValueError(f"pronoun {pronoun_id} has no gold antecedent")
            survivors = constrained_candidates(work, mention, dictionary, scope, lexicon)
            gold_index = None
            for i, candidate in enumerate(survivors):
                if candidate.base_names == gold:
                    gold_index = i  # keep the most recent gold-matching survivor
            if gold_index is None:
                skipped += 1
            else:
                vectors = tuple(
                    feature_vector(work, mention, candidate, survivors, history, scope)
                    for candidate in survivors
                )
                instances.append(TrainingInstance(pronoun_id, vectors, gold_index))
            mention_sentence = work.sentence_index_of(mention.position)
            work = replace_mention(work, mention, sorted(gold))
            if mention.overtness is Overtness.ZERO:
                history.record(gold, mention_sentence)
    return instances, skipped


def _predict(weights: list[float], vectors: tuple[PreferenceVector, ...]) -> int:
    best_index = 0
    best_score = sum(w for flag, w in zip(vectors[0], weights) if flag)
    for i in range(1, len(vectors)):
        candidate_score = sum(w for flag, w in zip(vectors[i], weights) if flag)
        if candidate_score >= best_score:  # ties go to the most recent survivor
            best_index, best_score = i, candidate_score
    return best_index


def train(
    instances: list[TrainingInstance],
    config: TrainConfig = TrainConfig(),
) -> tuple[PreferenceWeights, TrainReport]:
    """Delta-rule training: on a miss, move the weights toward the gold
    survivor's features and away from the predicted one.

    Stops at the first zero-error epoch or at ``max_epochs``; deterministic
    given the instance order.
    """
    if not instances:
        raise ValueError("no training instances")
    weights = list(config.initial_weights.values)
    epochs_run = 0
    errors = 0
    for _epoch in range(config.max_epochs):
        errors = 0
        for instance in instances:
            predicted = _predict(weights, instance.vectors)
            if predicted != instance.gold_index:
                errors += 1
                gold_vector = instance.vectors[instance.gold_index]
                predicted_vector = instance.vectors[predicted]
                weights = [
                    w + config.learning_rate * (int(g) - int(p))
                    for w, g, p in zip(weights, gold_vector, predicted_vector)
                ]
        epochs_run += 1
        if errors == 0:
            break
    return PreferenceWeights(tuple(weights)), TrainReport(epochs_run, errors)


# ---------------------------------------------------------------------------
# The trace formatter as it was before it memoised each vector's bit
# string; ``bits`` was the method ``PreferenceVector.bits``, so
# ``_format_candidate``'s local of that name is ``bits_field`` here.


def bits(vector: PreferenceVector) -> str:
    return "".join("1" if flag else "0" for flag in vector)


def _format_candidate(entry: ScoredCandidate) -> str:
    names = ";".join(member.base for member in entry.candidate.members)
    bits_field = bits(entry.vector) if entry.vector is not None else AMBIGUOUS_FIELD
    return f"{names}:{bits_field}={entry.score:.4f}"


def format_trace(resolutions: Iterable[Resolution]) -> str:
    lines = []
    for resolution in resolutions:
        if resolution.resolved:
            fields = [
                str(resolution.pronoun_id),
                "resolved",
                ";".join(sorted(resolution.antecedent)),
                f"{resolution.score:.4f}",
                "|".join(_format_candidate(entry) for entry in map(
                    ScoredCandidate, resolution.survivors, resolution.vectors, resolution.scores
                )),
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


# ---------------------------------------------------------------------------
# The text layer as it was when serialize, the sentence split and the quote
# flags each visited every token, the reference of the text-layer checks
# in ``test_walk_differential.py``, and the build from per-sentence
# surfaces, the reference of ``test_assemble_differential.py``.


def sentence_spans(surfaces: Sequence[str]) -> list[tuple[int, int]]:
    """Half-open [start, end) spans of the sentences in a token stream.

    A sentence ends after a run of terminator tokens; a closing double
    quote immediately after the run belongs to the ending sentence.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    quotes_seen = 0
    i = 0
    n = len(surfaces)
    while i < n:
        surface = surfaces[i]
        if surface in SENTENCE_TERMINATORS:
            while i + 1 < n and surfaces[i + 1] in SENTENCE_TERMINATORS:
                i += 1
            if i + 1 < n and surfaces[i + 1] == QUOTE and quotes_seen % 2 == 1:
                quotes_seen += 1
                i += 1
            spans.append((start, i + 1))
            start = i + 1
        elif surface == QUOTE:
            quotes_seen += 1
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def sentence_column(surfaces: Sequence[str]) -> list[int]:
    """The sentence number of each token, read off ``sentence_spans``."""
    return [k for k, (start, end) in enumerate(sentence_spans(surfaces)) for _ in range(start, end)]


def _quoted_flags(surfaces: Sequence[str], sentence_of: Sequence[int]) -> list[bool]:
    # Quote characters pair up left to right; tokens strictly between an
    # opening quote and its partner are quoted.  An unpaired trailing quote
    # opens a span that ends with its own sentence.
    flags = [False] * len(surfaces)
    open_at: int | None = None
    for i, surface in enumerate(surfaces):
        if surface == QUOTE:
            open_at = i if open_at is None else None
        elif open_at is not None:
            flags[i] = True
    if open_at is not None:
        limit = sentence_of[open_at]
        for i in range(open_at + 1, len(surfaces)):
            if sentence_of[i] != limit:
                flags[i] = False
    return flags


def seed_assemble_document(sentence_surfaces, pronouns=()):
    # The per-token build, as it was before tokens were built in bulk; the
    # Document holds the columns of its tokens, and the build returns it
    # with its own list of sentences.  A Document derives its quote flags;
    # this one holds the per-token flags, so the seed's walks read them.
    surfaces: list[str] = []
    sentence_of: list[int] = []
    sentences: list[Sentence] = []
    for k, sent_surfaces in enumerate(sentence_surfaces):
        if not sent_surfaces:
            raise ValueError(f"sentence {k} has no tokens")
        first = len(surfaces)
        for surface in sent_surfaces:
            surfaces.append(surface)
            sentence_of.append(k)
        sentences.append(Sentence(first, len(surfaces) - 1))

    quoted = _quoted_flags(surfaces, sentence_of)
    tokens = tuple(
        Token(
            surface=surface,
            index=i,
            sentence_index=sentence_of[i],
            quoted=quoted[i],
        )
        for i, surface in enumerate(surfaces)
    )
    ordered = tuple(sorted(pronouns, key=lambda m: m.position))
    doc = Document(
        tuple(token.surface for token in tokens),
        tuple(token.sentence_index for token in tokens),
        ordered,
    )
    vars(doc)["quoted"] = tuple(token.quoted for token in tokens)
    doc.validate()
    return doc, tuple(sentences)


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
            surface = doc.surfaces[i]
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


# ---------------------------------------------------------------------------
# The parser as it was before it read canonically spelled tags by one
# match, split tokens with ``str.split`` and tested its tokens' join for
# refused characters: every tag goes through the attribute reader, tokens
# come from one regex, and the text is scanned character by character.
# The reference of ``test_parse_differential.py``.


_PRO_OPEN_RE = re.compile(r"<pro\b([^<>]*)>")
_ZERO_RE = re.compile(r"<zero\b([^<>]*?)/>")
_ATTR_RE = re.compile(r'\s*([A-Za-z_]\w*)\s*=\s*"([^"]*)"')
_PRO_CLOSE = "</pro>"
# Characters that are neither printable nor whitespace glue onto a token
# unseen; typographic quote marks glue onto a token too, and never pair as
# '"' does.
_QUOTE_MARKS = ("\u00ab", "\u00bb", "\u201c", "\u201d")
_PRO_KEYS = frozenset({"id", "ant"})
_ZERO_KEYS = frozenset({"id", "kind", "num", "ant"})
_KINDS = {kind.value: kind for kind in PronounKind}
_NUMBERS = {number.value: number for number in Number}

_MARKS = "".join(map(re.escape, sorted(PUNCTUATION_TOKENS)))  # one character each
_TOKEN_RE = re.compile(f"[{_MARKS}]|[^{_MARKS}\\s]+")


def split_tokens(text: str) -> list[str]:
    """Split plain text into token surfaces; punctuation marks stand alone."""
    return _TOKEN_RE.findall(text)


def _mention_id(attrs: dict[str, str], seen_ids: set[int]) -> int:
    if "id" not in attrs:
        raise ValueError("missing id attribute")
    try:
        mention_id = int(attrs["id"])
    except ValueError:
        raise ValueError(f"id is not an integer: {attrs['id']!r}") from None
    if mention_id in seen_ids:
        raise ValueError(f"duplicate pronoun id {mention_id}")
    seen_ids.add(mention_id)
    return mention_id


def _attributes(raw: str, allowed: frozenset[str]) -> dict[str, str]:
    attrs: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _ATTR_RE.match(raw, pos)
        if not match:
            if raw[pos:].strip():
                raise ValueError(f"malformed attribute list: {raw.strip()!r}")
            break
        key, value = match.groups()
        if key not in allowed:
            raise ValueError(f"unknown attribute {key!r}")
        if key in attrs:
            raise ValueError(f"duplicate attribute {key!r}")
        attrs[key] = value
        pos = match.end()
    return attrs


@lru_cache(maxsize=1024)  # a document names few antecedents; errors are not kept
def _gold(ant: str | None) -> frozenset[str] | None:
    """The checked names of an ``ant`` value, None for no value."""
    if ant is None:
        return None
    names = ant.split(";")
    if len(names) > 1 and all(names[:-1]) and not names[-1]:
        raise ValueError("trailing ';' separator in ant attribute")
    if not all(names):
        raise ValueError("empty name in ant attribute")
    try:
        for name in names:
            _checked_name(name)
    except ValueError as exc:
        raise ValueError(f"bad name in ant attribute: {exc}") from None
    return frozenset(names)


def _read_tag(
    text: str, offset: int, position: int, seen_ids: set[int], lexicon: Lexicon
) -> tuple[PronounMention, int]:
    """The pronoun tag at ``offset``, as a mention at token ``position``,
    and the offset after it; a ValueError says what is wrong with the tag."""
    if match := _PRO_OPEN_RE.match(text, offset):
        attrs = _attributes(match.group(1), _PRO_KEYS)
        mention_id = _mention_id(attrs, seen_ids)
        gold = _gold(attrs.get("ant"))
        close = text.find(_PRO_CLOSE, match.end())
        if close < 0:
            raise ValueError("unterminated <pro> tag")
        raw_surface = text[match.end():close]
        if "<" in raw_surface:
            raise ValueError("nested tag inside <pro>")
        tokens = split_tokens(raw_surface)
        if len(tokens) != 1:
            raise ValueError(f"pronoun tag must contain exactly one token, got {raw_surface!r}")
        form = classify_pronoun(tokens[0], lexicon)
        if form is None:
            raise ValueError(f"not a recognized pronoun form: {tokens[0]!r}")
        mention = PronounMention(mention_id, form.kind, form.number, position, tokens[0], gold)
        return mention, close + len(_PRO_CLOSE)
    if match := _ZERO_RE.match(text, offset):
        attrs = _attributes(match.group(1), _ZERO_KEYS)
        mention_id = _mention_id(attrs, seen_ids)
        for required in ("kind", "num"):
            if required not in attrs:
                raise ValueError(f"missing {required} attribute")
        kind, number = _KINDS.get(attrs["kind"]), _NUMBERS.get(attrs["num"])
        if kind is None:
            raise ValueError(f"unknown kind value: {attrs['kind']!r}")
        if number is None:
            raise ValueError(f"unknown num value: {attrs['num']!r}")
        mention = PronounMention(mention_id, kind, number, position, "", _gold(attrs.get("ant")))
        return mention, match.end()
    raise ValueError("malformed tag")


def parse_document(text: str, lexicon: Lexicon | None = None) -> Document:
    """Parse an annotated corpus file into a Document; one leading UTF-8
    byte-order mark is dropped, and after the tags' errors any other
    character that is neither printable nor whitespace, and each typographic
    quote mark U+201C, U+201D, U+00AB or U+00BB, is a ParseError."""
    text = text.removeprefix("\ufeff")
    lexicon = lexicon or default_lexicon()
    surfaces: list[str] = []
    mentions: list[PronounMention] = []
    seen_ids: set[int] = set()
    zero_at: dict[int, int] = {}  # token position -> offset of its first zero tag
    i = 0
    try:
        while (offset := text.find("<", i)) >= 0:
            surfaces += split_tokens(text[i:offset])
            mention, i = _read_tag(text, offset, len(surfaces), seen_ids, lexicon)
            if mention.surface:
                surfaces.append(mention.surface)
            else:
                zero_at.setdefault(mention.position, offset)
            mentions.append(mention)
        surfaces += split_tokens(text[i:])
        for offset, char in enumerate(text):
            if char in _QUOTE_MARKS:
                raise ValueError(f"typographic quote mark U+{ord(char):04X}")
            if not char.isprintable() and not char.isspace():
                category = unicodedata.category(char)
                raise ValueError(f"unprintable character U+{ord(char):04X} ({category})")
        spans = sentence_spans(surfaces)
        # A zero inside the run of terminators, and closing quote, that
        # ends a sentence anchors to the first token of the next sentence.
        n = len(surfaces)
        ends = [end for _, end in spans]
        anchor = {}
        for p in zero_at:
            if 0 < p < n and surfaces[p - 1] in SENTENCE_TERMINATORS:
                start, end = spans[bisect_right(ends, p)]
                if start < p:
                    anchor[p] = end
        if anchor:
            mentions = [
                replace(m, position=anchor[m.position])
                if not m.surface and m.position in anchor else m
                for m in mentions
            ]
        if dangling := [p for p in zero_at if anchor.get(p, p) == n]:
            offset = zero_at[min(dangling)]
            raise ValueError("zero pronoun tag has no following token")
    except ValueError as exc:
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        raise ParseError(str(exc), line, column) from None
    return seed_assemble_document([surfaces[start:end] for start, end in spans], mentions)[0]


# ---------------------------------------------------------------------------
# The gazetteer reader as it was before it checked the file whole: each
# non-blank line, cut at its first '#', is checked on its own.  The
# reference of ``test_gazetteer_differential.py``.


# Never in a name: ';' joins names, the tokenizer splits marks, the parser
# refuses unprintable characters and typographic quote marks.
_RESERVED_RE = re.compile("['’\"<>;,.!?…«»“”]")


def _checked_name(name: str) -> str:
    """``name`` if it may be a gazetteer entry, else a ValueError saying why."""
    if not name:
        raise ValueError("dictionary entry must be non-empty")
    if name.split() != [name]:
        raise ValueError(f"dictionary entry contains whitespace: {name!r}")
    if _RESERVED_RE.search(name) or not all(char.isprintable() for char in name):
        raise ValueError(f"dictionary entry contains a reserved character: {name!r}")
    head = name[0]
    if turkish_upper(head) != head or turkish_lower(head) == head:
        raise ValueError(f"dictionary entry must start uppercase: {name!r}")
    if unicodedata.normalize("NFC", name) != name:
        raise ValueError(f"dictionary entry is not in Unicode NFC: {name!r}")
    return name


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


# The weights and lexicon readers as they were when each read its own file
# and skipped its own comments and blank lines: the references of
# ``test_data_file_differential.py``.  The lexicon reference builds no
# ``case_markers`` table, which the package no longer keeps; its loop is
# the old one.


def parse_weights(text: str) -> PreferenceWeights:
    """Parse a weights file: eight ``name = value`` lines, any order."""
    mapping: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"weights line {lineno}: expected 'name = value'")
        if name in mapping:
            raise ValueError(f"weights line {lineno}: duplicate name {name!r}")
        try:
            mapping[name] = float(value.strip())
        except ValueError:
            raise ValueError(f"weights line {lineno}: bad value {value.strip()!r}") from None
        if not math.isfinite(mapping[name]):
            raise ValueError(f"weights line {lineno}: {name} must be finite")
    missing = [name for name in FEATURE_NAMES if name not in mapping]
    if missing:
        raise ValueError(f"missing weight names: {', '.join(missing)}")
    extra = [name for name in mapping if name not in FEATURE_NAMES]
    if extra:
        raise ValueError(f"unknown weight names: {', '.join(extra)}")
    return PreferenceWeights(tuple(mapping[name] for name in FEATURE_NAMES))


_SECTION_RE = re.compile(r"\[(pronoun|suffix)\s+([^\]]+)\]\s*$")


def lexicon_from_text(text: str) -> Lexicon:
    """Parse the lexicon file format, as ``Lexicon.from_text`` did."""
    forms: dict[str, PronounForm] = {}
    tables: dict[str, set[str]] = {"case": set(), "plural": set(), "copula": set()}
    current: PronounForm | str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
    return Lexicon(
        pronoun_forms=dict(forms),
        plural_prefixes=tuple(sorted(tables["plural"], key=len, reverse=True)),
        copula_suffixes=tuple(sorted(tables["copula"], key=len, reverse=True)),
    )
