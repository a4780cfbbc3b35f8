"""The shared document walk against the seed's separate walks (seed_walk.py):
paraphrases, traces, training instances and trained weights must match
byte for byte.  The text layer is held to its per-token reference on every
document met: the parsed input and both paraphrases serialize to the same
bytes, and their sentence numbers and quote flags are the same, here and on
token streams built to hit every rule of the marks.

Generated documents are drawn here once for every layer:
``check_generated_documents`` parses each drawn text once, runs the
package's resolve and baseline walks on it once, and hands the results to
each layer's checker: this module's, the index, scoring, replace,
assemble and parse differentials' and the serialize round trips of
``test_corpus.py``.  It runs once per session, as conftest.py's
``shared_draw`` fixture, and each layer's ``test_generated_*`` or
``test_round_trip_on_*`` test reports that layer's failure.  No other test
module draws ``quoted_texts()`` (``test_shared_draw.py``)."""

from __future__ import annotations

import dataclasses
import functools
import re
import traceback
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import seed_walk
import test_index_differential
import test_scoring_differential
from anafor import (
    baseline_resolve_document,
    build_instances,
    format_trace,
    load_dictionary,
    parse_document,
    resolve_document,
    serialize_document,
    train,
)
from anafor.candidates import SearchScope
from anafor.scoring import format_weights
from anafor.textmodel import (
    PUNCTUATION_TOKENS, QUOTE, SENTENCE_TERMINATORS, Number, PronounKind, PronounMention,
    _quoted_flags, assemble_document, sentence_numbers,
)
from conftest import FIXTURE_FILES, TEXTS, assert_layer_passed, fixture_text, quoted_texts
from test_acceptance import PROP_DICT, PROP_NAMES, annotated_texts
from test_assemble_differential import assert_per_token_build
from test_corpus import assert_round_trip
from test_golden import GOLDEN, _generated
from test_parse_differential import assert_same_parse
from test_replace_differential import assert_every_replacement_matches

GOLD_SETS = [frozenset({name}) for name in PROP_NAMES] + [
    frozenset(pair) for pair in combinations(PROP_NAMES[:3], 2)
]


def _outcome(run):
    """The result of ``run()``, or the ValueError it raised, as a comparable value."""
    try:
        return run()
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_text(doc) -> None:
    """``doc`` serializes to the reference's bytes, and its sentence numbers
    are the reference's spans read as a column and its quote flags the
    reference's."""
    assert serialize_document(doc) == seed_walk.serialize_document(doc)
    assert sentence_numbers(doc.surfaces) == seed_walk.sentence_column(doc.surfaces)
    flags = _quoted_flags(doc.surfaces, doc.sentence_of)
    assert flags == seed_walk._quoted_flags(doc.surfaces, doc.sentence_of)


def _resolve_bytes(resolved):
    assert_same_text(resolved.paraphrased)
    return serialize_document(resolved.paraphrased), format_trace(resolved.resolutions)


def _training_bytes(build, trainer, doc, names, scope):
    def run():
        instances, skipped = build([doc], names, scope)
        weights = _outcome(lambda: format_weights(trainer(instances)[0]))
        return instances, skipped, weights

    return _outcome(run)


def package_walks(doc, names, scope):
    """The package's resolve and baseline results on ``doc``."""
    return (
        resolve_document(doc, names, scope=scope),
        baseline_resolve_document(doc, names, scope=scope),
    )


def assert_same_as_seed(doc, names, scope=SearchScope(), walks=None) -> None:
    """``walks`` are ``package_walks(doc, names, scope)``, run here if not given."""
    resolved, baseline = walks or package_walks(doc, names, scope)
    assert_same_text(doc)
    assert _resolve_bytes(resolved) == _resolve_bytes(
        seed_walk.resolve_document(doc, names, scope=scope)
    )
    assert _resolve_bytes(baseline) == _resolve_bytes(
        seed_walk.baseline_resolve_document(doc, names, scope=scope)
    )
    assert _training_bytes(build_instances, train, doc, names, scope) == _training_bytes(
        seed_walk.build_instances, seed_walk.train, doc, names, scope
    )


@pytest.mark.parametrize("relative", FIXTURE_FILES)
@pytest.mark.parametrize("back", [1, 3, 4])
def test_fixtures_match_the_seed(relative, back, names9):
    assert_same_as_seed(parse_document(fixture_text(relative)), names9, SearchScope(back))


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("back", [1, 3, 4])
def test_texts_match_the_seed(text, back, names9):
    assert_same_as_seed(parse_document(text), names9, SearchScope(back))


def test_tiled_minicorpus_matches_the_seed(names9):
    text = fixture_text("minicorpus/minicorpus.txt")
    tiles = [
        re.sub(r'id="(\d+)"', lambda m: f'id="{int(m.group(1)) + 1000 * k}"', text)
        for k in range(3)
    ]
    assert_same_as_seed(parse_document("\n".join(tiles)), names9)


# The layers checked on each generated document, each reported by its
# own test through the ``shared_draw`` fixture of conftest.py.
LAYERS = (
    "walk", "index", "scoring", "replace", "assemble", "round trip", "paraphrase round trip",
    "parse",
)


def check_generated_documents() -> dict[str, str | None]:
    """Every layer's checks on one draw of 400 generated documents: for
    each of ``LAYERS``, the report of its failure, or None.  A layer's
    failure does not stop the other layers' checks on that document."""
    failures = dict.fromkeys(LAYERS)

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(annotated_texts(), quoted_texts()), back=st.integers(0, 3),
           data=st.data())
    def check(text, back, data):
        doc = parse_document(text)
        gold = data.draw(st.lists(st.sampled_from(GOLD_SETS), min_size=len(doc.pronouns),
                                  max_size=len(doc.pronouns)))
        annotated = dataclasses.replace(doc, pronouns=tuple(
            dataclasses.replace(mention, gold_antecedent=names)
            for mention, names in zip(doc.pronouns, gold)
        ))
        scope = SearchScope(back)
        walks = functools.cache(lambda: package_walks(annotated, PROP_DICT, scope))

        def paraphrases():
            return [walked.paraphrased for walked in walks()]

        def per_token_build():
            for document in (doc, *paraphrases()):
                assert_per_token_build(document)

        def paraphrase_round_trips():
            for paraphrased in paraphrases():
                assert_round_trip(paraphrased)

        def parses():
            for each in (text, *map(serialize_document, paraphrases())):
                assert_same_parse(each)

        checks = {
            "walk": lambda: assert_same_as_seed(annotated, PROP_DICT, scope, walks()),
            "index": lambda: test_index_differential.check_document(doc, PROP_DICT, scope),
            "scoring": lambda: test_scoring_differential.check_document(doc, PROP_DICT, scope),
            "replace": lambda: assert_every_replacement_matches(doc),
            "assemble": per_token_build,
            "round trip": lambda: assert_round_trip(doc),
            "paraphrase round trip": paraphrase_round_trips,
            "parse": parses,
        }
        failed = []
        for layer in LAYERS:
            try:
                checks[layer]()
            except Exception:
                failures[layer] = f"text={text!r}, back={back}\n{traceback.format_exc()}"
                failed.append(layer)
        assert not failed, f"failed layers: {', '.join(failed)}"

    try:
        check()
    except Exception:
        # Hypothesis replays the shrunk example last, so each layer keeps
        # the smallest failing document it met; anything else is raised.
        if not any(failures.values()):
            raise
    return failures


def test_generated_documents_match_the_seed(shared_draw):
    assert_layer_passed(shared_draw, "walk")


def test_generated_documents_serialize_as_the_reference():
    # The golden digests' 100 documents from perfbench's generator, parsed
    # and after either walk.
    names = load_dictionary(GOLDEN / "generated.names")
    for text in _generated():
        doc = parse_document(text)
        assert_same_text(doc)
        assert_same_text(resolve_document(doc, names).paraphrased)
        assert_same_text(baseline_resolve_document(doc, names).paraphrased)


# Words, every mark alone, terminator runs and runs of quote marks.
PIECES = [(word,) for word in ("Ali", "geldi", "Ayşe'yi", "onu")] * 3 + [
    (mark,) for mark in sorted(PUNCTUATION_TOKENS)
] + [(".", "."), ("!", "?"), ("…", ".", "!"), (QUOTE, QUOTE), (QUOTE, QUOTE, QUOTE)]
ATTRIBUTES = [  # kind, number and gold antecedent of a mention
    (kind, number, gold) for kind in PronounKind for number in Number
    for gold in (None, frozenset({"Ali"}), frozenset({"Ali", "Ayşe"}))
]


@st.composite
def mark_documents(draw):
    """Documents of pieces, which may start with a mark and end on an
    unpaired quote, with zeros at any token (token 0, a sentence start, a
    closing quote) and overt pronouns ``onu`` in place of any word."""
    surfaces = [surface for piece in draw(st.lists(st.sampled_from(PIECES))) for surface in piece]
    pronouns, overt = [], set()
    mentions = st.tuples(st.integers(0, 99), st.booleans(), st.sampled_from(ATTRIBUTES))
    for slot, wants_overt, (kind, number, gold) in draw(st.lists(mentions, max_size=4)):
        if not surfaces:
            break
        position = slot % len(surfaces)
        word = surfaces[position] not in PUNCTUATION_TOKENS and position not in overt
        surface = "onu" if wants_overt and word else ""
        if surface:  # the word becomes the pronoun
            surfaces[position] = surface
            overt.add(position)
        pronouns.append(PronounMention(len(pronouns), kind, number, position, surface, gold))
    return assemble_document(surfaces, seed_walk.sentence_column(surfaces), pronouns)


def _zero(position, id_=0):
    return PronounMention(id_, PronounKind.PERSONAL, Number.SINGULAR, position)


@settings(max_examples=300, deadline=None)
@given(doc=mark_documents())
@example(doc=assemble_document([",", "Ali", ".", '"', "geldi"], [0, 0, 0, 1, 1],
                               [_zero(0), _zero(3, 1)]))
@example(doc=assemble_document(['"', "Ali", '"', ".", "geldi", '"'], [0, 0, 0, 0, 1, 1],
                               [_zero(2), _zero(2, 1)]))
@example(doc=assemble_document(["Ali", '"', "geldi", ".", '"', '"', '"', "!", "!"],
                               [0, 0, 0, 0, 0, 1, 1, 1, 1]))
@example(doc=assemble_document([], []))
def test_mark_streams_match_the_reference(doc):
    assert_same_text(doc)
