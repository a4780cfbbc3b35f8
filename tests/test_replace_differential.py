"""The walk's spliced ``replace_mention`` against the seed's
whole-document re-assembly (seed_walk.py): a walk that writes names in for
one mention alone must leave every token field, the sentences and the
remaining mentions as the seed's one replacement does, on the fixtures, on
edge cases and on the shared draw of generated documents in
``test_walk_differential.py``."""

from __future__ import annotations

import pytest

import seed_walk
from anafor import parse_document
from conftest import FIXTURE_FILES, assert_layer_passed, fixture_text, replace_one

NAME_LISTS = (["Ali"], ["Ayşe", "Murat"])

ZERO = '<zero id="{}" kind="pers" num="sg"/>'


def _state(doc):
    return (
        [tuple(token) for token in doc.tokens],
        doc.sentences,
        doc.pronouns,
    )


def assert_every_replacement_matches(doc, name_lists=NAME_LISTS) -> None:
    for mention in doc.pronouns:
        for names in name_lists:
            expected = seed_walk.replace_mention(doc, mention, names)
            assert _state(replace_one(doc, mention, names)) == _state(expected), (
                mention, names,
            )


@pytest.mark.parametrize("relative", FIXTURE_FILES)
def test_fixture_replacements_match_the_seed(relative):
    assert_every_replacement_matches(parse_document(fixture_text(relative)))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"Ali geldi, Ayşe {ZERO.format(1)}, gitti.", id="zero-before-comma"),
        pytest.param(f'"Ali geldi {ZERO.format(1)}" dedi Ayşe.', id="zero-before-closing-quote"),
        pytest.param(f'Ali dedi {ZERO.format(1)} "gel" diye.', id="zero-before-opening-quote"),
        pytest.param(f"Ali geldi. {ZERO.format(1)} Gitti.", id="zero-at-sentence-start"),
        pytest.param(f"Ali geldi. {ZERO.format(1)} , gitti.", id="zero-before-sentence-initial-comma"),
        pytest.param(
            f'Ali "geldi. {ZERO.format(1)} Gitti. Ayşe <pro id="2">onu</pro> gördü.',
            id="unpaired-quote-spanning-sentences",
        ),
        pytest.param(
            f'" {ZERO.format(1)} " Ali geldi " {ZERO.format(2)} " dedi. " Gitti.',
            id="zeros-between-quote-marks",
        ),
        pytest.param('Ali geldi. <pro id="1">O</pro>, gitti.', id="overt-before-comma"),
        pytest.param(
            f"Ali geldi. {ZERO.format(1)} {ZERO.format(2)} Gitti.", id="two-zeros-at-one-position"
        ),
    ],
)
def test_edge_case_replacements_match_the_seed(text):
    assert_every_replacement_matches(parse_document(text), NAME_LISTS + ([","],))


def test_quote_mark_name_is_rejected():
    doc = parse_document(f"Ali geldi. {ZERO.format(1)} Gitti.")
    with pytest.raises(ValueError, match="quote mark"):
        replace_one(doc, doc.pronouns[0], ['"'])


def test_generated_replacements_match_the_seed(shared_draw):
    assert_layer_passed(shared_draw, "replace")
