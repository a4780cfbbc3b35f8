"""``resolver.format_trace``, which keeps each vector's bit string in a
memo, against the formatter of ``seed_walk.py``, which joined every
entry's flags afresh: on resolutions with baseline entries (vector
``None``), compounds and sets of 2-5 members, ambiguous resolutions, and
scores at the rounding edges of ``.4f``."""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

import seed_walk
from anafor.candidates import Candidate, CandidateKind
from anafor.morphology import NameOccurrence
from anafor.resolver import Resolution, format_trace
from anafor.scoring import PreferenceVector
from test_acceptance import PROP_NAMES

vectors = st.none() | st.builds(PreferenceVector, *[st.booleans() for _ in range(8)])
scores = st.sampled_from([0.00005, -0.0, 1e16, 0.00015, -0.00005, math.inf]) | st.floats()


@st.composite
def candidates(draw) -> Candidate:
    bases = draw(st.lists(st.sampled_from(PROP_NAMES), min_size=1, max_size=5))
    members = tuple(NameOccurrence(base, i, True, False, False) for i, base in enumerate(bases))
    if len(members) == 1:
        return Candidate(members, CandidateKind.SIMPLE, 0)
    kind = draw(st.sampled_from([CandidateKind.COMPOUND, CandidateKind.GENERATED_SET]))
    return Candidate(members, kind, 0)


@st.composite
def resolutions(draw) -> Resolution:
    pronoun_id = draw(st.integers(0, 10**6))
    size = draw(st.integers(1, 4))
    columns = tuple(tuple(draw(st.lists(column, min_size=size, max_size=size)))
                    for column in (candidates(), vectors, scores))
    if draw(st.booleans()):  # ambiguous: the trace field is "-" whatever the columns
        return Resolution(pronoun_id, None, None, *draw(st.sampled_from([(), columns])))
    best = draw(st.sampled_from(columns[0]))
    return Resolution(pronoun_id, best.base_names, draw(scores), *columns)


ALI = Candidate((NameOccurrence("Ali", 0, True, False, False),), CandidateKind.SIMPLE, 0)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(resolutions(), max_size=3))
@example(records=[Resolution(7, frozenset({"Ali"}), -0.0, (ALI, ALI), (None, None),
                             (0.00005, 1e16))])
@example(records=[Resolution(8, frozenset({"Ali"}), 0.00005, (ALI, ALI), (
    PreferenceVector(*[True] * 8), PreferenceVector(*[False] * 8)), (-0.0, 1e16))])
def test_trace_matches_the_reference(records):
    assert format_trace(records) == seed_walk.format_trace(records)
