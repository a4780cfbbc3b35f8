from __future__ import annotations

import collections
import copy
import dataclasses
import math
import re
from importlib import resources

import pytest

import anafor.morphology
import anafor.scoring
from anafor import (
    DEFAULT_WEIGHTS,
    FEATURE_NAMES,
    NameDictionary,
    PreferenceWeights,
    baseline_resolve_document,
    build_instances,
    format_trace,
    match_name,
    parse_document,
    parse_trace,
    resolve_document,
    serialize_document,
)
from anafor.candidates import Candidate, NameIndex, SearchScope
from anafor.morphology import Lexicon, _split_apostrophe, turkish_lower
from anafor.resolver import walk_document
from anafor.scoring import most_recent_max
from anafor.textmodel import (
    Document, PronounMention, Sentence, Token, _quoted_flags, assemble_document,
)
import seed_walk
from conftest import FIXTURE_FILES, fixture_text, replace_one, snapshot
from test_golden import _inputs
from counting import (
    builds_token, chain_text, commas_text, compound_members, filler_text, gazetteer_lookups,
    punctuation_lookups, runs, surfaces_copied,
)

DICT = NameDictionary.from_names(
    ["Ayşe", "Ahmet", "Fatma", "Ali", "Zerrin", "Murat", "Zeynep", "Tekin"]
)

ZERO = '<zero id="{}" kind="pers" num="sg"/>'


def _tiled_minicorpus(k: int):
    text = fixture_text("minicorpus/minicorpus.txt")
    return parse_document("\n".join(
        re.sub(r'id="(\d+)"', lambda m: f'id="{int(m.group(1)) + 1000 * t}"', text)
        for t in range(k)
    ))


def _tokens_copied(doc, dictionary):
    # Tokens copied while resolving doc, and how many pronouns it resolved.
    with surfaces_copied(doc) as (copied, counted):
        resolved = resolve_document(counted, dictionary)
    return copied.n, sum(resolution.resolved for resolution in resolved.resolutions)


def _walk_counts(doc, dictionary):
    # Gazetteer lookups (the name index looks up the base of each window
    # token once) and tokens copied while resolving doc, and the resolved
    # document.
    lookups, gazetteer = gazetteer_lookups(dictionary)
    with surfaces_copied(doc) as (copied, counted):
        resolved = resolve_document(counted, gazetteer)
    return lookups.n, copied.n, resolved


class TestResolveDocument:
    def test_recency_example(self):
        doc = parse_document(fixture_text("corpora/p2_recency.txt"))
        (resolution,) = resolve_document(doc, DICT).resolutions
        assert resolution.antecedent == frozenset({"Murat"})

    def test_punctuation_example_with_score_gap(self):
        doc = parse_document(fixture_text("corpora/p7_punctuation.txt"))
        (resolution,) = resolve_document(doc, DICT).resolutions
        assert resolution.antecedent == frozenset({"Tekin"})
        by_name = {
            ";".join(m.base for m in candidate.members): score
            for candidate, score in zip(resolution.survivors, resolution.scores)
        }
        # Tekin leads Ali by recency+nominative+punctuation minus recency
        assert by_name["Tekin"] - by_name["Ali"] == pytest.approx(3.00)

    def test_zero_before_a_closing_quote_matches_quoted_names(self):
        # The zero stands inside the quote that its token, the closing
        # mark, ends: it is quoted like Ali, and Ayşe is not.
        doc = parse_document(
            '" Ali geldi . " Ayşe gitti . " Eve <zero id="1" kind="pers" num="sg"/> " dedi .'
        )
        resolved = resolve_document(doc, DICT)
        assert format_trace(resolved.resolutions) == (
            "1\tresolved\tAli\t5.4500\tAli:10110000=5.4500|Ayşe:01110000=5.4000\n"
        )
        eve_ali = resolved.paraphrased.tokens[9:11]
        assert [(t.surface, t.quoted) for t in eve_ali] == [("Eve", True), ("Ali", True)]

    def test_identical_vectors_tie_goes_to_recent(self):
        doc = parse_document(
            'Ali geldi. Murat geldi. <zero id="1" kind="pers" num="sg"/> Sustu.'
        )
        # make every feature weightless so both candidates tie at 0.0
        zero_weights = PreferenceWeights((0.0,) * 8)
        (resolution,) = resolve_document(doc, DICT, zero_weights).resolutions
        assert resolution.antecedent == frozenset({"Murat"})

    def test_no_pronouns_is_identity(self):
        doc = parse_document("Ali geldi. Murat gitti.")
        resolved = resolve_document(doc, DICT)
        assert resolved.paraphrased == doc
        assert resolved.resolutions == ()

    def test_ambiguous_keeps_text_unchanged(self):
        doc = parse_document(fixture_text("corpora/c3_personal.txt"))
        resolved = resolve_document(doc, DICT)
        assert [r.resolved for r in resolved.resolutions] == [False]
        assert resolved.paraphrased == doc

    def test_zero_chain_gets_history_credit(self):
        doc = parse_document(fixture_text("corpora/p8_zero_antecedent.txt"))
        resolutions = resolve_document(doc, DICT).resolutions
        assert [r.antecedent for r in resolutions] == [frozenset({"Ali"})] * 3
        chosen_flags = []
        for resolution in resolutions:
            best = max(range(len(resolution.scores)), key=resolution.scores.__getitem__)
            chosen_flags.append(resolution.vectors[best].zero_antecedent_history)
        assert chosen_flags == [False, True, True]

    def test_history_skips_zeros_of_the_same_sentence(self):
        # Zero 1's Ali joins the history only once its sentence is walked:
        # zero 2 shares that sentence and gets no credit, zero 3 does.
        doc = parse_document(
            'Ali geldi. <zero id="1" kind="pers" num="sg"/> Güldü, '
            '<zero id="2" kind="pers" num="sg"/> oturdu. '
            '<zero id="3" kind="pers" num="sg"/> Gitti.'
        )
        dictionary = NameDictionary.from_names(["Ali", "Ayşe"])
        lines = format_trace(resolve_document(doc, dictionary).resolutions).splitlines()
        entries = {line.split("\t")[0]: line.split("\t")[4].split("|") for line in lines}
        assert [entry.split("=")[0] for entry in entries["2"]] == ["Ali:11110100"]
        assert entries["3"] and all(entry.split("=")[0].endswith("1") for entry in entries["3"])

    def test_empty_dictionary_makes_everything_ambiguous(self):
        doc = parse_document(fixture_text("corpora/p2_recency.txt"))
        resolved = resolve_document(doc, NameDictionary(frozenset()))
        assert all(not r.resolved for r in resolved.resolutions)

    def test_resolutions_align_with_pronouns(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9)
        assert [r.pronoun_id for r in resolved.resolutions] == [
            m.id for m in doc.pronouns
        ]

    def test_chosen_candidate_satisfies_constraints(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9)
        by_id = {m.id: m for m in doc.pronouns}
        for resolution in resolved.resolutions:
            if not resolution.resolved:
                continue
            best = max(range(len(resolution.scores)), key=resolution.scores.__getitem__)
            assert resolution.survivors[best].number is by_id[resolution.pronoun_id].number

    def test_replacement_never_loses_name_occurrences(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9)

        def name_count(d):
            return sum(1 for t in d.tokens if match_name(t, names9) is not None)

        assert name_count(resolved.paraphrased) >= name_count(doc)

    def test_determinism(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        first = resolve_document(doc, names9)
        second = resolve_document(doc, names9)
        assert first == second
        assert serialize_document(first.paraphrased) == serialize_document(
            second.paraphrased
        )


class TestResolvePronoun:
    def test_empty_survivors_is_ambiguous(self):
        doc = parse_document('<pro id="1">O</pro> geldi.')
        (resolution,) = resolve_document(doc, DICT).resolutions
        assert not resolution.resolved
        assert resolution.survivors == resolution.vectors == resolution.scores == ()

    @staticmethod
    def _walked_survivors(doc, names, records):
        """The survivors the walk hands each pronoun, writing in each record's choice."""
        by_id, walked = {record.pronoun_id: record for record in records}, []

        def choose(window, mention, survivors, history):
            walked.append(tuple(survivors))
            record = by_id[mention.id]
            if not record.resolved:
                return None
            return [m.base for m in record.survivors[most_recent_max(record.scores)].members]

        walk_document(doc, names, SearchScope(), None, choose)
        return walked

    @pytest.mark.parametrize("baseline", [False, True], ids=["resolve", "baseline"])
    def test_each_record_keeps_the_walks_survivors_as_its_columns(self, baseline):
        # On the fixtures, the mini corpus and the 100 golden documents.
        ambiguous = 0
        for _, text, names in _inputs():
            doc = parse_document(text)
            run = baseline_resolve_document if baseline else resolve_document
            records = run(doc, names).resolutions
            assert [r.survivors for r in records] == self._walked_survivors(doc, names, records)
            for record in records:
                columns = (record.survivors, record.vectors, record.scores)
                assert all(type(column) is tuple for column in columns)
                assert len(record.survivors) == len(record.vectors) == len(record.scores)
                if not record.resolved:
                    ambiguous += 1
                    assert columns == ((), (), ())
                elif baseline:
                    assert set(record.vectors) == {None} and set(record.scores) == {0.0}
                else:
                    assert None not in record.vectors and record.score == max(record.scores)
        assert ambiguous > 0


class TestTheWalkAssemblesItsParaphrase:
    # The walk ends in assemble_document, as the parse does, so the builder
    # checks, flags and validates every Document the package returns.
    def test_a_hand_built_documents_quote_flags_give_way_to_the_quote_marks(self):
        doc = parse_document(f'Ali geldi. " Ayşe {ZERO.format(1)} güldü. " Murat sustu.')
        flipped = Document(doc.surfaces, doc.sentence_of, tuple(not q for q in doc.quoted),
                           doc.pronouns)
        for run in (resolve_document, baseline_resolve_document):
            paraphrased = run(flipped, DICT).paraphrased
            paired = _quoted_flags(paraphrased.surfaces, paraphrased.sentence_of)
            assert paraphrased.quoted == tuple(paired)
            assert paraphrased.quoted == run(doc, DICT).paraphrased.quoted

    def test_a_gold_name_that_is_not_one_surface_is_refused_as_the_walk_ends(self):
        doc = parse_document(f"Ali geldi. {ZERO.format(1)} güldü.")
        (mention,) = doc.pronouns
        gold = dataclasses.replace(mention, gold_antecedent=frozenset({"Ali Veli"}))
        with pytest.raises(ValueError) as caught:
            build_instances([dataclasses.replace(doc, pronouns=(gold,))], DICT)
        assert str(caught.value) == (
            "token surface must be non-empty and whitespace-free: 'Ali Veli'"
        )

    def test_each_walk_assembles_its_paraphrase_once(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        walks = [
            (lambda: resolve_document(doc, names9), 1),
            (lambda: baseline_resolve_document(doc, names9), 1),
            (lambda: build_instances([doc, doc, doc], names9), 3),
        ]
        for walk, documents in walks:
            with runs(assemble_document) as assembled:
                walk()
            assert assembled.n == documents


class TestBaseline:
    def test_baseline_prefers_recent_where_system_does_not(self):
        doc = parse_document(fixture_text("corpora/p7_punctuation.txt"))
        (system,) = resolve_document(doc, DICT).resolutions
        (baseline,) = baseline_resolve_document(doc, DICT).resolutions
        assert system.antecedent == frozenset({"Tekin"})
        assert baseline.antecedent == frozenset({"Ali"})

    def test_single_survivor_matches_system(self):
        doc = parse_document(fixture_text("corpora/c2_reflexive.txt"))
        (system,) = resolve_document(doc, DICT).resolutions
        (baseline,) = baseline_resolve_document(doc, DICT).resolutions
        assert system.antecedent == baseline.antecedent == frozenset({"Ali"})

    def test_empty_survivors_is_ambiguous(self):
        doc = parse_document(fixture_text("corpora/c3_personal.txt"))
        (baseline,) = baseline_resolve_document(doc, DICT).resolutions
        assert not baseline.resolved


class TestReplacement:
    def test_overt_replacement_swaps_token(self):
        doc = parse_document('Ayşe geldi. Ali <pro id="1">onu</pro> gördü.')
        replaced = replace_one(doc, doc.pronouns[0], ["Ayşe"])
        first, last = replaced.sentences[1]
        assert [t.surface for t in replaced.tokens[first:last + 1]] == [
            "Ali", "Ayşe", "gördü", ".",
        ]
        assert replaced.pronouns == ()

    def test_zero_insertion_shifts_later_pronouns(self):
        doc = parse_document(
            'Ahmet ve Fatma geldi. <zero id="1" kind="pers" num="pl"/> '
            '<pro id="2">Ona</pro> el salladılar.'
        )
        zero = doc.pronouns[0]
        replaced = replace_one(doc, zero, ["Ahmet", "Fatma"])
        (remaining,) = replaced.pronouns
        assert remaining.id == 2
        assert replaced.tokens[remaining.position].surface == "Ona"
        first, last = replaced.sentences[1]
        assert [t.surface for t in replaced.tokens[first:last + 1]][:3] == [
            "Ahmet", "ve", "Fatma",
        ]

    def test_empty_replacement_rejected(self):
        doc = parse_document(f"Ali geldi. {ZERO.format(1)} Gitti.")
        bad_surface = "token surface must be non-empty and whitespace-free: "
        for names, message in [
            ([], "replacement needs at least one name"),
            ([""], bad_surface + "''"),
            (["Ali Veli"], bad_surface + "'Ali Veli'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                replace_one(doc, doc.pronouns[0], names)

    def test_set_replacement_extracts_as_compound_later(self, names9):
        doc = parse_document(
            "Ali Zeynep'le oyun oynadı. "
            '<zero id="1" kind="pers" num="pl" ant="Ali;Zeynep"/> Parka gittiler. '
            'Murat <pro id="2" ant="Ali;Zeynep">onları</pro> aradı.'
        )
        resolved = resolve_document(doc, names9)
        assert resolved.resolutions[0].antecedent == frozenset({"Ali", "Zeynep"})
        assert resolved.resolutions[1].antecedent == frozenset({"Ali", "Zeynep"})

    @pytest.mark.parametrize(
        "first",
        [
            pytest.param('<zero id="1" kind="pers" num="sg"/>', id="zero-before-comma"),
            pytest.param('<pro id="1">onu</pro>', id="overt-before-comma"),
        ],
    )
    def test_name_written_before_a_comma_scores_punctuation(self, names9, first):
        # The comma after a written-in name is read off the spliced text:
        # the name gets the punctuation preference and 'Ayşe', no longer
        # directly before the comma, loses it.
        doc = parse_document(
            f"Ali geldi. Ayşe {first}, gitti. "
            '<zero id="2" kind="pers" num="sg"/> Güldü.'
        )
        resolved = resolve_document(doc, names9)
        first, last = resolved.paraphrased.sentences[1]
        assert [t.surface for t in resolved.paraphrased.tokens[first:last + 1]][:3] == [
            "Ayşe", "Ali", ",",
        ]
        later = resolved.resolutions[1]
        punctuation = {
            (candidate.sentence_index, candidate.anchor): vector.punctuation
            for candidate, vector in zip(later.survivors, later.vectors)
        }
        assert punctuation == {(0, 0): False, (1, 3): False, (1, 4): True}
        last_entry = format_trace([later]).split("\t")[4].split("|")[-1]
        names, bits = last_entry.split("=")[0].split(":")
        assert (names, bits[FEATURE_NAMES.index("punctuation")]) == ("Ali", "1")

    def test_sentence_count_is_stable(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9)
        assert len(resolved.paraphrased.sentences) == len(doc.sentences)

    def test_tokens_built_per_pronoun_do_not_grow_with_length(self, names9):
        # A count, not a timing: a replacement that copies the whole
        # document copies about k times as many tokens per pronoun at k tiles.
        text = fixture_text("minicorpus/minicorpus.txt")

        def per_pronoun(k):
            tiles = [
                re.sub(r'id="(\d+)"', lambda m: f'id="{int(m.group(1)) + 1000 * t}"', text)
                for t in range(k)
            ]
            doc = parse_document("\n".join(tiles))
            with surfaces_copied(doc) as (copied, counted):
                resolve_document(counted, names9)
            return copied.n / len(doc.pronouns)

        assert per_pronoun(8) <= 1.5 * per_pronoun(1)

    def test_document_elements_built_per_pronoun_do_not_grow_with_length(self, names9):
        # A count, not a timing: a walk that copies its text into a new
        # Document for each sentence or replacement builds about k times as
        # many tokens and mentions per pronoun at k tiles.
        def elements(frame):
            return len(frame.f_locals["surfaces"]) + len(frame.f_locals["pronouns"])

        def per_pronoun(k):
            doc = _tiled_minicorpus(k)
            with runs(Document.__init__, elements) as built:
                resolve_document(doc, names9)
            return built.n / len(doc.pronouns)

        assert per_pronoun(32) <= 1.5 * per_pronoun(1)

    @pytest.mark.parametrize("relative", FIXTURE_FILES)
    def test_documents_hold_token_and_sentence_records(self, relative, names9):
        # A bare tuple equals the record of the same fields, so the
        # differentials would not see one: check the types themselves.
        doc = parse_document(fixture_text(relative))
        documents = [
            doc,
            resolve_document(doc, names9).paraphrased,
            baseline_resolve_document(doc, names9).paraphrased,
            *(replace_one(doc, mention, ["Ali", "Ayşe"]) for mention in doc.pronouns),
        ]
        for document in documents:
            assert all(type(token) is Token for token in document.tokens)
            assert all(type(sentence) is Sentence for sentence in document.sentences)

    @pytest.mark.parametrize("relative", FIXTURE_FILES)
    def test_replacement_leaves_a_parsed_document_unchanged(self, relative):
        doc = parse_document(fixture_text(relative))
        before = copy.deepcopy(doc)
        for mention in doc.pronouns:
            replaced = replace_one(doc, mention, ["Ali"])
            assert doc == before
            assert replaced is not doc
            assert all(
                type(field) is tuple
                for field in (replaced.tokens, replaced.sentences, replaced.pronouns)
            )

    def test_each_input_token_is_copied_once(self):
        # The walk copies each input token into its text once, and no token
        # of its text again; the names written in go straight into the text.
        doc = parse_document(f"Ali geldi. {ZERO.format(1)} güldü. Ayşe geldi. {ZERO.format(2)} sustu.")
        with surfaces_copied(doc) as (copied, counted):
            resolved = resolve_document(counted, DICT)
        written = sum(len(r.antecedent) for r in resolved.resolutions)
        assert (len(doc.surfaces), written) == (10, 2)
        assert copied.n == len(doc.surfaces)
        assert len(resolved.paraphrased.surfaces) == len(doc.surfaces) + written

    def test_parse_resolve_and_serialize_build_no_token(self, names9):
        # They read the columns; Token records are built only for a reader
        # of doc.tokens, by the checking constructor or by Token._make.
        with runs(Token.__new__) as checked, runs(Token._make, builds_token) as made:
            doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
            serialize_document(resolve_document(doc, names9).paraphrased)
        with runs(Token.__new__) as checked_read, runs(Token._make, builds_token) as made_read:
            doc.tokens
        built, read = checked.n + made.n, checked_read.n + made_read.n
        assert (built, read) == (0, len(doc.surfaces))

    def test_parse_and_the_walks_build_no_sentence_record(self, names9):
        # A Document's sentences are read off its sentence column on first
        # read; parse and the walk never read them.
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9).paraphrased
        baseline = baseline_resolve_document(doc, names9).paraphrased
        for document in (doc, resolved, baseline):
            assert "sentences" not in vars(document)

    def test_the_walk_text_reads_its_records_off_its_columns_as_they_stand(self):
        # The working text grows, so it keeps no records from an earlier read;
        # a Document over tuples keeps them from the first.
        doc = parse_document(f"Ali geldi . {ZERO.format(1)} güldü . {ZERO.format(2)} sustu .")
        seen = []

        def choose(index, mention, survivors, history):
            text = index.text
            seen.append((len(text.tokens), len(text.sentences), len(text.surfaces)))
            assert [token.surface for token in text.tokens] == text.surfaces
            return None

        walk_document(doc, DICT, SearchScope(), None, choose)
        assert seen == [(4, 2, 4), (6, 3, 6)]
        assert doc.tokens is doc.tokens and doc.sentences is doc.sentences

    def test_window_scan_of_the_walk_text_builds_its_tokens_once(self):
        # A scan of a copy of the walk's text builds the copy's tokens at
        # most once, however many window tokens it reads.
        doc = parse_document("Ali geldi. " * 50 + f"{ZERO.format(1)} güldü.")
        scans = []

        def choose(index, mention, survivors, history):
            work = snapshot(index.text)
            with runs(Token.__new__) as checked, runs(Token._make, builds_token) as made:
                occurrences = seed_walk.scan_name_occurrences(work, mention, DICT, SearchScope())
            scans.append((len(occurrences), checked.n + made.n, len(work.surfaces)))
            return None

        walk_document(doc, DICT, SearchScope(), None, choose)
        ((names, built, text),) = scans
        assert names == 3
        assert built <= text

    def test_window_base_counts_hold_at_most_twice_the_window_keys(self, names9):
        # A base whose count falls to zero leaves the counts at once, so
        # the keys do not grow with the document's vocabulary.
        doc = _tiled_minicorpus(20)
        sizes = []

        def choose(index, mention, survivors, history):
            start = seed_walk._window_start(snapshot(index.text), mention, SearchScope())
            assert all(count > 0 for count in index.bases.values())
            sizes.append((len(index.bases), mention.position - start))
            return None

        walk_document(doc, names9, SearchScope(), None, choose)
        assert len(sizes) == len(doc.pronouns)
        assert all(keys <= window for keys, window in sizes)

    def test_the_walk_keeps_its_window_without_a_bisect_from_zero_or_a_counter(self, names9):
        # Each walk builds one name index, which every window reader of the
        # walk's text reads, so no window is read from its start anew; the
        # index counts its bases in a plain dict.
        doc = _tiled_minicorpus(2)
        with runs(collections.Counter.update) as updates:
            for walk, corpus, walks in (
                (resolve_document, doc, 1),
                (baseline_resolve_document, doc, 1),
                (build_instances, [doc, _tiled_minicorpus(1), doc], 3),
            ):
                with runs(NameIndex.__init__) as indexes:
                    walk(corpus, names9)
                assert indexes.n == walks, walk.__name__
        assert updates.n == 0

    @staticmethod
    def _resolve_serialize_trace(doc, dictionary):
        resolved = resolve_document(doc, dictionary)
        serialize_document(resolved.paraphrased)
        return format_trace(resolved.resolutions)

    def test_zero_mentions_are_told_by_their_surface(self, names9):
        # The walk, the scorer, the quote flag and serialization read
        # mention.surface, not the overtness property.
        with runs(PronounMention.overtness) as reads:
            self._resolve_serialize_trace(_tiled_minicorpus(2), names9)
        assert reads.n == 0

    def test_the_name_index_reads_analysed_surfaces_off_the_lexicon(self, names9):
        # After one resolve every name surface of the text is analysed, so
        # the index reads each one's flags off the table and analyses none.
        doc = _tiled_minicorpus(2)
        resolve_document(doc, names9)
        with runs(anafor.morphology._Analyses.__missing__) as analysed:
            self._resolve_serialize_trace(doc, names9)
        assert analysed.n == 0

    def test_each_hit_surface_is_analysed_once(self, names9):
        # On a fresh lexicon the walk analyses a surface whose base is a
        # gazetteer name at its first hit only, and keeps each one.
        lexicon = Lexicon.from_text(
            resources.files("anafor").joinpath("data/lexicon.txt").read_text("utf-8")
        )
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        with runs(anafor.morphology._Analyses.__missing__) as analysed:
            paraphrased = resolve_document(doc, names9, lexicon=lexicon).paraphrased
        hits = {
            surface for surface in doc.surfaces + tuple(paraphrased.surfaces)
            if _split_apostrophe(surface)[0] in names9
        }
        assert set(lexicon.analyses) == hits
        assert analysed.n == len(hits) == 20

    def test_each_distinct_vector_is_scored_at_most_once(self, names9):
        # The resolver keeps each vector's score in the weights' table.
        with runs(anafor.scoring.score) as scored:
            trace = self._resolve_serialize_trace(_tiled_minicorpus(2), names9)
        vectors = set(re.findall(r":([01]{8})=", trace))
        assert len(vectors) == 28
        assert scored.n <= len(vectors)

    def test_tokens_built_per_zero_do_not_grow_with_sentences(self):
        # Each sentence's zero but the first resolves to an Ali of an
        # earlier sentence.
        def per_pronoun(n):
            doc = parse_document(" ".join(f"Ali {ZERO.format(i)} güldü." for i in range(n)))
            copied, resolved = _tokens_copied(doc, DICT)
            assert resolved == n - 1
            return copied / n

        assert per_pronoun(2000) <= 1.5 * per_pronoun(20)

    def test_stream_slices_grow_with_pronouns_not_sentences(self):
        # Tokens are streamed in at each pronoun and once after the last
        # sentence: a walk that copied each sentence in as it reached it
        # would slice the input about once per sentence, here about 1000 times.
        doc = parse_document("Ali geldi. " * 1000 + f"{ZERO.format(1)} güldü.")
        with surfaces_copied(doc) as (copied, counted):
            resolved = resolve_document(counted, DICT)
        assert [r.antecedent for r in resolved.resolutions] == [frozenset({"Ali"})]
        assert len(doc.sentences) == 1001
        assert copied.slices <= 2 * len(doc.pronouns) + 1

    def test_zeros_of_one_sentence_build_at_most_length_times_zeros_tokens(self):
        # A loose bound: a splice that shifted the rest of the sentence
        # would build up to its length in tokens per zero.
        zeros = 200
        doc = parse_document(
            "Ali geldi. " + " ".join(f"{ZERO.format(i)} güldü" for i in range(zeros)) + "."
        )
        sentence = doc.sentences[1]
        copied, resolved = _tokens_copied(doc, DICT)
        assert resolved == zeros
        assert copied <= (sentence.last - sentence.first + 1) * zeros

    def test_one_long_sentence_is_matched_once_per_window_token(self):
        # A zero at the end of a 20000-token sentence that names Ayşe on
        # every tenth token: its window is the whole sentence, and each
        # window token is matched against the gazetteer once.
        words = " ".join("Ayşe" if i % 10 == 0 else "sonra" for i in range(20000))
        doc = parse_document(f"Ali geldi. {words} {ZERO.format(1)} güldü.")
        (pronoun,) = doc.pronouns
        lookups, copied, resolved = _walk_counts(doc, DICT)
        assert [r.antecedent for r in resolved.resolutions] == [frozenset({"Ali"})]
        assert lookups <= pronoun.position
        assert copied == len(doc.surfaces)

    def test_ve_linked_names_before_plural_zeros_are_matched_once_per_window(self):
        # Each plural zero takes the compound of all 300 names, so every
        # later zero's window holds the names written in before it.
        names = sorted(DICT)
        doc = parse_document(chain_text(names, 300, 5))
        lookups, copied, resolved = _walk_counts(doc, DICT)
        assert [r.antecedent for r in resolved.resolutions] == [frozenset(names)] * 5
        paraphrase = [token.surface for token in resolved.paraphrased.tokens]
        # A zero's window ends where the names written for it begin, before
        # its verb.
        verbs = [i for i, surface in enumerate(paraphrase) if surface == "güldü"]
        assert lookups <= sum(verbs)
        second = doc.sentences[1]
        assert copied <= len(paraphrase) + 5 * (second.last - second.first + 1)

    def test_linkers_are_lowered_at_most_once_per_name(self):
        # A count, not a timing: 500 sentences of a two-name compound, each
        # followed by a plural zero that takes it.  Merging each window's
        # names into compounds afresh at every pronoun lowercases the
        # linkers of every sentence in the window again, about three times
        # per name here; the name index lowercases one linker as a name
        # enters it, if any.
        zero = '<zero id="{}" kind="pers" num="pl"/>'
        doc = parse_document(
            " ".join(f"Ali ve Ayşe geldi. {zero.format(i)}" for i in range(500)) + " Güldü."
        )
        with runs(turkish_lower) as lowered:
            resolved = resolve_document(doc, DICT)
        assert [r.antecedent for r in resolved.resolutions] == [frozenset({"Ali", "Ayşe"})] * 500
        names = sum(surface in DICT for surface in resolved.paraphrased.surfaces)
        assert names == 2000
        assert 0 < lowered.n <= names

    @staticmethod
    def _probe_counts(tokens):
        # Gazetteer lookups, tokens copied, names written in and the probe.
        doc = parse_document(filler_text(tokens))
        lookups, copied, resolved = _walk_counts(doc, DICT)
        assert len(doc.tokens) == tokens and len(doc.pronouns) == tokens // 50 - 1
        written = sum(len(r.antecedent) for r in resolved.resolutions if r.resolved)
        assert written == len(doc.pronouns)
        return lookups, copied, written, doc

    # Counts, not timings: a walk that re-reads the sentence left of each
    # pronoun, or shifts the rest of the sentence on each splice, does so
    # about tokens / 100 times per token of the probe.
    @pytest.mark.parametrize("tokens", [2000, 8000])
    def test_long_sentence_matches_each_token_once(self, tokens):
        lookups, _, written, doc = self._probe_counts(tokens)
        assert 0 < lookups <= len(doc.tokens) + written

    @pytest.mark.parametrize("tokens", [2000, 8000])
    def test_long_sentence_builds_each_token_once(self, tokens):
        _, copied, written, doc = self._probe_counts(tokens)
        assert copied <= len(doc.tokens) + written + len(doc.sentences)

    @pytest.mark.parametrize("tokens", [2000, 8000])
    def test_long_sentence_reads_no_candidate_but_the_survivors(self, tokens):
        # A count, not a timing: each reflexive of the probe has every Ali
        # written in before it as a candidate, tokens / 100 of them at the
        # last one.  Filtering them by number reads Candidate.number of
        # each, and taking the nearest reads the anchor of each; the name
        # index keeps the candidates by number and hands a reflexive the
        # last of its number, so the walk reads neither property.
        doc = parse_document(filler_text(tokens))
        with runs(Candidate.number) as numbers, runs(Candidate.anchor) as anchors:
            resolved = resolve_document(doc, DICT)
        survivors = sum(len(r.survivors) for r in resolved.resolutions)
        assert all(r.resolved for r in resolved.resolutions)
        assert survivors == len(doc.pronouns)
        assert numbers.n == 0
        assert numbers.n + anchors.n <= survivors

    def test_compound_members_built_per_pronoun_grow_linearly_with_the_chain(self):
        # A count, not a timing: one sentence of n names joined by ve, then
        # five plural zeros, each written in as the n-name compound that the
        # next zero reads again.  Building a longer compound at each link
        # copies the run so far, about n * n / 2 members per chain; a run
        # that grows a list of members builds its compound once, n members.
        names = sorted(DICT)

        def members_per_pronoun(n):
            doc = parse_document(chain_text(names, n, 5))
            with compound_members() as built:
                resolved = resolve_document(doc, DICT)
            assert [r.antecedent for r in resolved.resolutions] == [frozenset(names)] * 5
            return built.n / len(doc.pronouns)

        short, long = members_per_pronoun(300), members_per_pronoun(1200)
        assert 0 < short <= 2 * 300
        assert long <= 4 * short

    def test_window_reads_do_not_grow_with_survivors(self):
        # A count, not a timing: scoring that re-reads the window for each
        # survivor looks up every window token once per survivor.  Every
        # lookup is counted, by whatever code makes it.
        def lookups(first_sentence):
            doc = parse_document(
                f'{first_sentence} geldi. <zero id="1" kind="pers" num="sg"/> Güldü.'
            )
            looked_up, gazetteer = gazetteer_lookups(DICT)
            (resolution,) = resolve_document(doc, gazetteer).resolutions
            return len(resolution.survivors), looked_up.n

        eight_survivors, eight_calls = lookups("Ali Ayşe Ahmet Fatma Zerrin Murat Zeynep Tekin")
        one_survivor, one_calls = lookups("Ali sonra sonra sonra sonra sonra sonra sonra")
        assert (eight_survivors, one_survivor) == (8, 1)
        assert 0 < eight_calls <= one_calls

    @pytest.mark.parametrize("commas", [200, 2000])
    def test_leading_punctuation_is_read_once_per_sentence(self, commas):
        # A count, not a timing: one sentence of commas, then Ali, then 200
        # reflexive zeros that each take the Ali nearest them.  Finding the
        # sentence's first phrase token once per pronoun reads every comma
        # again for each zero.  Every module of the package is counted.
        doc = parse_document(commas_text(commas))
        with punctuation_lookups() as lookups:
            resolved = resolve_document(doc, DICT)
        assert all(resolution.resolved for resolution in resolved.resolutions)
        assert 0 < lookups.n <= len(doc.tokens)


AMBIGUOUS_LINE = "trace line 2: an ambiguous line has '-' in its last three fields"


class TestTraceIO:
    def test_round_trip(self, names9):
        doc = parse_document(fixture_text("minicorpus/minicorpus.txt"))
        resolved = resolve_document(doc, names9)
        records = parse_trace(format_trace(resolved.resolutions))
        assert len(records) == len(resolved.resolutions)
        for record, resolution in zip(records, resolved.resolutions):
            assert record.pronoun_id == resolution.pronoun_id
            assert record.antecedent == resolution.antecedent
            if resolution.score is None:
                assert record.score is None
            else:
                assert record.score == float(f"{resolution.score:.4f}")
        assert any(record.score is None for record in records)

    def test_ambiguous_line_shape(self):
        doc = parse_document(fixture_text("corpora/c3_personal.txt"))
        resolved = resolve_document(doc, DICT)
        line = format_trace(resolved.resolutions).strip()
        assert line.split("\t")[:3] == ["1", "ambiguous", "-"]

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            parse_trace("1\tmaybe\tAli\t-\t-\n")
        with pytest.raises(ValueError, match="5 tab-separated fields"):
            parse_trace("1\tresolved\n")
        with pytest.raises(ValueError, match="bad score"):
            parse_trace("1\tresolved\tAli\tx\t-\n")
        with pytest.raises(ValueError, match="trace line 2: bad pronoun id 'x'"):
            parse_trace("1\tambiguous\t-\t-\t-\nx\tambiguous\t-\t-\t-\n")
        with pytest.raises(ValueError, match="bad antecedent field"):
            parse_trace("1\tresolved\tAli;\t1.0000\t-\n")

    # A name with whitespace, or one listed twice, used to read as a name
    # set that no gold equals, or as the set without the repeat.
    @pytest.mark.parametrize(
        "field", ["Ali; Veli", "Ali ;Veli", " Ali", "Ali Veli", "Ali\u00a0Veli", "Ali;Ali",
                  "Ali;Veli;Ali", ";", "Ali;;Veli"],
    )
    def test_an_antecedent_field_of_names_that_are_not_distinct_surfaces_is_rejected(
        self, field
    ):
        with pytest.raises(ValueError) as caught:
            parse_trace(f"1\tambiguous\t-\t-\t-\n2\tresolved\t{field}\t1.0000\t-\n")
        assert str(caught.value) == "trace line 2: bad antecedent field"

    def test_blank_and_whitespace_only_lines_are_skipped(self):
        lines = ["1\tresolved\tAli;Veli\t1.0000\t-", "2\tambiguous\t-\t-\t-"]
        assert parse_trace(f"\n  \n{lines[0]}\n\t\n{lines[1]}\n \n") == parse_trace(
            "\n".join(lines)
        )
        with pytest.raises(ValueError, match="trace line 3: unknown outcome"):
            parse_trace("\n \n1\tmaybe\t-\t-\t-\n")

    # A line whose fields contradict its outcome; format_trace writes none.
    @pytest.mark.parametrize(
        "line,message",
        [
            ("1\tambiguous\tAli\t0.5\tjunk", AMBIGUOUS_LINE),
            ("1\tambiguous\tAli\t-\t-", AMBIGUOUS_LINE),
            ("1\tambiguous\t-\t0.5\t-", AMBIGUOUS_LINE),
            ("1\tambiguous\t-\t-\tAli:0000=0.0000", AMBIGUOUS_LINE),
            ("1\tresolved\tAli\t-\t-", "trace line 2: bad score '-'"),
            ("1\tresolved\tAli\tnan\t-", "trace line 2: bad score 'nan'"),
            ("1\tresolved\tAli\t-NaN\tAli:0000=0.0000", "trace line 2: bad score '-NaN'"),
        ],
    )
    def test_fields_that_contradict_the_outcome_are_rejected(self, line, message):
        with pytest.raises(ValueError) as caught:
            parse_trace(f"2\tambiguous\t-\t-\t-\n{line}\n")
        assert str(caught.value) == message

    def test_an_infinite_score_is_a_score(self):
        # Large finite weights can sum to inf; they cannot sum to NaN.
        records = parse_trace("1\tresolved\tAli\tinf\t-\n2\tresolved\tAli\t-inf\t-\n")
        assert [record.score for record in records] == [math.inf, -math.inf]

    def test_one_leading_byte_order_mark_is_dropped(self):
        line = "1\tresolved\tAli\t1.0000\t-\n"
        assert parse_trace("\ufeff" + line) == parse_trace(line)
        with pytest.raises(ValueError, match="bad pronoun id"):
            parse_trace("\ufeff\ufeff" + line)
