"""Tests of the benchmark's own input builders and output checks."""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from anafor import NameDictionary, parse_document  # noqa: E402
from anafor.scoring import PreferenceWeights, format_weights, parse_weights  # noqa: E402

from perfbench import corpora  # noqa: E402
from perfbench.checks import check_generated  # noqa: E402
from perfbench.run import Loop, _direct  # noqa: E402
from perfbench.workloads import DenseShorts, Inputs, LongStory, TrainCompare  # noqa: E402


@pytest.fixture(scope="module")
def inputs() -> Inputs:
    minicorpus, oracle = corpora.read_minicorpus(ROOT)
    entries, generator_names = corpora.build_gazetteer(ROOT, minicorpus)
    return Inputs(NameDictionary.from_names(entries), generator_names, minicorpus, oracle)


def test_gazetteer_keeps_common_nouns_out(inputs):
    assert len(inputs.names) >= corpora.SYNTHETIC_NAME_COUNT
    assert set(inputs.generator_names) <= inputs.names.entries
    assert {"Ayşe", "Murat", "Zeynep"} <= inputs.names.entries
    assert not {"Deniz", "Hava", "Sokak", "Bu", "Kapıdaki"} & inputs.names.entries


def test_generator_is_deterministic(inputs):
    first = corpora.generate_document(random.Random(7), inputs.generator_names)
    again = corpora.generate_document(random.Random(7), inputs.generator_names)
    other = corpora.generate_document(random.Random(8), inputs.generator_names)
    assert first == again != other
    assert len(parse_document(first).pronouns) == 6


@pytest.mark.parametrize("workload", [LongStory, DenseShorts, TrainCompare])
def test_every_workload_passes_its_checks(inputs, workload):
    loop = Loop(workload(inputs, seed=3))
    for i in range(3):
        assert loop.op(i, _direct) is not None, loop.problems
    assert (loop.attempted, loop.failed) == (3, 0)


def _corrupt_first_resolved(resolved, name="Tekin"):
    resolutions = list(resolved.resolutions)
    i = next(k for k, r in enumerate(resolutions) if r.antecedent)
    resolutions[i] = dataclasses.replace(resolutions[i], antecedent=frozenset({name}))
    return dataclasses.replace(resolved, resolutions=tuple(resolutions))


def test_one_corrupted_antecedent_fails_the_op(inputs):
    workload = LongStory(inputs, seed=3, tiles=1)
    loop = Loop(workload)

    def corrupted(run):
        doc, resolved, paraphrase, trace = run()
        return doc, _corrupt_first_resolved(resolved), paraphrase, trace

    assert loop.op(0, corrupted) is None
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "oracle says" in loop.problems[0]


def test_antecedent_outside_the_window_fails_a_generated_document(inputs):
    workload = DenseShorts(inputs, seed=3)
    doc, resolved, paraphrase, _trace = workload.run(0)
    assert check_generated(doc, resolved, inputs.names, paraphrase) == []
    # "Baba" is a gazetteer entry that no generated text contains.
    problems = check_generated(doc, _corrupt_first_resolved(resolved, "Baba"),
                               inputs.names, paraphrase)
    assert any("not in its input window" in p for p in problems)


def test_wrong_training_fails_the_op(inputs):
    loop = Loop(TrainCompare(inputs, seed=3))

    def fewer_instances(run):
        *rest, instances, skipped, report = run()
        return (*rest, instances[1:], skipped, report)

    def nudged_weights(run):
        *rest, weights_text, instances, skipped, report = run()
        weights = parse_weights(weights_text)
        nudged = PreferenceWeights((weights.values[0] + 0.05,) + weights.values[1:])
        return (*rest, format_weights(nudged), instances, skipped, report)

    assert loop.op(0, fewer_instances) is None
    assert "gold pronouns" in loop.problems[-1]
    assert loop.op(1, nudged_weights) is None
    assert "reference trainer" in loop.problems[-1]


def test_changed_output_on_a_repeat_fails(inputs):
    workload = LongStory(inputs, seed=3, tiles=1)
    loop = Loop(workload)
    assert loop.op(0, _direct) is not None

    def edited(run):
        doc, resolved, paraphrase, trace = run()
        return doc, resolved, paraphrase + "\n", trace

    assert loop.op(1, edited) is None
    assert "changed between repeats" in loop.problems[0]


def test_tracing_survives_a_missing_target_and_accounts_all_op_time(inputs, monkeypatch):
    from perfbench import tracing

    gone = ("anafor.resolver", "no_such_function", "resolver.no_such_function", True, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    assert tracer.missing == ["anafor.resolver.no_such_function"]
    workload = LongStory(inputs, seed=3, tiles=1)
    tracer.run_op(lambda: workload.run(0))
    assert tracer.calls["resolver.replace_mention"] == 28  # resolved mini-corpus pronouns
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.total_time("op"))
