"""Cost per pronoun inside one long sentence, and the memory a parsed
document holds per token.

    PYTHONPATH=src python3 scripts/sentence_probe.py [--tokens 2000 8000 32000] \
        [--chain 500 2000 8000] [--repeat 3] [--startup-only]

Two shapes of one sentence, each of ``--tokens`` tokens.  ``filler`` is
filler words with ``Ali`` at its start and a reflexive zero pronoun before
every 50th token, so every pronoun's window is the sentence left of it.
``commas`` is commas, then ``Ali``, then 200 reflexive zeros each before a
verb, so the sentence's first phrase token comes after every comma.  For
each shape and length the script prints one JSON line: the
best-of-``--repeat`` milliseconds per pronoun of ``resolve_document``, and
from one more run, per pronoun, the gazetteer lookups (the walk's name
index looks up the base of each window token once), the ``Token``
records built (none: the walk reads and splices token columns), the tokens
copied (the surfaces the walk slices out of the input's columns and its
own), the lookups plus the copies (the tokens touched) and the tests
against the punctuation marks.  The documents and the counters are those
of the count pins (``tests/counting.py``): the lookups are the tests of
membership in the gazetteer's entries, and the records built the runs of
``Token.__new__`` and a Token's ``Token._make``, under whatever name they
are called.

The ``chain`` shape is one sentence of ``--chain`` gazetteer names joined
by ``ve``, then a sentence of ``CHAIN_ZEROS`` plural zeros, with the
``CHAIN_DICTIONARY`` names at the default scope of 3.  Each zero takes the
compound of all the names and is written in as it, so the next zero's
window holds one more such chain.  Its line gives the best-of-``--repeat``
milliseconds per pronoun and, from one more run, the members of the
compound candidates built per pronoun.

The line ``long`` parses the long-document probe: the first
``PROBE_DOCUMENTS`` documents of the benchmark's generator from
``random.Random(1)``, one per line with their pronoun ids made unique.
It gives the bytes held per token (``tracemalloc``) by the parsed
Document, and after ``resolve_document`` with the benchmark's gazetteer
by the Document, its paraphrase and the resolutions with their traces.

Two last lines, ``stages``, time the layers of ``anafor resolve --trace``
on the shape of a benchmark workload each.  ``dense_shorts`` is the first
``DENSE_DOCUMENTS`` generated documents of ``random.Random(1)``, each its
own document, one at a time; ``long_story`` is the mini corpus tiled
``LONG_STORY_TILES`` times, as one document.  Each gives the
best-of-``--repeat`` milliseconds per pronoun, summed over the documents,
of each layer: parse, the walk (``resolve_document``),
``serialize_document`` and ``format_trace``.  It gives each layer per
document in reference units too, as the benchmark reports an op: the
best-of-``--repeat`` seconds divided by the documents and by the mean of
two runs of ``perfbench.reference.reference_seconds``, one just before the
layers are timed and one just after (``reference_ms``).  On a shared
2-vCPU host raw milliseconds moved by up to 30% between identical runs;
the reference units cancel the host's speed, as the benchmark's do.

The line ``startup``, printed first (and alone with ``--startup-only``),
times what ``anafor resolve`` does before it reads its text.  The
benchmark's gazetteer, then names drawn from ``random.Random(1)`` up to
``LARGE_GAZETTEER`` lines, are written to a file under ``.perfbench/``.
It gives the best of ``STARTUP_REPEAT`` in-process runs of
``load_dictionary``, in milliseconds, on that file, on the benchmark's
gazetteer and on ``tests/fixtures/names9.txt``.  Then it runs
``python -m anafor.cli resolve`` on the benchmark's setup document
``SETUP_RUNS`` times with each of the two larger gazetteers, through the
benchmark's ``SetupProbe``: each run is divided by bare ``python -c pass``
runs timed just before and just after it, and the median is given in
seconds on a host whose bare start takes ``BARE_START_S`` (``setup_s``),
beside the median wall time.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import re
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from anafor import (
    NameDictionary, default_lexicon, format_trace, load_dictionary, parse_document,
    resolve_document, serialize_document, turkish_upper,
)
from anafor.textmodel import Token

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]
from counting import (  # noqa: E402
    builds_token, chain_text, commas_text, compound_members, filler_text, gazetteer_lookups,
    punctuation_lookups, runs, surfaces_copied,
)
from perfbench import corpora  # noqa: E402
from perfbench.reference import reference_seconds  # noqa: E402
from perfbench.run import BARE_START_S, WORK_DIR, SetupProbe  # noqa: E402
from perfbench.workloads import DENSE_DOCUMENTS, LONG_STORY_TILES  # noqa: E402

DICTIONARY = NameDictionary.from_names(["Ali", "Ayşe"])
CHAIN_DICTIONARY = NameDictionary.from_names(["Ali", "Ayşe", "Fatma", "Murat"])
CHAIN_ZEROS = 20
PROBE_DOCUMENTS = 800  # ROADMAP's long-document probe
LARGE_GAZETTEER = 100_000
LETTERS = "abcçdefgğhıijklmnoöprsştuüvyz"
STARTUP_REPEAT = 5
SETUP_RUNS = 11


def best_ms_per_pronoun(doc, dictionary: NameDictionary, repeat: int) -> float:
    """Best-of-``repeat`` milliseconds per pronoun of ``resolve_document``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        resolve_document(doc, dictionary)
        times.append(time.perf_counter() - start)
    return round(1000 * min(times) / len(doc.pronouns), 3)


def counted(doc) -> tuple[int, int, int, int]:
    """Gazetteer lookups, ``Token``s built, tokens copied and punctuation
    tests by one resolve of ``doc``."""
    lookups, gazetteer = gazetteer_lookups(DICTIONARY)
    with (
        runs(Token.__new__) as checked,
        runs(Token._make, builds_token) as made,
        surfaces_copied(doc) as (copied, counting),
        punctuation_lookups() as punctuation,
    ):
        resolve_document(counting, gazetteer)
    return lookups.n, checked.n + made.n, copied.n, punctuation.n


def generated(count: int) -> tuple[list[str], NameDictionary]:
    """The first ``count`` documents of the benchmark's generator from
    ``random.Random(1)``, and the benchmark's gazetteer."""
    minicorpus, _ = corpora.read_minicorpus(ROOT)
    gazetteer, names = corpora.build_gazetteer(ROOT, minicorpus)
    rng = random.Random(1)
    texts = [corpora.generate_document(rng, names) for _ in range(count)]
    return texts, NameDictionary.from_names(gazetteer)


def long_document() -> tuple[str, NameDictionary]:
    """The first ``PROBE_DOCUMENTS`` generated documents, one per line,
    pronoun ids made unique, and the benchmark's gazetteer."""
    texts, dictionary = generated(PROBE_DOCUMENTS)
    texts = [
        re.sub(r'id="(\d+)"', lambda m: f'id="{100 * k + int(m[1])}"', text)
        for k, text in enumerate(texts)
    ]
    return "\n".join(texts), dictionary


def long_story() -> str:
    """The long_story document: the mini corpus tiled ``LONG_STORY_TILES``
    times, pronoun ids made unique."""
    minicorpus, oracle = corpora.read_minicorpus(ROOT)
    return corpora.tile_minicorpus(minicorpus, LONG_STORY_TILES, oracle.stride)


def stages(
    texts: list[str], dictionary: NameDictionary, repeat: int
) -> tuple[dict[str, float], float]:
    """Best-of-``repeat`` seconds of each layer over ``texts``, and the mean
    of the benchmark's reference computation timed before and after them."""
    default_lexicon()  # loaded once, not timed
    reference = reference_seconds()
    runs = []
    for _ in range(repeat):
        spent = [0.0] * 4
        for text in texts:  # one document at a time, as an op of the benchmark
            times = [time.perf_counter()]
            doc = parse_document(text)
            times.append(time.perf_counter())
            resolved = resolve_document(doc, dictionary)
            times.append(time.perf_counter())
            serialize_document(resolved.paraphrased)
            times.append(time.perf_counter())
            format_trace(resolved.resolutions)
            times.append(time.perf_counter())
            spent = [total + end - start for total, start, end in zip(spent, times, times[1:])]
        runs.append(spent)
    reference = (reference + reference_seconds()) / 2
    return dict(zip(("parse", "walk", "serialize", "trace"), map(min, zip(*runs)))), reference


def bytes_held(text: str, dictionary: NameDictionary) -> tuple[int, int, int, int]:
    """Tokens, pronouns and the bytes held after parsing ``text`` and
    after resolving the parsed Document."""
    default_lexicon()  # loaded once, not counted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = parse_document(text)
        gc.collect()
        parsed = tracemalloc.get_traced_memory()[0] - before
        resolved = resolve_document(doc, dictionary)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return len(doc.surfaces), len(resolved.resolutions), parsed, held


def large_gazetteer(path: Path, entries: list[str]) -> None:
    """Write ``entries``, then names of 3 to 9 letters drawn from
    ``random.Random(1)``, to ``path``, one a line, ``LARGE_GAZETTEER`` lines
    in all."""
    rng = random.Random(1)
    words = ["".join(rng.choices(LETTERS, k=rng.randint(3, 9)))
             for _ in range(LARGE_GAZETTEER - len(entries))]
    names = entries + [turkish_upper(word[0]) + word[1:] for word in words]
    path.write_text("".join(f"{name}\n" for name in names), encoding="utf-8")


def startup() -> dict:
    """The ``startup`` line: ``load_dictionary`` in process, and whole
    ``anafor resolve`` processes as the benchmark's ``SetupProbe`` runs them."""
    WORK_DIR.mkdir(exist_ok=True)
    large, benchmark = WORK_DIR / "names-large.txt", WORK_DIR / "names-benchmark.txt"
    entries, _ = corpora.build_gazetteer(ROOT, corpora.read_minicorpus(ROOT)[0])
    large_gazetteer(large, entries)
    benchmark.write_text("\n".join(entries) + "\n", encoding="utf-8")
    line = {"shape": "startup"}
    for label, path in (("large", large), ("benchmark", benchmark),
                        ("names9", ROOT / "tests" / "fixtures" / "names9.txt")):
        times = []
        for _ in range(STARTUP_REPEAT):
            start = time.perf_counter()
            loaded = load_dictionary(path)
            times.append(time.perf_counter() - start)
        line[f"load_{label}_names"] = len(loaded)
        line[f"load_{label}_ms"] = round(1000 * min(times), 2)
    for label, path in (("benchmark", benchmark), ("large", large)):
        probe = SetupProbe(path)
        for _ in range(SETUP_RUNS):
            probe.run_once()
        if probe.problems:
            raise SystemExit(probe.problems[0])
        line[f"setup_{label}_s"] = round(statistics.median(probe.scaled), 4)
        line[f"setup_{label}_wall_s"] = round(statistics.median(probe.times), 4)
    line["bare_start_s"] = BARE_START_S
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tokens", type=int, nargs="+", default=[2000, 8000])
    parser.add_argument("--chain", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--startup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(startup()), flush=True)
    if args.startup_only:
        return
    for length in args.tokens:
        shapes = ("filler", filler_text(length)), ("commas", commas_text(length - 202))
        for shape, text in shapes:
            doc = parse_document(text)
            pronouns = len(doc.pronouns)
            ms = best_ms_per_pronoun(doc, DICTIONARY, args.repeat)
            lookups, built, copied, punctuation = counted(doc)
            print(json.dumps({
                "shape": shape,
                "tokens": len(doc.surfaces),
                "pronouns": pronouns,
                "ms_per_pronoun": ms,
                "lookups_per_pronoun": round(lookups / pronouns, 2),
                "tokens_built_per_pronoun": round(built / pronouns, 2),
                "tokens_copied_per_pronoun": round(copied / pronouns, 2),
                "tokens_touched_per_pronoun": round((lookups + copied) / pronouns, 2),
                "punctuation_tests_per_pronoun": round(punctuation / pronouns, 2),
            }))
    for names in args.chain:
        doc = parse_document(chain_text(sorted(CHAIN_DICTIONARY), names, CHAIN_ZEROS))
        ms = best_ms_per_pronoun(doc, CHAIN_DICTIONARY, args.repeat)
        with compound_members() as members:
            resolve_document(doc, CHAIN_DICTIONARY)
        print(json.dumps({
            "shape": "chain",
            "names": names,
            "tokens": len(doc.surfaces),
            "pronouns": len(doc.pronouns),
            "ms_per_pronoun": ms,
            "compound_members_per_pronoun": round(members.n / len(doc.pronouns), 2),
        }))
    tokens, pronouns, parsed, resolved = bytes_held(*long_document())
    print(json.dumps({
        "shape": "long",
        "tokens": tokens,
        "pronouns": pronouns,
        "bytes_per_token": round(parsed / tokens, 1),
        "bytes_per_token_resolved": round(resolved / tokens, 1),
    }))
    dense, dictionary = generated(DENSE_DOCUMENTS)  # the benchmark's gazetteer for both
    for workload, texts in (("dense_shorts", dense), ("long_story", [long_story()])):
        timed, reference = stages(texts, dictionary, args.repeat)
        pronouns = sum(len(parse_document(text).pronouns) for text in texts)
        print(json.dumps({
            "shape": "stages",
            "workload": workload,
            "documents": len(texts),
            "pronouns": pronouns,
            **{f"{stage}_ms_per_pronoun": round(1000 * s / pronouns, 4)
               for stage, s in timed.items()},
            "reference_ms": round(1000 * reference, 3),
            **{f"{stage}_ref_per_document": round(s / len(texts) / reference, 5)
               for stage, s in timed.items()},
        }))


if __name__ == "__main__":
    main()
