"""Compare the resolve op of two checkouts in one process, round by round.

    python3 scripts/ab_walk.py PARENT CHANGE [--rounds 40] [--seed 0]

Each checkout's ``src/anafor`` is copied into a temporary directory under
a package name of its own (``anafor_parent``, ``anafor_change``; the
package imports itself only relatively), so both load in one interpreter.
Each copy is called as the benchmark calls the program, with no lexicon
argument, so each reads the default lexicon of its own package: the
lexicon file of its own ``data`` directory.  The inputs
are those of two benchmark workloads, built as
``scripts/sentence_probe.py`` builds them, with the benchmark's gazetteer:
``long_story`` is the mini corpus tiled ``LONG_STORY_TILES`` times, one
document, and ``dense_shorts`` the first ``DENSE_DOCUMENTS`` generated
documents of ``random.Random(1)``, each its own document.

First both copies resolve every input, with the resolver and with the
baseline, and the script stops with an error unless they give the same
paraphrase and trace.  Then in each round it
times, for each workload, each copy's resolve op as the benchmark runs it
(parse, resolve, serialize, trace): ``LONG_STORY_OPS`` ops on the
long_story text, or one op on each dense_shorts document.  The two copies
run in an order shuffled anew in every round.  The round's ratio is the
parent's time over the change's, the change's throughput relative to the
parent's.  The script prints per workload the median and quartiles of
that ratio over the rounds, then one JSON line with the same figures.
Given one checkout twice, it prints the A/A spread: how far the ratio
moves on this host when nothing changed.  The inputs come from the
``perfbench`` and fixtures of the checkout that holds this script.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench.workloads loads this checkout's anafor
from perfbench import corpora  # noqa: E402
from perfbench.workloads import DENSE_DOCUMENTS, LONG_STORY_TILES  # noqa: E402

LONG_STORY_OPS = 20  # about as long as one pass over the dense_shorts documents
SIDES = ("parent", "change")


def inputs() -> tuple[dict[str, list[str]], list[str]]:
    """Each workload's texts, and the benchmark's gazetteer."""
    minicorpus, oracle = corpora.read_minicorpus(ROOT)
    gazetteer, names = corpora.build_gazetteer(ROOT, minicorpus)
    rng = random.Random(1)
    dense = [corpora.generate_document(rng, names) for _ in range(DENSE_DOCUMENTS)]
    long_story = corpora.tile_minicorpus(minicorpus, LONG_STORY_TILES, oracle.stride)
    return {"long_story": [long_story] * LONG_STORY_OPS, "dense_shorts": dense}, gazetteer


def load_copy(checkout: Path, package: str, into: Path, gazetteer: list[str]):
    """The resolve op of ``checkout``'s package, loaded as ``package``, and
    the same op run with the baseline."""
    shutil.copytree(checkout / "src" / "anafor", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    corpus = importlib.import_module(f"{package}.corpus")
    resolver = importlib.import_module(f"{package}.resolver")
    dictionary = corpus.NameDictionary.from_names(gazetteer)

    def op(text: str, resolve=resolver.resolve_document) -> tuple[str, str]:
        doc = corpus.parse_document(text)
        resolved = resolve(doc, dictionary)
        paraphrase = corpus.serialize_document(resolved.paraphrased)
        return paraphrase, resolver.format_trace(resolved.resolutions)

    return op, lambda text: op(text, resolver.baseline_resolve_document)


def seconds(op, texts: list[str]) -> float:
    gc.collect()
    start = time.perf_counter()
    for text in texts:
        op(text)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout compared against")
    parser.add_argument("change", type=Path, help="the checkout measured")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0, help="seed of the shuffled order")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: the quartiles need two rounds")
    workloads, gazetteer = inputs()
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        copies = {side: load_copy(checkout.resolve(), f"anafor_{side}", Path(scratch), gazetteer)
                  for side, checkout in zip(SIDES, (args.parent, args.change))}
        for workload, texts in workloads.items():
            for k, text in enumerate(dict.fromkeys(texts)):
                for walk, name in enumerate(("resolve", "baseline")):
                    outputs = {side: copies[side][walk](text) for side in SIDES}
                    if outputs["parent"] != outputs["change"]:
                        sys.exit(f"{workload} document {k}: {name}'s paraphrase or trace differs")
        ops = {side: copies[side][0] for side in SIDES}
        order, ratios = random.Random(args.seed), {workload: [] for workload in workloads}
        for _ in range(args.rounds):
            for workload, texts in workloads.items():
                sides = list(SIDES)
                order.shuffle(sides)
                spent = {side: seconds(ops[side], texts) for side in sides}
                ratios[workload].append(spent["parent"] / spent["change"])
    report = {}
    for workload, values in ratios.items():
        low, median, high = statistics.quantiles(values, n=4)
        report[workload] = {"median": round(median, 4), "q1": round(low, 4),
                            "q3": round(high, 4), "rounds": len(values)}
        print(f"{workload}: change/parent throughput {median:.3f} "
              f"(quartiles {low:.3f}-{high:.3f}, {len(values)} rounds)")
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
