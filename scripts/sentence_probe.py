"""Cost per pronoun inside one long sentence.

    PYTHONPATH=src python3 scripts/sentence_probe.py [--tokens 2000 8000] [--repeat 3]

Two shapes of one sentence, each of ``--tokens`` tokens.  ``filler`` is
filler words with ``Ali`` at its start and a reflexive zero pronoun before
every 50th token, so every pronoun's window is the sentence left of it.
``commas`` is commas, then ``Ali``, then 200 reflexive zeros each before a
verb, so the sentence's first phrase token comes after every comma.  For
each shape and length the script prints one JSON line: the
best-of-``--repeat`` milliseconds per pronoun of ``resolve_document``, and
from one more run, per pronoun, the gazetteer lookups (the walk's name
index splits each window token once to look up its base), the ``Token``s
built, their sum (the tokens touched) and the tests against the
punctuation marks.  The counters are those of the tests
(``tests/counting.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import anafor.candidates
from anafor import NameDictionary, parse_document, resolve_document

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from counting import calls, punctuation_lookups, tokens_built  # noqa: E402

FILLERS = ("sonra", "eve", "döndü", "bir", "kitap", "okudu")
ZERO = '<zero id="{}" kind="refl" num="sg"/> '
DICTIONARY = NameDictionary.from_names(["Ali", "Ayşe"])


def filler_text(tokens: int) -> str:
    """``Ali``, then ``tokens - 2`` filler words with a reflexive zero
    before every 50th token, then the full stop."""
    words = ["Ali"]
    for i in range(1, tokens - 1):
        zero = ZERO.format(i // 50) if i % 50 == 0 else ""
        words.append(zero + FILLERS[i % len(FILLERS)])
    return " ".join(words) + " ."


def commas_text(tokens: int) -> str:
    """``tokens - 202`` commas, then ``Ali``, then 200 reflexive zeros each
    before ``güldü``, then the full stop."""
    zeros = " ".join(ZERO.format(i) + "güldü" for i in range(200))
    return ", " * (tokens - 202) + f"Ali {zeros} ."


def counted(doc) -> tuple[int, int, int]:
    """Gazetteer lookups, ``Token``s built and punctuation tests by one
    resolve of ``doc``."""
    with (
        calls(anafor.candidates, "_split_apostrophe") as lookups,
        tokens_built() as built,
        punctuation_lookups() as punctuation,
    ):
        resolve_document(doc, DICTIONARY)
    return lookups.n, built.n, punctuation.n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tokens", type=int, nargs="+", default=[2000, 8000])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for length in args.tokens:
        for shape, text in (("filler", filler_text), ("commas", commas_text)):
            doc = parse_document(text(length))
            pronouns = len(doc.pronouns)
            times = []
            for _ in range(args.repeat):
                start = time.perf_counter()
                resolve_document(doc, DICTIONARY)
                times.append(time.perf_counter() - start)
            lookups, built, punctuation = counted(doc)
            print(json.dumps({
                "shape": shape,
                "tokens": len(doc.tokens),
                "pronouns": pronouns,
                "ms_per_pronoun": round(1000 * min(times) / pronouns, 3),
                "lookups_per_pronoun": round(lookups / pronouns, 2),
                "tokens_built_per_pronoun": round(built / pronouns, 2),
                "tokens_touched_per_pronoun": round((lookups + built) / pronouns, 2),
                "punctuation_tests_per_pronoun": round(punctuation / pronouns, 2),
            }))


if __name__ == "__main__":
    main()
