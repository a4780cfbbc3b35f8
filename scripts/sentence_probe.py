"""Cost per pronoun inside one long sentence.

    PYTHONPATH=src python3 scripts/sentence_probe.py [--tokens 2000 8000] [--repeat 3]

The document is one sentence of filler words with ``Ali`` at its start and
a reflexive zero pronoun before every 50th token, so every pronoun's window
is the sentence left of it.  For each length the script prints one JSON
line: the best-of-``--repeat`` milliseconds per pronoun of
``resolve_document``, and from one more run the gazetteer lookups (the
walk's name index splits each window token once to look up its base) and
the ``Token``s built per pronoun, whose sum is the tokens touched per
pronoun.  The counters are those of the tests (``tests/counting.py``).
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
from counting import calls, tokens_built  # noqa: E402

FILLERS = ("sonra", "eve", "döndü", "bir", "kitap", "okudu")
ZERO = '<zero id="{}" kind="refl" num="sg"/> '
DICTIONARY = NameDictionary.from_names(["Ali", "Ayşe"])


def probe_text(tokens: int) -> str:
    """``Ali``, then ``tokens - 2`` filler words with a reflexive zero
    before every 50th token, then the full stop."""
    words = ["Ali"]
    for i in range(1, tokens - 1):
        zero = ZERO.format(i // 50) if i % 50 == 0 else ""
        words.append(zero + FILLERS[i % len(FILLERS)])
    return " ".join(words) + " ."


def counted(doc) -> tuple[int, int]:
    """Gazetteer lookups and ``Token``s built by one resolve of ``doc``."""
    with calls(anafor.candidates, "_split_apostrophe") as lookups, tokens_built() as built:
        resolve_document(doc, DICTIONARY)
    return lookups.n, built.n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tokens", type=int, nargs="+", default=[2000, 8000])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for length in args.tokens:
        doc = parse_document(probe_text(length))
        pronouns = len(doc.pronouns)
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            resolve_document(doc, DICTIONARY)
            times.append(time.perf_counter() - start)
        lookups, built = counted(doc)
        print(json.dumps({
            "tokens": len(doc.tokens),
            "pronouns": pronouns,
            "ms_per_pronoun": round(1000 * min(times) / pronouns, 3),
            "lookups_per_pronoun": round(lookups / pronouns, 2),
            "tokens_built_per_pronoun": round(built / pronouns, 2),
            "tokens_touched_per_pronoun": round((lookups + built) / pronouns, 2),
        }))


if __name__ == "__main__":
    main()
