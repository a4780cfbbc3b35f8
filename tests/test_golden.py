"""Golden outputs: SHA-256 digests of the bytes the commands write.

The paraphrases and traces of ``resolve`` and ``baseline`` at scopes 1 and
3 on every fixture corpus, the mini corpus and 100 generated documents, and
``compare --format kv`` and the ``train`` weights on the mini corpus, and
the weights and report of ``train`` on the mini corpus plus the 100
generated documents, which never reach a zero-error epoch, must match the
digests recorded in ``fixtures/golden/digests.tsv``.  A change
that alters any of these bytes on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which outputs changed.

``fixtures/golden/generated.docs`` holds 100 documents, one blank line
apart, from perfbench's generator: ``corpora.generate_document`` called with
``random.Random(1)`` and the nine fixture names plus the generator's names,
which ``generated.names`` lists.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path
from typing import Iterator

from anafor import (
    NameDictionary,
    baseline_resolve_document,
    build_instances,
    load_dictionary,
    parse_document,
    resolve_document,
    serialize_document,
    train,
)
from anafor.candidates import SearchScope
from anafor.cli import main
from anafor.resolver import format_trace
from anafor.scoring import format_weights

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
DIGESTS = GOLDEN / "digests.tsv"
NAMES = FIXTURES / "names9.txt"
MINICORPUS = FIXTURES / "minicorpus" / "minicorpus.txt"


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _generated() -> list[str]:
    return (GOLDEN / "generated.docs").read_text(encoding="utf-8").split("\n\n")


def _inputs() -> Iterator[tuple[str, str, NameDictionary]]:
    """(name, annotated text, gazetteer) of every resolved input."""
    names9 = load_dictionary(NAMES)
    for path in sorted((FIXTURES / "corpora").glob("*.txt")) + [MINICORPUS]:
        yield path.relative_to(FIXTURES).as_posix(), path.read_text(encoding="utf-8"), names9
    generated_names = load_dictionary(GOLDEN / "generated.names")
    for i, text in enumerate(_generated(), start=1):
        yield f"golden/generated.docs#{i:03d}", text, generated_names


def _cli_stdout(*argv: str) -> bytes:
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        status = main(list(argv))
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    assert status == 0, f"anafor {' '.join(argv)} exited {status}"
    return out


def computed_digests() -> Iterator[tuple[str, str]]:
    for name, text, dictionary in _inputs():
        doc = parse_document(text)
        for scope in (1, 3):
            for command, resolve in (
                ("resolve", resolve_document), ("baseline", baseline_resolve_document)
            ):
                resolved = resolve(doc, dictionary, scope=SearchScope(scope))
                key = f"{name} {command} scope={scope}"
                yield f"{key} paraphrase", _sha256(serialize_document(resolved.paraphrased))
                yield f"{key} trace", _sha256(format_trace(resolved.resolutions))
    mini = str(MINICORPUS)
    yield "compare kv", _sha256(_cli_stdout("compare", "--dict", str(NAMES), "--format", "kv", mini))
    yield "train weights", _sha256(_cli_stdout("train", "--dict", str(NAMES), "-o", "-", mini))
    # Weights file and report as ``anafor train`` writes them, on data where
    # every epoch up to the cap makes errors.
    gold = [parse_document(MINICORPUS.read_text(encoding="utf-8"))]
    gold += [parse_document(text) for text in _generated()]
    instances, skipped = build_instances(gold, load_dictionary(GOLDEN / "generated.names"))
    weights, report = train(instances)
    yield "train minicorpus+generated weights+report", _sha256(
        format_weights(weights)
        + f"instances={len(instances)}\nskipped={skipped}\n"
        f"epochs={report.epochs}\nfinal_errors={report.final_errors}\n"
    )


def _recorded_digests() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines)


def test_outputs_match_the_recorded_digests():
    recorded = _recorded_digests()
    computed = []
    for key, digest in computed_digests():
        assert recorded.get(key) == digest, f"first output that differs: {key}"
        computed.append(key)
    assert computed == list(recorded), "recorded outputs no longer produced"


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{k}\t{d}\n" for k, d in computed_digests()), encoding="utf-8")
