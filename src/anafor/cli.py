"""Command-line front end: resolve, baseline, train, eval, compare."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .candidates import SearchScope
from .corpus import NameDictionary, ParseError, load_dictionary, parse_document, serialize_document
from .evaluation import Comparison, evaluate
from .morphology import Lexicon
from .resolver import baseline_resolve_document, format_trace, parse_trace, resolve_document
from .scoring import DEFAULT_WEIGHTS, format_weights, load_weights
from .textmodel import Document, decode_utf8
from .training import TrainConfig, build_instances, train

DICT_ENV_VAR = "ANAFOR_DICT"


def _search_scope(value: str) -> SearchScope:
    try:
        number = int(value)
    except ValueError:  # worded as argparse words a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    try:
        return SearchScope(number)
    except ValueError:  # SearchScope refuses a negative scope
        raise argparse.ArgumentTypeError("must be non-negative") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anafor",
        description=(
            "Pronoun resolution for annotated Turkish narrative text: links "
            "overt and zero third-person pronouns to proper person names."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Each option is defined once, in a parent parser; a command lists its
    # parents in the order its help shows their options.
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument(
        "--dict",
        metavar="PATH",
        help=f"proper-name gazetteer, one name per line (default: ${DICT_ENV_VAR})",
    )
    walk.add_argument(
        "--scope",
        type=_search_scope,
        default=SearchScope(),
        metavar="N",
        help="how many preceding sentences to search (default: 3)",
    )
    lexicon = argparse.ArgumentParser(add_help=False)
    lexicon.add_argument(
        "--lexicon", metavar="PATH", help="override the built-in pronoun/suffix lexicon file"
    )
    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument(
        "--weights", metavar="PATH", help="weights file (default: built-in weights)"
    )
    paraphrase = argparse.ArgumentParser(add_help=False)
    paraphrase.add_argument("input", help="annotated corpus file ('-' for stdin)")
    paraphrase.add_argument(
        "--trace", metavar="PATH", help="write a resolution trace ('-' for stdout)"
    )
    paraphrase.add_argument(
        "-o", "--output", default="-", metavar="PATH", help="paraphrase file (default: stdout)"
    )
    graded = argparse.ArgumentParser(add_help=False)
    graded.add_argument(
        "--gold", required=True, metavar="PATH", help="gold corpus file ('-' for stdin)"
    )
    graded.add_argument(
        "--trace", required=True, metavar="PATH", help="resolution trace ('-' for stdin)"
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("text", "kv"), default="text", help="report format")

    def command(name: str, run, summary: str, *parents) -> argparse.ArgumentParser:
        subparser = subparsers.add_parser(name, parents=list(parents), help=summary)
        subparser.set_defaults(run=run)
        return subparser

    command("resolve", _cmd_resolve, "resolve pronouns and paraphrase the text",
            walk, lexicon, weights, paraphrase)
    command("baseline", _cmd_resolve, "resolve favouring the most recent candidate",
            walk, lexicon, paraphrase)
    train_parser = command("train", _cmd_train, "learn preference weights from gold links",
                           walk, lexicon)
    train_parser.add_argument("inputs", nargs="+", help="gold-annotated corpus files")
    train_parser.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate,
                              metavar="F", help="default: %(default)s")
    train_parser.add_argument("--epochs", type=int, default=TrainConfig.max_epochs,
                              metavar="N", help="default: %(default)s")
    train_parser.add_argument(
        "-o", "--output", default="-", metavar="PATH", help="weights file (default: stdout)"
    )
    command("eval", _cmd_eval, "score a resolution trace against a gold corpus",
            graded, report, lexicon)
    compare_parser = command("compare", _cmd_compare, "run system and baseline on one gold corpus",
                             walk, lexicon, weights, report)
    compare_parser.add_argument("gold", help="gold-annotated corpus file ('-' for stdin)")
    return parser


# Corpus text is UTF-8 whatever the locale's encoding, so '-' (stdin or
# stdout) goes through the byte streams and behaves like a file path.
def _read_input(path: str) -> str:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return decode_utf8(data, path)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_dictionary(args: argparse.Namespace) -> NameDictionary:
    path = args.dict or os.environ.get(DICT_ENV_VAR)
    if not path:
        raise ValueError(f"no name dictionary: pass --dict or set ${DICT_ENV_VAR}")
    return load_dictionary(path)


def _load_lexicon(args: argparse.Namespace) -> Lexicon | None:
    return Lexicon.from_file(args.lexicon) if args.lexicon else None


def _check_gold_names(doc: Document, dictionary: NameDictionary) -> None:
    for mention in doc.pronouns:
        for name in sorted(mention.gold_antecedent or ()):
            if name not in dictionary:
                raise ValueError(
                    f"pronoun {mention.id}: gold name {name!r} is not in the name dictionary"
                )


def _cmd_resolve(args: argparse.Namespace) -> int:
    if args.trace == args.output == "-":
        raise ValueError("--trace - needs -o PATH: the paraphrase already goes to stdout")
    paths = [Path(path).resolve() for path in (args.trace, args.output) if path not in (None, "-")]
    if len(paths) == 2 and paths[0] == paths[1]:
        raise ValueError("--trace and -o name the same file")
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    doc = parse_document(_read_input(args.input), lexicon)
    if args.command == "baseline":
        resolved = baseline_resolve_document(doc, dictionary, args.scope, lexicon)
    else:
        weights = load_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
        resolved = resolve_document(doc, dictionary, weights, args.scope, lexicon)
    _write_output(args.output, serialize_document(resolved.paraphrased))
    if args.trace:
        _write_output(args.trace, format_trace(resolved.resolutions))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    corpus = [parse_document(_read_input(path), lexicon) for path in args.inputs]
    for doc in corpus:
        _check_gold_names(doc, dictionary)
    instances, skipped = build_instances(corpus, dictionary, args.scope, lexicon)
    if not instances:
        raise ValueError(f"no usable training instances ({skipped} skipped)")
    config = TrainConfig(learning_rate=args.learning_rate, max_epochs=args.epochs)
    weights, report = train(instances, config)
    _write_output(args.output, format_weights(weights))
    (sys.stderr if args.output == "-" else sys.stdout).write(
        f"instances={len(instances)}\n"
        f"skipped={skipped}\n"
        f"epochs={report.epochs}\n"
        f"final_errors={report.final_errors}\n"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.gold == "-" and args.trace == "-":
        raise ValueError("--gold and --trace cannot both read stdin")
    lexicon = _load_lexicon(args)
    gold = parse_document(_read_input(args.gold), lexicon)
    records = parse_trace(_read_input(args.trace))
    metrics = evaluate(records, gold)
    _write_output("-", metrics.format_text() if args.format == "text" else metrics.format_kv())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    gold = parse_document(_read_input(args.gold), lexicon)
    _check_gold_names(gold, dictionary)
    weights = load_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    system = evaluate(resolve_document(gold, dictionary, weights, args.scope, lexicon), gold)
    baseline = evaluate(baseline_resolve_document(gold, dictionary, args.scope, lexicon), gold)
    report = Comparison(system=system, baseline=baseline)
    _write_output("-", report.format_text() if args.format == "text" else report.format_kv())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"anafor: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
