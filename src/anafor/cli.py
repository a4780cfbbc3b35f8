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
from .scoring import DEFAULT_WEIGHTS, format_weights, load_weights, save_weights
from .textmodel import Document
from .training import TrainConfig, build_instances, train

DICT_ENV_VAR = "ANAFOR_DICT"


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anafor",
        description=(
            "Pronoun resolution for annotated Turkish narrative text: links "
            "overt and zero third-person pronouns to proper person names."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--dict",
        metavar="PATH",
        help=f"proper-name gazetteer, one name per line (default: ${DICT_ENV_VAR})",
    )
    shared.add_argument(
        "--scope",
        type=_non_negative_int,
        default=3,
        metavar="N",
        help="how many preceding sentences to search (default: 3)",
    )
    shared.add_argument(
        "--lexicon",
        metavar="PATH",
        help="override the built-in pronoun/suffix lexicon file",
    )

    resolve_parser = subparsers.add_parser(
        "resolve", parents=[shared], help="resolve pronouns and paraphrase the text"
    )
    resolve_parser.add_argument("input", help="annotated corpus file ('-' for stdin)")
    resolve_parser.add_argument(
        "--weights", metavar="PATH", help="weights file (default: built-in weights)"
    )
    resolve_parser.add_argument(
        "--trace", metavar="PATH", help="write a resolution trace ('-' for stdout)"
    )
    resolve_parser.add_argument(
        "-o", "--output", metavar="PATH", help="paraphrase file (default: stdout)"
    )

    baseline_parser = subparsers.add_parser(
        "baseline", parents=[shared], help="resolve favouring the most recent candidate"
    )
    baseline_parser.add_argument("input", help="annotated corpus file ('-' for stdin)")
    baseline_parser.add_argument(
        "--trace", metavar="PATH", help="write a resolution trace ('-' for stdout)"
    )
    baseline_parser.add_argument(
        "-o", "--output", metavar="PATH", help="paraphrase file (default: stdout)"
    )

    train_parser = subparsers.add_parser(
        "train", parents=[shared], help="learn preference weights from gold links"
    )
    train_parser.add_argument("inputs", nargs="+", help="gold-annotated corpus files")
    train_parser.add_argument(
        "--learning-rate", type=float, default=0.05, metavar="F", help="default: 0.05"
    )
    train_parser.add_argument(
        "--epochs", type=int, default=100, metavar="N", help="default: 100"
    )
    train_parser.add_argument(
        "-o", "--output", metavar="PATH", help="weights file (default: stdout)"
    )

    eval_parser = subparsers.add_parser(
        "eval", help="score a resolution trace against a gold corpus"
    )
    eval_parser.add_argument(
        "--gold", required=True, metavar="PATH", help="gold corpus file ('-' for stdin)"
    )
    eval_parser.add_argument(
        "--trace", required=True, metavar="PATH", help="resolution trace ('-' for stdin)"
    )
    eval_parser.add_argument(
        "--format", choices=("text", "kv"), default="text", help="report format"
    )
    eval_parser.add_argument(
        "--lexicon", metavar="PATH", help="override the built-in pronoun/suffix lexicon file"
    )

    compare_parser = subparsers.add_parser(
        "compare", parents=[shared], help="run system and baseline on one gold corpus"
    )
    compare_parser.add_argument("gold", help="gold-annotated corpus file ('-' for stdin)")
    compare_parser.add_argument(
        "--weights", metavar="PATH", help="weights file (default: built-in weights)"
    )
    compare_parser.add_argument(
        "--format", choices=("text", "kv"), default="text", help="report format"
    )
    return parser


# Corpus text is UTF-8 whatever the locale's encoding, so '-' and stdout
# go through the byte streams and behave like file paths.
def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    return Path(path).read_text(encoding="utf-8")


def _write_stdout(text: str) -> None:
    sys.stdout.flush()
    sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        _write_stdout(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_dictionary(args: argparse.Namespace) -> NameDictionary:
    path = args.dict or os.environ.get(DICT_ENV_VAR)
    if not path:
        raise ValueError(f"no name dictionary: pass --dict or set ${DICT_ENV_VAR}")
    return load_dictionary(path)


def _load_lexicon(args: argparse.Namespace) -> Lexicon | None:
    if getattr(args, "lexicon", None):
        return Lexicon.from_file(args.lexicon)
    return None


def _check_gold_names(doc: Document, dictionary: NameDictionary) -> None:
    for mention in doc.pronouns:
        for name in sorted(mention.gold_antecedent or ()):
            if name not in dictionary:
                raise ValueError(
                    f"pronoun {mention.id}: gold name {name!r} is not in the name dictionary"
                )


def _cmd_resolve(args: argparse.Namespace, baseline: bool) -> int:
    if args.trace == "-" and args.output is None:
        raise ValueError("--trace - needs -o PATH: the paraphrase already goes to stdout")
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    scope = SearchScope(args.scope)
    doc = parse_document(_read_input(args.input), lexicon)
    if baseline:
        resolved = baseline_resolve_document(doc, dictionary, scope, lexicon)
    else:
        weights = load_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
        resolved = resolve_document(doc, dictionary, weights, scope, lexicon)
    _write_output(args.output, serialize_document(resolved.paraphrased))
    if args.trace:
        trace = format_trace(resolved.resolutions)
        _write_output(None if args.trace == "-" else args.trace, trace)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    scope = SearchScope(args.scope)
    corpus = [parse_document(_read_input(path), lexicon) for path in args.inputs]
    for doc in corpus:
        _check_gold_names(doc, dictionary)
    instances, skipped = build_instances(corpus, dictionary, scope, lexicon)
    if not instances:
        raise ValueError(f"no usable training instances ({skipped} skipped)")
    config = TrainConfig(learning_rate=args.learning_rate, max_epochs=args.epochs)
    weights, report = train(instances, config)
    report_lines = (
        f"instances={len(instances)}\n"
        f"skipped={skipped}\n"
        f"epochs={report.epochs}\n"
        f"final_errors={report.final_errors}\n"
    )
    if args.output is None:
        _write_stdout(format_weights(weights))
        sys.stderr.write(report_lines)
    else:
        save_weights(weights, args.output)
        _write_stdout(report_lines)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.gold == "-" and args.trace == "-":
        raise ValueError("--gold and --trace cannot both read stdin")
    lexicon = _load_lexicon(args)
    gold = parse_document(_read_input(args.gold), lexicon)
    records = parse_trace(_read_input(args.trace))
    metrics = evaluate(records, gold)
    _write_stdout(metrics.format_text() if args.format == "text" else metrics.format_kv())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dictionary = _load_dictionary(args)
    lexicon = _load_lexicon(args)
    scope = SearchScope(args.scope)
    gold = parse_document(_read_input(args.gold), lexicon)
    _check_gold_names(gold, dictionary)
    weights = load_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    system = evaluate(resolve_document(gold, dictionary, weights, scope, lexicon), gold)
    baseline = evaluate(baseline_resolve_document(gold, dictionary, scope, lexicon), gold)
    report = Comparison(system=system, baseline=baseline)
    _write_stdout(report.format_text() if args.format == "text" else report.format_kv())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "resolve":
            return _cmd_resolve(args, baseline=False)
        if args.command == "baseline":
            return _cmd_resolve(args, baseline=True)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "compare":
            return _cmd_compare(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ParseError, ValueError, OSError) as exc:
        print(f"anafor: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
