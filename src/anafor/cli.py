"""Command-line front end: resolve, baseline, train, eval, compare.  A command
builds only its own options; a ``--dict`` file of bare names is checked whole."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .candidates import SearchScope
from .corpus import NameDictionary, ParseError, load_dictionary, parse_document, serialize_document
from .morphology import Lexicon
from .resolver import baseline_resolve_document, format_trace, parse_trace, resolve_document
from .scoring import DEFAULT_WEIGHTS, format_weights, load_weights
from .textmodel import Document, decode_utf8

DICT_ENV_VAR = "ANAFOR_DICT"


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it runs its ``add_options`` as it starts to parse, before
    any help, so only the command run builds its options and imports their defaults."""

    def parse_known_args(self, args=None, namespace=None):
        for add in vars(self).pop("add_options", ()):
            add(self)
        return super().parse_known_args(args, namespace)


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
    parser = argparse.ArgumentParser(prog="anafor", description=(
        "Pronoun resolution for annotated Turkish narrative text: links "
        "overt and zero third-person pronouns to proper person names."))
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    # Each option is defined once, by a function that adds it to a command's
    # parser; a command lists them in the order its help shows their options.
    def walk(command):
        command.add_argument("--dict", metavar="PATH", help="proper-name gazetteer, one name "
                             f"per line (default: ${DICT_ENV_VAR})")
        command.add_argument("--scope", type=_search_scope, default=SearchScope(), metavar="N",
                             help="how many preceding sentences to search (default: 3)")

    def lexicon(command):
        command.add_argument("--lexicon", metavar="PATH",
                             help="override the built-in pronoun/suffix lexicon file")

    def weights(command):
        command.add_argument("--weights", metavar="PATH",
                             help="weights file (default: built-in weights)")

    def paraphrase(command):
        command.add_argument("input", help="annotated corpus file ('-' for stdin)")
        command.add_argument("--trace", metavar="PATH",
                             help="write a resolution trace ('-' for stdout)")
        command.add_argument("-o", "--output", default="-", metavar="PATH",
                             help="paraphrase file (default: stdout)")

    def graded(command):
        command.add_argument("--gold", required=True, metavar="PATH",
                             help="gold corpus file ('-' for stdin)")
        command.add_argument("--trace", required=True, metavar="PATH",
                             help="resolution trace ('-' for stdin)")

    def report(command):
        command.add_argument("--format", choices=("text", "kv"), default="text",
                             help="report format")

    def training(command):
        from .training import TrainConfig
        command.add_argument("inputs", nargs="+", help="gold-annotated corpus files")
        command.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate,
                             metavar="F", help="default: %(default)s")
        command.add_argument("--epochs", type=int, default=TrainConfig.max_epochs, metavar="N",
                             help="default: %(default)s")
        command.add_argument("-o", "--output", default="-", metavar="PATH",
                             help="weights file (default: stdout)")

    def gold(command):
        command.add_argument("gold", help="gold-annotated corpus file ('-' for stdin)")

    def add(name: str, run, summary: str, *add_options) -> None:
        command = subparsers.add_parser(name, help=summary)
        command.set_defaults(run=run)
        command.add_options = add_options

    add("resolve", _cmd_resolve, "resolve pronouns and paraphrase the text",
        walk, lexicon, weights, paraphrase)
    add("baseline", _cmd_resolve, "resolve favouring the most recent candidate",
        walk, lexicon, paraphrase)
    add("train", _cmd_train, "learn preference weights from gold links", walk, lexicon, training)
    add("eval", _cmd_eval, "score a resolution trace against a gold corpus", graded, report, lexicon)
    add("compare", _cmd_compare, "run system and baseline on one gold corpus",
        walk, lexicon, weights, report, gold)
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


def _check_outputs(inputs: list[str], *outputs: tuple[str, str | None]) -> None:
    """Refuse an output path that names an input file; '-' names no file."""
    read = {Path(path).resolve() for path in inputs if path != "-"}
    for option, path in outputs:
        if path not in (None, "-") and Path(path).resolve() in read:
            raise ValueError(f"{option} names an input file: {path}")


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
    _check_outputs([args.input], ("--trace", args.trace), ("-o", args.output))
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
    from .training import TrainConfig, build_instances, train
    _check_outputs(args.inputs, ("-o", args.output))
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
    from .evaluation import evaluate
    if args.gold == "-" and args.trace == "-":
        raise ValueError("--gold and --trace cannot both read stdin")
    lexicon = _load_lexicon(args)
    gold = parse_document(_read_input(args.gold), lexicon)
    records = parse_trace(_read_input(args.trace))
    metrics = evaluate(records, gold)
    _write_output("-", metrics.format_text() if args.format == "text" else metrics.format_kv())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .evaluation import Comparison, evaluate
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
