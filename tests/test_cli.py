from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anafor
from anafor import load_weights
from anafor.candidates import SearchScope
from anafor.cli import build_parser, main
from conftest import FIXTURES, fixture_text
from counting import runs

NAMES = FIXTURES / "names9.txt"


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _stdin(monkeypatch, text: str) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))


class TestResolveCommand:
    def test_paraphrase_to_stdout(self, capsys):
        fixture = FIXTURES / "corpora" / "c1_number_agreement.txt"
        status, out, err = _run(capsys, "resolve", "--dict", str(NAMES), str(fixture))
        assert status == 0 and err == ""
        assert "Ahmet ve Fatma Ayşe gördü." in out
        assert "<pro" not in out

    def test_trace_and_output_files(self, capsys, tmp_path):
        fixture = FIXTURES / "corpora" / "p7_punctuation.txt"
        out_path = tmp_path / "out.txt"
        trace_path = tmp_path / "trace.tsv"
        status, _out, _err = _run(
            capsys,
            "resolve", "--dict", str(NAMES), str(fixture),
            "-o", str(out_path), "--trace", str(trace_path),
        )
        assert status == 0
        assert "Tekin Çok yorgundu." in out_path.read_text(encoding="utf-8")
        assert trace_path.read_text(encoding="utf-8").startswith("1\tresolved\tTekin")

    def test_empty_dictionary_everything_ambiguous(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        fixture = FIXTURES / "corpora" / "p2_recency.txt"
        trace_path = tmp_path / "trace.tsv"
        status, out, _err = _run(
            capsys,
            "resolve", "--dict", str(empty), str(fixture), "--trace", str(trace_path),
        )
        assert status == 0
        assert "<zero" in out  # unresolved marker kept verbatim
        assert "ambiguous" in trace_path.read_text(encoding="utf-8")

    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        fixture = FIXTURES / "minicorpus" / "minicorpus.txt"
        outputs = []
        for i in range(2):
            out_path = tmp_path / f"out{i}.txt"
            trace_path = tmp_path / f"trace{i}.tsv"
            status, _out, _err = _run(
                capsys,
                "resolve", "--dict", str(NAMES), str(fixture),
                "-o", str(out_path), "--trace", str(trace_path),
            )
            assert status == 0
            outputs.append(out_path.read_bytes() + trace_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dictionary_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ANAFOR_DICT", str(NAMES))
        fixture = FIXTURES / "corpora" / "c2_reflexive.txt"
        status, out, _err = _run(capsys, "resolve", str(fixture))
        assert status == 0
        assert "Ali Ali güvenir." in out

    def test_missing_dictionary_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("ANAFOR_DICT", raising=False)
        fixture = FIXTURES / "corpora" / "c2_reflexive.txt"
        status, _out, err = _run(capsys, "resolve", str(fixture))
        assert status == 1
        assert "anafor: error:" in err

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text('Ali <pro id="1">kitap</pro> aldı.', encoding="utf-8")
        status, _out, err = _run(capsys, "resolve", "--dict", str(NAMES), str(bad))
        assert status == 1
        assert "line 1" in err

    @pytest.mark.parametrize("mark", ["\u201c", "\u201d", "\u00ab", "\u00bb"])
    def test_typographic_quote_mark_is_a_located_error(self, capsys, tmp_path, mark):
        bad = tmp_path / "bad.txt"
        text = f'Ali geldi.\nAyşe {mark}eve{mark} <zero id="1" kind="pers" num="sg"/> gitti.'
        bad.write_text(text, encoding="utf-8")
        status, out, err = _run(capsys, "resolve", "--dict", str(NAMES), str(bad))
        assert (status, out) == (1, "")
        assert err == f"anafor: error: line 2, column 6: typographic quote mark U+{ord(mark):04X}\n"


class TestBaselineCommand:
    def test_baseline_differs_from_system(self, capsys):
        fixture = FIXTURES / "corpora" / "p7_punctuation.txt"
        status, out, _err = _run(capsys, "baseline", "--dict", str(NAMES), str(fixture))
        assert status == 0
        assert "Ali Çok yorgundu." in out


@pytest.mark.parametrize("command", ["resolve", "baseline"])
class TestTraceToStdout:
    def test_trace_goes_to_stdout_when_the_paraphrase_goes_to_a_file(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # '-' used to name a file in the working directory.
        monkeypatch.chdir(tmp_path)
        fixture = FIXTURES / "corpora" / "p7_punctuation.txt"
        trace_path = tmp_path / "trace.tsv"
        assert _run(
            capsys, command, "--dict", str(NAMES), str(fixture), "--trace", str(trace_path),
            "-o", "a.txt",
        )[0] == 0
        status, out, err = _run(
            capsys, command, "--dict", str(NAMES), str(fixture), "--trace", "-", "-o", "b.txt",
        )
        assert (status, out, err) == (0, trace_path.read_text(encoding="utf-8"), "")
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes()
        assert not (tmp_path / "-").exists()

    def test_trace_and_paraphrase_both_to_stdout_is_an_error(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        fixture = FIXTURES / "corpora" / "p7_punctuation.txt"
        status, out, err = _run(
            capsys, command, "--dict", str(NAMES), str(fixture), "--trace", "-"
        )
        assert (status, out) == (1, "")
        assert err == (
            "anafor: error: --trace - needs -o PATH: the paraphrase already goes to stdout\n"
        )
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("output", ["p.txt", "../{}/p.txt", "{}/p.txt"])
    def test_trace_and_paraphrase_to_one_file_is_an_error(
        self, capsys, tmp_path, monkeypatch, command, output
    ):
        # The trace used to overwrite the paraphrase, with exit status 0.
        monkeypatch.chdir(tmp_path)
        fixture = str(FIXTURES / "corpora" / "p7_punctuation.txt")
        output = output.format(tmp_path.name if output.startswith("..") else tmp_path)
        status, out, err = _run(
            capsys, command, "--dict", str(NAMES), fixture, "--trace", "p.txt", "-o", output
        )
        assert (status, out) == (1, "")
        assert err == "anafor: error: --trace and -o name the same file\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["resolve", "baseline"])
class TestOutputDashIsStdout:
    # '-o -' used to write the paraphrase to a file named '-'.
    def test_paraphrase_goes_to_stdout(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        fixture = str(FIXTURES / "corpora" / "p7_punctuation.txt")
        default = _run(capsys, command, "--dict", str(NAMES), fixture)
        dash = _run(capsys, command, "--dict", str(NAMES), fixture, "-o", "-")
        assert dash == default
        assert dash[0] == 0 and "Çok yorgundu." in dash[1]
        assert list(tmp_path.iterdir()) == []

    def test_trace_and_paraphrase_both_to_stdout_is_an_error(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        fixture = str(FIXTURES / "corpora" / "p7_punctuation.txt")
        status, out, err = _run(
            capsys, command, "--dict", str(NAMES), fixture, "--trace", "-", "-o", "-"
        )
        assert (status, out) == (1, "")
        assert err == (
            "anafor: error: --trace - needs -o PATH: the paraphrase already goes to stdout\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestAnOutputThatNamesAnInputIsAnError:
    # Each of these used to exit 0 and write over the corpus it read.
    @pytest.mark.parametrize(
        "argv,option",
        [
            (["resolve", "doc.txt", "--trace", "doc.txt", "-o", "out.txt"], "--trace"),
            (["resolve", "doc.txt", "-o", "doc.txt"], "-o"),
            (["baseline", "doc.txt", "-o", "../{}/doc.txt"], "-o"),
            (["baseline", "doc.txt", "--trace", "{}/doc.txt"], "--trace"),
            (["train", "doc.txt", "-o", "doc.txt"], "-o"),
            (["train", "other.txt", "doc.txt", "-o", "./doc.txt"], "-o"),
        ],
    )
    def test_the_input_is_left_as_it_was(self, capsys, tmp_path, monkeypatch, argv, option):
        monkeypatch.chdir(tmp_path)
        corpus = fixture_text("corpora/p7_punctuation.txt").encode("utf-8")
        for name in ("doc.txt", "other.txt"):
            (tmp_path / name).write_bytes(corpus)
        argv = [arg.format(tmp_path.name if arg.startswith("..") else tmp_path) for arg in argv]
        named = argv[argv.index(option) + 1]
        status, out, err = _run(capsys, *argv, "--dict", str(NAMES))
        assert (status, out) == (1, "")
        assert err == f"anafor: error: {option} names an input file: {named}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.txt", "other.txt"]
        assert (tmp_path / "doc.txt").read_bytes() == corpus

    def test_stdin_is_no_input_file(self, capsys, tmp_path, monkeypatch):
        # '-' reads stdin, so a file of that name in the working directory is no input.
        monkeypatch.chdir(tmp_path)
        _stdin(monkeypatch, fixture_text("corpora/p7_punctuation.txt"))
        status, _out, err = _run(capsys, "resolve", "-", "--dict", str(NAMES), "-o", "./-")
        assert (status, err) == (0, "")
        assert "Çok yorgundu." in (tmp_path / "-").read_text(encoding="utf-8")


NOT_UTF8 = (
    "not valid UTF-8 ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
)


class TestUndecodableInput:
    # Each of these used to fail with the bare codec message, naming no file.
    @pytest.mark.parametrize(
        "argv",
        [
            ["resolve", "--dict", str(NAMES), "BAD"],
            ["train", "--dict", str(NAMES), "BAD"],
            ["resolve", "--dict", str(NAMES), "--weights", "BAD", "MINI"],
            ["resolve", "--dict", str(NAMES), "--lexicon", "BAD", "MINI"],
            ["eval", "--gold", "MINI", "--trace", "BAD"],
        ],
        ids=["corpus", "train-corpus", "weights", "lexicon", "trace"],
    )
    def test_the_error_names_the_file(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        mini = str(FIXTURES / "minicorpus" / "minicorpus.txt")
        argv = [str(bad) if a == "BAD" else mini if a == "MINI" else a for a in argv]
        assert _run(capsys, *argv) == (1, "", f"anafor: error: {bad}: {NOT_UTF8}\n")

    def test_stdin_is_named_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe")))
        assert _run(capsys, "resolve", "--dict", str(NAMES), "-") == (
            1, "", f"anafor: error: -: {NOT_UTF8}\n"
        )


@pytest.mark.parametrize(
    "flag,message",
    [
        ("--weights", "weights line 1: expected 'name = value'"),
        ("--lexicon", "lexicon line 1: entry outside any section"),
    ],
)
def test_a_bad_data_file_line_names_the_file(capsys, tmp_path, flag, message):
    # The gazetteer's errors named the file; these two named only the line.
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n", encoding="utf-8")
    corpus = str(FIXTURES / "minicorpus" / "minicorpus.txt")
    argv = ["resolve", "--dict", str(NAMES), flag, str(bad), corpus]
    assert _run(capsys, *argv) == (1, "", f"anafor: error: {bad}: {message}\n")


def test_stdin_and_a_file_read_line_ends_alike(capsys, tmp_path, monkeypatch):
    # A file is read with its line ends translated; stdin used not to be,
    # so an error after a lone CR was reported on line 1.
    text = 'Ali geldi.\rZerrin <pro id="1">kitap</pro> aldı.\r'
    path = tmp_path / "cr.txt"
    path.write_bytes(text.encode("utf-8"))
    from_file = _run(capsys, "resolve", "--dict", str(NAMES), str(path))
    _stdin(monkeypatch, text)
    assert _run(capsys, "resolve", "--dict", str(NAMES), "-") == from_file
    assert from_file[0] == 1 and from_file[2].startswith("anafor: error: line 2, column 8:")


@pytest.mark.parametrize(
    "argv,options",
    [
        (
            ["resolve", "in.txt"],
            {"dict": None, "scope": SearchScope(3), "lexicon": None, "weights": None,
             "input": "in.txt", "trace": None, "output": "-"},
        ),
        (
            ["baseline", "in.txt"],
            {"dict": None, "scope": SearchScope(3), "lexicon": None, "input": "in.txt",
             "trace": None, "output": "-"},
        ),
        (
            ["train", "a.txt", "b.txt"],
            {"dict": None, "scope": SearchScope(3), "lexicon": None,
             "inputs": ["a.txt", "b.txt"], "learning_rate": 0.05, "epochs": 100,
             "output": "-"},
        ),
        (
            ["eval", "--gold", "g.txt", "--trace", "t.tsv"],
            {"gold": "g.txt", "trace": "t.tsv", "format": "text", "lexicon": None},
        ),
        (
            ["compare", "g.txt"],
            {"dict": None, "scope": SearchScope(3), "lexicon": None, "weights": None,
             "format": "text", "gold": "g.txt"},
        ),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_each_command_has_exactly_these_options_and_defaults(argv, options):
    parsed = vars(build_parser().parse_args(argv))
    assert callable(parsed.pop("run"))
    assert parsed == {"command": argv[0], **options}


HELP_COMMANDS = ["", "resolve", "baseline", "train", "eval", "compare"]


class _MetavarPerSpelling(argparse.HelpFormatter):
    """Writes an option's metavar after each of its spellings, ``-o PATH,
    --output PATH``, as argparse did before Python 3.13 (from 3.13 on it
    writes ``-o, --output PATH``); the help fixtures were captured so."""

    def _format_action_invocation(self, action):
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        metavar = self._format_args(action, self._get_default_metavar_for_optional(action))
        return ", ".join(f"{spelling} {metavar}" for spelling in action.option_strings)


def _help_built_at_once(command: str, formatter_class=argparse.HelpFormatter) -> str:
    """The help of ``command`` ('' for the program) from a parser whose
    commands all build their options as the parser is built."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command_parser in commands.choices.values():
        for add in vars(command_parser).pop("add_options"):
            add(command_parser)
    shown = commands.choices[command] if command else parser
    shown.formatter_class = formatter_class
    return shown.format_help()


@pytest.fixture
def help_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHON_COLORS", "0")  # argparse colours its help from Python 3.14 on


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_is_the_help_of_every_option_built_at_once(command, capsys, help_columns):
    # A command that builds its options as it starts to parse prints the
    # same help, byte for byte, on any Python.
    with pytest.raises(SystemExit) as exit:
        main([command, "--help"] if command else ["--help"])
    assert exit.value.code == 0
    assert capsys.readouterr().out == _help_built_at_once(command)


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_is_the_fixture(command, help_columns):
    # The fixtures are the help texts at 80 columns, byte for byte, as
    # printed when every command built its options up front (Python 3.11).
    fixture = FIXTURES / "help" / f"{command or 'anafor'}.help"
    assert _help_built_at_once(command, _MetavarPerSpelling).encode() == fixture.read_bytes()


def test_a_command_builds_only_its_own_options():
    # The options of the other four commands are never built: 21 options
    # and 12 parsers when every command built its own.
    with (
        runs(argparse._ActionsContainer.add_argument) as options,
        runs(argparse.ArgumentParser.__init__) as parsers,
    ):
        build_parser().parse_args(["resolve", "in.txt"])
    assert options.n <= 13 and parsers.n <= 6


@pytest.mark.parametrize(
    "argv,message",
    [
        (["resolve", "--scope", "abc", "in.txt"], "argument --scope: invalid int value: 'abc'"),
        (["resolve", "--scope", "-1", "in.txt"], "argument --scope: must be non-negative"),
        (["train", "--epochs", "x", "in.txt"], "argument --epochs: invalid int value: 'x'"),
    ],
)
def test_a_bad_number_option_is_reported_by_option_and_type(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"anafor {argv[0]}: error: {message}"


class TestTrainCommand:
    def test_writes_loadable_weights_and_report(self, capsys, tmp_path):
        corpus = tmp_path / "train.txt"
        corpus.write_text(
            'Ayşe okula gitti. Ahmet ve Fatma <pro id="1" ant="Ayşe">onu</pro> gördü. '
            '<pro id="2" ant="Ayşe">Ona</pro> el salladılar.',
            encoding="utf-8",
        )
        weights_path = tmp_path / "weights.txt"
        status, out, _err = _run(
            capsys,
            "train", "--dict", str(NAMES), "-o", str(weights_path), str(corpus),
        )
        assert status == 0
        assert "instances=2" in out
        assert "final_errors=0" in out
        load_weights(weights_path)  # parses cleanly

    def test_unusable_corpus_is_an_error(self, capsys, tmp_path):
        corpus = tmp_path / "train.txt"
        corpus.write_text(
            '<zero id="1" kind="pers" num="sg" ant="Ali"/> Kapı açıldı.',
            encoding="utf-8",
        )
        status, _out, err = _run(capsys, "train", "--dict", str(NAMES), str(corpus))
        assert status == 1
        assert "no usable training instances" in err

    def test_output_dash_sends_weights_to_stdout_and_the_report_to_stderr(
        self, capsys, tmp_path, monkeypatch
    ):
        # 'train -o -' used to write the weights to a file named '-'.
        monkeypatch.chdir(tmp_path)
        corpus = str(FIXTURES / "minicorpus" / "minicorpus.txt")
        status, report, err = _run(capsys, "train", "--dict", str(NAMES), corpus, "-o", "w.txt")
        assert (status, err) == (0, "")
        weights = (tmp_path / "w.txt").read_text(encoding="utf-8")
        (tmp_path / "w.txt").unlink()
        dash = _run(capsys, "train", "--dict", str(NAMES), corpus, "-o", "-")
        assert dash == (0, weights, report)
        assert report.startswith("instances=")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_an_error(self, capsys, tmp_path, rate):
        weights_path = tmp_path / "weights.txt"
        status, out, err = _run(
            capsys,
            "train", "--dict", str(NAMES), "--learning-rate", rate, "-o", str(weights_path),
            str(FIXTURES / "minicorpus" / "minicorpus.txt"),
        )
        assert status == 1
        assert out == ""
        assert err == f"anafor: error: learning rate must be finite, got {rate}\n"
        assert not weights_path.exists()

    def test_overflowing_learning_rate_names_rate_and_epoch(self, capsys, tmp_path):
        weights_path = tmp_path / "weights.txt"
        status, out, err = _run(
            capsys,
            "train", "--dict", str(NAMES), "--learning-rate", "1e308",
            "-o", str(weights_path), str(FIXTURES / "minicorpus" / "minicorpus.txt"),
        )
        assert (status, out) == (1, "")
        assert err == "anafor: error: learning rate 1e+308 made a weight non-finite in epoch 1\n"
        assert not weights_path.exists()


class TestEvalCommand:
    def test_reported_counts_reproduce_first_experiment(self, capsys, tmp_path):
        gold_lines = ["Ali geldi."]
        trace_lines = []
        for i in range(1, 191):
            gold_lines.append(f'Zerrin <pro id="{i}" ant="Ali">onu</pro> gördü.')
            if i <= 162:
                trace_lines.append(f"{i}\tresolved\tAli\t1.0000\t-")
            elif i <= 184:
                trace_lines.append(f"{i}\tresolved\tZerrin\t1.0000\t-")
            else:
                trace_lines.append(f"{i}\tambiguous\t-\t-\t-")
        gold = tmp_path / "gold.txt"
        gold.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
        trace = tmp_path / "trace.tsv"
        trace.write_text("\n".join(trace_lines) + "\n", encoding="utf-8")

        status, out, _err = _run(
            capsys, "eval", "--gold", str(gold), "--trace", str(trace)
        )
        assert status == 0
        assert "recall      85.3%" in out
        assert "precision   88.0%" in out

    def test_kv_format(self, capsys, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text(
            'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.',
            encoding="utf-8",
        )
        trace = tmp_path / "trace.tsv"
        trace.write_text("1\tresolved\tAli\t1.0000\t-\n", encoding="utf-8")
        status, out, _err = _run(
            capsys, "eval", "--gold", str(gold), "--trace", str(trace), "--format", "kv"
        )
        assert status == 0
        assert "identified=1" in out and "recall=1.000000" in out

    def test_gold_from_stdin(self, capsys, tmp_path, monkeypatch):
        _stdin(monkeypatch, 'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.')
        trace = tmp_path / "trace.tsv"
        trace.write_text("1\tresolved\tAli\t1.0000\t-\n", encoding="utf-8")
        status, out, err = _run(
            capsys, "eval", "--gold", "-", "--trace", str(trace), "--format", "kv"
        )
        assert (status, err) == (0, "")
        assert "identified=1" in out and "recall=1.000000" in out

    def test_trace_from_stdin(self, capsys, tmp_path, monkeypatch):
        gold = tmp_path / "gold.txt"
        gold.write_text(
            'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.', encoding="utf-8"
        )
        _stdin(monkeypatch, "1\tresolved\tAli\t1.0000\t-\n")
        status, out, err = _run(
            capsys, "eval", "--gold", str(gold), "--trace", "-", "--format", "kv"
        )
        assert (status, err) == (0, "")
        assert "identified=1" in out and "recall=1.000000" in out

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_trace_with_a_byte_order_mark(self, capsys, tmp_path, monkeypatch, source):
        gold = tmp_path / "gold.txt"
        gold.write_text(
            'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.', encoding="utf-8"
        )
        text = "\ufeff1\tresolved\tAli\t1.0000\t-\n"
        trace = tmp_path / "trace.tsv"
        trace.write_bytes(text.encode("utf-8"))
        assert trace.read_bytes().startswith(b"\xef\xbb\xbf")
        if source == "stdin":
            _stdin(monkeypatch, text)
        status, out, err = _run(
            capsys, "eval", "--gold", str(gold),
            "--trace", str(trace) if source == "file" else "-", "--format", "kv",
        )
        assert (status, err) == (0, "")
        assert "identified=1" in out and "recall=1.000000" in out

    def test_trace_line_for_a_pronoun_not_in_gold_is_an_error(self, capsys, tmp_path):
        gold = tmp_path / "gold.txt"
        gold.write_text(
            'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.', encoding="utf-8"
        )
        trace = tmp_path / "trace.tsv"
        trace.write_text("1\tresolved\tAli\t1.0000\t-\n7\tresolved\tAli\t1.0000\t-\n",
                         encoding="utf-8")
        status, out, err = _run(capsys, "eval", "--gold", str(gold), "--trace", str(trace))
        assert (status, out) == (1, "")
        assert err == "anafor: error: pronoun 7 is not in the gold document\n"

    def test_a_trace_line_that_contradicts_its_outcome_is_an_error(self, capsys, tmp_path):
        # Such a line used to read as an ambiguous record with score 0.5.
        gold = tmp_path / "gold.txt"
        gold.write_text(
            'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.', encoding="utf-8"
        )
        trace = tmp_path / "trace.tsv"
        trace.write_text("1\tambiguous\tAli\t0.5\tjunk\n", encoding="utf-8")
        status, out, err = _run(capsys, "eval", "--gold", str(gold), "--trace", str(trace))
        assert (status, out) == (1, "")
        assert err == "anafor: error: trace line 1: an ambiguous line has '-' in its last three fields\n"

    def test_gold_and_trace_both_from_stdin_is_an_error(self, capsys, monkeypatch):
        _stdin(monkeypatch, 'Ali geldi. Zerrin <pro id="1" ant="Ali">onu</pro> gördü.')
        status, out, err = _run(capsys, "eval", "--gold", "-", "--trace", "-")
        assert (status, out) == (1, "")
        assert err == "anafor: error: --gold and --trace cannot both read stdin\n"


class TestLexiconOverride:
    def test_custom_lexicon_changes_classification(self, capsys, tmp_path):
        from anafor.morphology import default_lexicon  # packaged data file
        from importlib import resources

        packaged = resources.files("anafor").joinpath("data/lexicon.txt").read_text("utf-8")
        # drop the accusative singular form: 'onu' stops being a pronoun
        trimmed = "\n".join(
            line for line in packaged.splitlines() if line.strip() != "onu"
        )
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text(trimmed, encoding="utf-8")

        fixture = tmp_path / "in.txt"
        fixture.write_text('Ayşe geldi. Ali <pro id="1">onu</pro> gördü.', encoding="utf-8")
        status, _out, err = _run(
            capsys,
            "resolve", "--dict", str(NAMES), "--lexicon", str(lexicon_path), str(fixture),
        )
        assert status == 1
        assert "not a recognized pronoun form" in err
        assert default_lexicon().pronoun_forms  # built-in untouched

    def test_weights_round_trip_train_to_resolve(self, capsys, tmp_path):
        corpus = tmp_path / "train.txt"
        corpus.write_text(
            'Ayşe okula gitti. Ahmet ve Fatma <pro id="1" ant="Ayşe">onu</pro> gördü.',
            encoding="utf-8",
        )
        weights_path = tmp_path / "weights.txt"
        status, _out, _err = _run(
            capsys, "train", "--dict", str(NAMES), "-o", str(weights_path), str(corpus)
        )
        assert status == 0
        fixture = FIXTURES / "corpora" / "p2_recency.txt"
        status, out, _err = _run(
            capsys,
            "resolve", "--dict", str(NAMES), "--weights", str(weights_path), str(fixture),
        )
        assert status == 0
        assert "Murat Oyunu sevdi." in out

    @pytest.mark.parametrize("option", ["--lexicon", "--weights"])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, option):
        from importlib import resources

        from anafor.scoring import DEFAULT_WEIGHTS, format_weights

        if option == "--lexicon":
            content = resources.files("anafor").joinpath("data/lexicon.txt").read_text("utf-8")
        else:
            content = format_weights(DEFAULT_WEIGHTS)
        fixture = FIXTURES / "minicorpus" / "minicorpus.txt"
        outputs = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / f"file{len(prefix)}.txt"
            path.write_text(prefix + content, encoding="utf-8")
            outputs.append(
                _run(capsys, "resolve", "--dict", str(NAMES), option, str(path), str(fixture))
            )
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


class TestNonUtf8Stdio:
    @pytest.mark.parametrize("from_stdin", [True, False])
    def test_stdin_and_stdout_are_utf8(self, tmp_path, from_stdin):
        # Under a latin-1 locale, '-' used to be decoded as latin-1 (the
        # pronoun was left ambiguous) and a paraphrase naming Ayşe could
        # not be written to stdout at all.
        text = 'Ayşe geldi. <zero id="1" kind="pers" num="sg"/> Güldü.\n'
        names = tmp_path / "names.txt"
        names.write_text("Ayşe\n", encoding="utf-8")
        corpus = tmp_path / "story.txt"
        corpus.write_text(text, encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONIOENCODING="latin-1",
            PYTHONPATH=str(Path(anafor.__file__).parent.parent),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "anafor.cli", "resolve", "--dict", str(names),
             "-" if from_stdin else str(corpus)],
            input=text.encode("utf-8"),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == "Ayşe geldi.\nAyşe Güldü.\n".encode("utf-8")


class TestStartUp:
    # A new interpreter runs the module as ``python -m anafor.cli resolve``
    # does, then prints the modules it loaded of these two and the public
    # names that do not resolve.
    SCRIPT = """if True:
        import runpy, sys
        sys.argv[0] = "anafor"
        try:
            runpy.run_module("anafor.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert exit.code == 0, exit.code
        import anafor
        loaded = [m for m in ("anafor.training", "anafor.evaluation") if m in sys.modules]
        print([loaded, [name for name in anafor.__all__ if not hasattr(anafor, name)]])
    """

    def test_resolve_loads_neither_the_trainer_nor_the_evaluation(self):
        fixture = FIXTURES / "corpora" / "c1_number_agreement.txt"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "resolve", "--dict", str(NAMES), str(fixture)],
            capture_output=True, text=True, encoding="utf-8", timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(anafor.__file__).parent.parent)),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "Ahmet ve Fatma Ayşe gördü." in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[[], []]"


class TestCompareCommand:
    def test_side_by_side_table(self, capsys):
        fixture = FIXTURES / "minicorpus" / "minicorpus.txt"
        status, out, _err = _run(capsys, "compare", "--dict", str(NAMES), str(fixture))
        assert status == 0
        assert "baseline" in out and "system" in out
        assert "90.0%" in out  # system recall on the mini corpus
        assert "63.3%" in out  # baseline recall
        assert "+26.7" in out

    def test_kv_format(self, capsys):
        fixture = FIXTURES / "corpora" / "p7_punctuation.txt"
        status, out, _err = _run(
            capsys, "compare", "--dict", str(NAMES), str(fixture), "--format", "kv"
        )
        assert status == 0
        assert "system.recall=1.000000" in out
        assert "baseline.recall=0.000000" in out

    def test_gold_from_stdin(self, capsys, monkeypatch):
        _stdin(monkeypatch, fixture_text("corpora/p7_punctuation.txt"))
        status, out, err = _run(
            capsys, "compare", "--dict", str(NAMES), "-", "--format", "kv"
        )
        assert (status, err) == (0, "")
        assert "system.recall=1.000000" in out
        assert "baseline.recall=0.000000" in out

    @pytest.mark.parametrize(
        "command,ant,message",
        [
            ("compare", " Ayşe", "dictionary entry contains whitespace: ' Ayşe'"),
            ("train", "Ali Veli", "dictionary entry contains whitespace: 'Ali Veli'"),
        ],
    )
    def test_gold_name_outside_the_name_rule_is_a_located_error(
        self, capsys, tmp_path, command, ant, message
    ):
        # Such a name can never match a candidate: compare used to report
        # 0.0% recall and train an unlocated token error.
        names = tmp_path / "names.txt"
        names.write_text("Ali\nAyşe\n", encoding="utf-8")
        corpus = tmp_path / "gold.txt"
        corpus.write_text(
            f'Ayşe geldi. <zero id="1" kind="pers" num="sg" ant="{ant}"/> Gitti.',
            encoding="utf-8",
        )
        status, out, err = _run(capsys, command, "--dict", str(names), str(corpus))
        assert (status, out) == (1, "")
        assert err == f"anafor: error: line 1, column 13: bad name in ant attribute: {message}\n"

    @pytest.mark.parametrize("command", ["compare", "train"])
    def test_gold_name_missing_from_the_dictionary_is_an_error(
        self, capsys, tmp_path, command
    ):
        # Such a name passes the name rule but can never match a candidate:
        # compare used to report 0.0% recall and train to skip the pronoun.
        names = tmp_path / "names.txt"
        names.write_text("Ali\nAyşe\n", encoding="utf-8")
        corpus = tmp_path / "gold.txt"
        corpus.write_text(
            'Ayşe geldi. <zero id="1" kind="pers" num="sg" ant="Veli"/> Gitti.',
            encoding="utf-8",
        )
        status, out, err = _run(capsys, command, "--dict", str(names), str(corpus))
        assert (status, out) == (1, "")
        assert err == (
            "anafor: error: pronoun 1: gold name 'Veli' is not in the name dictionary\n"
        )
