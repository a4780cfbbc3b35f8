"""Run one anafor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long_story --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One client runs a closed loop: the next operation
starts when the previous one and its output check are done.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` half the operations run under span
tracing and the JSON holds the per-layer metrics instead.  Human-readable
lines before it show the same numbers with their units.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SOURCES = ("src/anafor/__init__.py", "tests/fixtures/minicorpus/minicorpus.txt",
           "tests/fixtures/minicorpus/oracle.tsv", "tests/fixtures/names9.txt")

# setup_s: an ``anafor resolve`` subprocess on this one-sentence document,
# run SETUP_RUNS times spread over the measured loop.  Each run is divided
# by the mean start-up time of a bare interpreter timed just before and
# just after it, which cancels the host's drift in starting processes, and
# the median is reported in seconds on a host where that bare start takes
# BARE_START_S.
SETUP_DOCUMENT = 'Ali <pro id="1">kendine</pro> güvenir.\n'
SETUP_EXPECTED = "Ali Ali güvenir.\n"
SETUP_RUNS = 15
BARE_START_S = 0.05

TAIL_PERCENTILE = 75
# Op time between two runs of the reference computation.
BLOCK_SECONDS = 0.25


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_story", "dense_shorts", "train_compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


class SetupProbe:
    """Times whole ``anafor resolve`` processes: interpreter start, import,
    gazetteer and lexicon."""

    def __init__(self, names_path: Path):
        doc_path = WORK_DIR / "setup.txt"
        doc_path.write_text(SETUP_DOCUMENT, encoding="utf-8")
        self.command = [sys.executable, "-m", "anafor.cli", "resolve",
                        "--dict", str(names_path), str(doc_path)]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.problems: list[str] = []

    def _timed(self, command):
        """Run ``command``; its completed process (None on a timeout) and
        its wall time."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, encoding="utf-8", timeout=60)
        except subprocess.TimeoutExpired:
            proc = None
        return proc, time.perf_counter() - start

    def run_once(self) -> None:
        bare = [sys.executable, "-c", "pass"]
        _, before = self._timed(bare)
        proc, elapsed = self._timed(self.command)
        _, after = self._timed(bare)
        self.times.append(elapsed)
        self.scaled.append(elapsed / ((before + after) / 2) * BARE_START_S)
        if proc is None:
            self.problems.append("setup resolve did not finish within 60 s")
        elif proc.returncode != 0 or proc.stdout != SETUP_EXPECTED:
            self.problems.append(f"setup resolve: exit {proc.returncode}, "
                                 f"stdout {proc.stdout!r}, stderr {proc.stderr.strip()!r}")


class Loop:
    """The closed loop: times ``workload.run`` alone and checks each output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, i: int, call) -> float | None:
        """Run op ``i`` through ``call``; its duration, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(lambda: self.workload.run(i))
            elapsed = time.perf_counter() - start
            problems = self.workload.check(i, output)
        except Exception as exc:  # a failing op is counted, not fatal
            problems = [f"op {i} raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
            return None
        return elapsed


def _direct(run):
    return run()


def run_untraced(workload, seconds: float, setup: SetupProbe):
    """Timed ops in blocks of about BLOCK_SECONDS, each block followed by a
    run of the reference computation; every sample is (op seconds, mean
    reference seconds on either side of its block, pronouns, block number).
    Between blocks, ``setup`` runs SETUP_RUNS times at even intervals."""
    from perfbench.reference import reference_seconds

    loop = Loop(workload)
    loop.op(0, _direct)  # warm-up: fills lazy caches, sets the repeat digests
    samples, block = [], []
    ref_before = reference_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    i = 1
    while True:
        done = time.perf_counter() >= deadline
        if block and (done or sum(elapsed for elapsed, _ in block) >= BLOCK_SECONDS):
            ref_after = reference_seconds()
            ref = (ref_before + ref_after) / 2
            number = samples[-1][3] + 1 if samples else 0
            samples += [(elapsed, ref, pronouns, number) for elapsed, pronouns in block]
            block = []
            due = (time.perf_counter() - start) / seconds * SETUP_RUNS
            if len(setup.times) < min(due, SETUP_RUNS):
                setup.run_once()
                ref_after = reference_seconds()
            ref_before = ref_after
        if done:
            while len(setup.times) < SETUP_RUNS:
                setup.run_once()
            return loop, samples
        elapsed = loop.op(i, _direct)
        if elapsed is not None:
            block.append((elapsed, workload.pronouns(i)))
        i += 1


def end_to_end_metrics(samples, setup):
    """Gated metrics in reference units, wall-clock ones for display only.

    Throughput is the median over blocks, so that an op during which the
    host changed speed, and which its reference runs therefore scale badly,
    does not move it."""
    if not samples:
        return {}, {}
    seconds = [elapsed for elapsed, _ref, _p, _b in samples]
    scaled = [elapsed / ref for elapsed, ref, _p, _b in samples]
    pronouns = sum(p for _e, _r, p, _b in samples)
    per_block = defaultdict(lambda: [0, 0.0])
    for (_elapsed, _ref, p, number), ref_units in zip(samples, scaled):
        per_block[number][0] += p
        per_block[number][1] += ref_units
    tail = f"p{TAIL_PERCENTILE}"
    gated = {
        "pronouns_per_ref": (statistics.median(p / t for p, t in per_block.values()), "1/ref"),
        "op_ref.p50": (statistics.median(scaled), "ref"),
        f"op_ref.{tail}": (_nearest_rank(scaled, TAIL_PERCENTILE), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup.scaled), "s"),
    }
    wall = {
        "pronouns_per_s": (pronouns / sum(seconds), "1/s"),
        "op_s.p50": (statistics.median(seconds), "s"),
        f"op_s.{tail}": (_nearest_rank(seconds, TAIL_PERCENTILE), "s"),
        "ref_s.p50": (statistics.median(ref for _e, ref, _p, _b in samples), "s"),
        "setup_wall_s": (statistics.median(setup.times), "s"),
    }
    return gated, wall


def run_traced(workload, seconds: float, tracer):
    """Each op runs twice, untraced then traced, on the same input.  The
    reference computation runs about once a second; its median time lets
    per-layer seconds from different runs be compared."""
    from perfbench.reference import reference_seconds

    loop = Loop(workload)
    loop.op(0, _direct)
    plain, traced, pronouns = [], [], 0
    refs = [reference_seconds()]
    next_ref = time.perf_counter() + 1.0
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline:
        first = loop.op(i, _direct)
        second = loop.op(i, tracer.run_op)
        if first is not None and second is not None:
            plain.append(first)
            traced.append(second)
            pronouns += workload.pronouns(i)
        if time.perf_counter() >= next_ref:
            refs.append(reference_seconds())
            next_ref = time.perf_counter() + 1.0
        i += 1
    return loop, plain, traced, pronouns, statistics.median(refs)


# Per-layer metrics, per traced op: self seconds and call counts of these
# layers, then the derived counts and ratios below.
SELF_TIME_LAYERS = (
    "textmodel.assemble_document", "resolver.replace_mention",
    "resolver.resolve_document", "resolver.baseline_resolve_document",
    "candidates.constrained_candidates", "scoring.feature_vector", "scoring.score",
    "training.build_instances", "training.train", "evaluation.evaluate",
    "corpus.parse_document", "corpus.serialize_document",
)
CALL_LAYERS = (
    "textmodel.assemble_document", "resolver.replace_mention",
    "candidates.constrained_candidates", "candidates.generate_sets",
    "morphology.match_name", "scoring.feature_vector",
)


def layer_metrics(tracer, plain, traced, pronouns, ref_s, load_dictionary_s, k1_tokens):
    ops = max(1, tracer.op)
    self_s = tracer.self_times()
    calls, counts = tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / ops, "s/op")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / ops, "count/op")
    epochs = counts["train.epochs"]
    metrics.update({
        "textmodel.tokens_built_per_pronoun": (ratio(counts["tokens_built"], pronouns), "count"),
        "textmodel.tokens_built_per_pronoun_k1": (k1_tokens, "count"),
        "candidates.extract_candidates.out": (counts["extracted"] / ops, "count/op"),
        "candidates.survivor_ratio": (
            ratio(counts["survivors"], counts["extracted"] + counts["generated"]), "ratio"),
        "morphology.match_name.hit_ratio": (
            ratio(counts["match_name.hits"], calls["morphology.match_name"]), "ratio"),
        "training.train.epochs": (epochs / ops, "count/op"),
        "training.train.s_per_epoch": (ratio(self_s.get("training.train", 0.0), epochs), "s"),
        "training.instances": (counts["instances"] / ops, "count/op"),
        "corpus.parse_document.tokens_per_s": (
            ratio(counts["parsed_tokens"], tracer.total_time("corpus.parse_document")), "1/s"),
        "corpus.load_dictionary.s": (load_dictionary_s, "s"),
        "trace.overhead_ratio": (ratio(sum(traced), sum(plain)), "ratio"),
        "trace.ops": (len(traced), "count"),
        "trace.ref_s": (ref_s, "s"),
        "trace.missing_targets": (len(tracer.missing), "count"),
    })
    return metrics


def module_shares(tracer) -> list[tuple[str, float]]:
    """Self time per anafor module as a share of traced op time; the op's
    own self time is the benchmark's share (input handling between calls)."""
    total = tracer.total_time("op")
    shares = defaultdict(float)
    for layer, seconds in tracer.self_times().items():
        module = "benchmark" if layer == "op" else layer.split(".")[0]
        shares[module] += seconds / total if total else 0.0
    return sorted(shares.items(), key=lambda item: -item[1])


def _traced_once(call):
    """Run ``call`` once under a fresh tracer; its result and the tracer."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    return tracer.run_op(call), tracer


def _tokens_per_pronoun_k1(inputs) -> float:
    """Tokens assemble_document builds per pronoun for one resolve of the
    untiled mini corpus: the k=1 end of the scaling count."""
    from perfbench.workloads import LongStory

    workload = LongStory(inputs, seed=0, tiles=1)
    _output, tracer = _traced_once(lambda: workload.run(0))
    return tracer.counts["tokens_built"] / workload.pronouns(0)


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [name for name in SOURCES if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not an anafor checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from anafor import corpus
    from perfbench import corpora
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Inputs

    WORK_DIR.mkdir(exist_ok=True)
    minicorpus, oracle = corpora.read_minicorpus(ROOT)
    entries, generator_names = corpora.build_gazetteer(ROOT, minicorpus)
    names_path = WORK_DIR / "names.txt"
    names_path.write_text("\n".join(entries) + "\n", encoding="utf-8")

    if args.trace:
        names, setup_tracer = _traced_once(lambda: corpus.load_dictionary(names_path))
        load_dictionary_s = setup_tracer.total_time("corpus.load_dictionary")
    else:
        names = corpus.load_dictionary(names_path)
    inputs = Inputs(names, generator_names, minicorpus, oracle)
    workload = WORKLOADS[args.workload](inputs, args.seed)

    gc.collect()
    gc.freeze()  # keep the inputs out of the collector's work during ops
    lines = []
    if args.trace:
        k1_tokens = _tokens_per_pronoun_k1(inputs)
        tracer = Tracer()
        loop, plain, traced, pronouns, ref_s = run_traced(workload, args.seconds, tracer)
        metrics = layer_metrics(tracer, plain, traced, pronouns, ref_s, load_dictionary_s,
                                k1_tokens)
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        lines.append(f"traced {len(traced)} ops of {args.workload} (seed {args.seed}); "
                     f"spans in {spans_path.relative_to(ROOT)}")
        if tracer.missing:
            lines.append(f"missing trace targets: {', '.join(tracer.missing)}")
        lines.append("self time share of traced op time, by module:")
        lines += [f"  {module:<12} {share:7.1%}" for module, share in module_shares(tracer)]
    else:
        setup = SetupProbe(names_path)
        loop, samples = run_untraced(workload, args.seconds, setup)
        if setup.problems:
            loop.attempted += 1
            loop.failed += 1
            loop.problems += setup.problems
        metrics, wall = end_to_end_metrics(samples, setup)
        n = len(samples)
        beyond = n - math.ceil(TAIL_PERCENTILE / 100 * n)
        lines.append(f"{args.workload} (seed {args.seed}): {n} timed ops, "
                     f"{beyond} beyond p{TAIL_PERCENTILE}, "
                     f"{sum(p for _e, _r, p, _b in samples)} pronouns")
        lines.append(f"  {'fail_rate':<45} {loop.failed / loop.attempted:.4g} ratio "
                     f"({loop.failed} of {loop.attempted} ops)")
        lines.append("  wall clock (shown, not gated: it moves with the host's load):")
        lines += [f"    {name:<43} {value:.6g} {unit}" for name, (value, unit) in wall.items()]
        lines.append("  gated; op times in units of the reference computation:")
    lines += [f"  {name:<45} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for problem in loop.problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
