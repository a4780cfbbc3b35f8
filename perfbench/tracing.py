"""Span tracing around the calls into each ``anafor`` module.

The traced run replaces module attributes with timing wrappers, at the
place where each function is looked up (``anafor.training`` calls
``replace_mention`` through its own global, so that global is patched too).
Nothing in ``src/anafor`` changes.  Spans are kept in memory as
``(name, start, end, parent, op)`` rows and written out when the run ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable


def _count_out(key: str) -> Callable:
    def observe(counts: Counter, args, result) -> None:
        counts[key] += len(result)
    return observe


def _count_tokens(counts: Counter, args, result) -> None:
    counts["tokens_built"] += len(result.tokens)


def _count_hits(counts: Counter, args, result) -> None:
    counts["match_name.hits"] += result is not None


def _count_epochs(counts: Counter, args, result) -> None:
    counts["train.epochs"] += result[1].epochs


def _count_instances(counts: Counter, args, result) -> None:
    counts["instances"] += len(result[0])


def _count_parsed(counts: Counter, args, result) -> None:
    counts["parsed_tokens"] += len(result.tokens)


# (module, attribute, layer name, records a span, observer of the result).
# A function looked up from several modules is listed once per module.
# match_name and the candidate extractors run many times per pronoun, so
# they are counted without spans to keep the tracing cost small.
TARGETS = (
    ("anafor.corpus", "parse_document", "corpus.parse_document", True, _count_parsed),
    ("anafor.corpus", "serialize_document", "corpus.serialize_document", True, None),
    ("anafor.corpus", "load_dictionary", "corpus.load_dictionary", True, None),
    ("anafor.corpus", "assemble_document", "textmodel.assemble_document", True, _count_tokens),
    ("anafor.resolver", "assemble_document", "textmodel.assemble_document", True, _count_tokens),
    ("anafor.resolver", "resolve_document", "resolver.resolve_document", True, None),
    ("anafor.resolver", "baseline_resolve_document", "resolver.baseline_resolve_document", True, None),
    ("anafor.resolver", "replace_mention", "resolver.replace_mention", True, None),
    ("anafor.training", "replace_mention", "resolver.replace_mention", True, None),
    ("anafor.resolver", "format_trace", "resolver.format_trace", True, None),
    ("anafor.resolver", "constrained_candidates", "candidates.constrained_candidates", True,
     _count_out("survivors")),
    ("anafor.training", "constrained_candidates", "candidates.constrained_candidates", True,
     _count_out("survivors")),
    ("anafor.candidates", "extract_candidates", "candidates.extract_candidates", False,
     _count_out("extracted")),
    ("anafor.candidates", "generate_sets", "candidates.generate_sets", False,
     _count_out("generated")),
    ("anafor.candidates", "match_name", "morphology.match_name", False, _count_hits),
    ("anafor.resolver", "feature_vector", "scoring.feature_vector", True, None),
    ("anafor.training", "feature_vector", "scoring.feature_vector", True, None),
    ("anafor.resolver", "score", "scoring.score", True, None),
    ("anafor.scoring", "format_weights", "scoring.format_weights", True, None),
    ("anafor.training", "build_instances", "training.build_instances", True, _count_instances),
    ("anafor.training", "train", "training.train", True, _count_epochs),
    ("anafor.evaluation", "evaluate", "evaluation.evaluate", True, None),
)


class Tracer:
    """Collects spans and counts while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, Callable, Callable]] = []
        for module_name, attr, layer, spanned, observe in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._spanning if spanned else self._counting)(layer, original, observe)
            self._targets.append((module, attr, original, wrapper))

    def _spanning(self, layer: str, fn: Callable, observe) -> Callable:
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            index = len(spans)
            spans.append(None)  # placeholder keeps the parent index stable
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _counting(self, layer: str, fn: Callable, observe) -> Callable:
        calls, counts = self.calls, self.counts

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            result = fn(*args, **kwargs)
            observe(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _original, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._targets:
            setattr(module, attr, original)

    def run_op(self, op: Callable):
        """Run one operation traced, under a root span named ``op``."""
        self.op += 1
        self.install()
        try:
            return self._spanning("op", op, None)()
        finally:
            self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over the spans of operations (op > 0)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if op > 0:
                totals[name] += end - start - child_time[i]
        return dict(totals)

    def total_time(self, layer: str) -> float:
        return sum(end - start for name, start, end, _p, _o in self.spans if name == layer)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")
