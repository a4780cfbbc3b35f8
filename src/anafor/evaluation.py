"""Recall/precision scoring of resolutions against gold links.

recall    = correct / identified   (gold-linked pronouns)
precision = correct / attempted    (identified minus ambiguous)

A resolution is correct when its antecedent base-name set equals the gold
set; a wrongly resolved pronoun still counts as attempted, only ambiguous
ones are excluded from the precision denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .resolver import Resolution, ResolvedDocument
from .textmodel import Document


@dataclass(frozen=True)
class Metrics:
    identified: int
    attempted: int
    correct: int
    recall: float
    precision: float

    @classmethod
    def from_counts(cls, identified: int, ambiguous: int, correct: int) -> "Metrics":
        if not 0 <= ambiguous <= identified:
            raise ValueError("need 0 <= ambiguous <= identified")
        attempted = identified - ambiguous
        if not 0 <= correct <= attempted:
            raise ValueError("need 0 <= correct <= attempted")
        return cls(
            identified=identified,
            attempted=attempted,
            correct=correct,
            recall=correct / identified if identified else 0.0,
            precision=correct / attempted if attempted else 0.0,
        )

    def format_kv(self) -> str:
        return (
            f"identified={self.identified}\n"
            f"attempted={self.attempted}\n"
            f"correct={self.correct}\n"
            f"recall={self.recall:.6f}\n"
            f"precision={self.precision:.6f}\n"
        )

    def format_text(self) -> str:
        return (
            f"identified  {self.identified}\n"
            f"attempted   {self.attempted}\n"
            f"correct     {self.correct}\n"
            f"recall      {_pct(self.recall)}%\n"
            f"precision   {_pct(self.precision)}%\n"
        )


def _pct(fraction: float) -> float:
    return round(fraction * 100, 1)


def evaluate(resolved: ResolvedDocument | Iterable[Resolution], gold: Document) -> Metrics:
    """Score resolutions against the gold document's ``ant`` links.

    ``resolved`` may be a ResolvedDocument or any iterable of resolutions,
    such as those ``parse_trace`` reads.  Every gold-linked pronoun must
    have a resolution with a matching id, and every resolution a pronoun
    of the gold document.
    """
    if isinstance(resolved, ResolvedDocument):
        resolved = resolved.resolutions
    known = {mention.id for mention in gold.pronouns}
    by_id: dict[int, Resolution] = {}
    for resolution in resolved:
        if resolution.pronoun_id in by_id:
            raise ValueError(f"duplicate resolution for pronoun {resolution.pronoun_id}")
        if resolution.pronoun_id not in known:
            raise ValueError(f"pronoun {resolution.pronoun_id} is not in the gold document")
        by_id[resolution.pronoun_id] = resolution
    identified = 0
    ambiguous = 0
    correct = 0
    for mention in gold.pronouns:
        if mention.gold_antecedent is None:
            continue
        identified += 1
        try:
            resolution = by_id[mention.id]
        except KeyError:
            raise ValueError(f"no resolution for gold-linked pronoun {mention.id}") from None
        if resolution.antecedent is None:
            ambiguous += 1
        elif resolution.antecedent == mention.gold_antecedent:
            correct += 1
    return Metrics.from_counts(identified, ambiguous, correct)


@dataclass(frozen=True)
class Comparison:
    """Side-by-side system versus baseline report."""

    system: Metrics
    baseline: Metrics

    @property
    def recall_delta(self) -> float:
        # Deltas in percentage points, computed from the displayed (rounded)
        # percentages so the table rows stay self-consistent.
        return round(_pct(self.system.recall) - _pct(self.baseline.recall), 1)

    @property
    def precision_delta(self) -> float:
        return round(_pct(self.system.precision) - _pct(self.baseline.precision), 1)

    def format_text(self) -> str:
        rows = [("", "baseline", "system", "delta")] + [
            (name, f"{_pct(getattr(self.baseline, name))}%",
             f"{_pct(getattr(self.system, name))}%", f"{delta:+}")
            for name, delta in (("recall", self.recall_delta), ("precision", self.precision_delta))
        ]
        widths = [max(len(row[col]) for row in rows) for col in range(4)]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"

    def format_kv(self) -> str:
        lines = [
            f"{label}.{line}"
            for label, metrics in (("baseline", self.baseline), ("system", self.system))
            for line in metrics.format_kv().splitlines()
        ]
        lines.append(f"delta.recall_pp={self.recall_delta:+}")
        lines.append(f"delta.precision_pp={self.precision_delta:+}")
        return "\n".join(lines) + "\n"
