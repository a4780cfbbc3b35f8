"""A fixed reference computation that calibrates the host's speed.

On a shared machine the same Python code can run at very different speeds
from one second to the next, because other tenants compete for the
physical cores.  The benchmark interleaves this computation with the
operations it times and scales each op time by how long the reference took
next to it, which cancels the host's speed and leaves the program's.  The
work imitates the program's own: tokenizing text with a regular
expression, building frozen dataclass records, dict and set lookups and a
sort.  It never changes, so it must not be edited once results exist.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

_TEXT = (
    "Ayşe okula gitti. Ahmet ve Fatma onu gördü, Ali'ye el salladılar. "
    '"Bugün Zerrin\'i gördüm" dedi Murat. Tekin, Ayla\'ya seslendi ve eve yürüdü. '
) * 8
_WORD_RE = re.compile(r'[,.!?…"]|[^,.!?…"\s]+')
_COMMON = frozenset({"okula", "gitti", "ve", "onu", "gördü", "el", "dedi", "eve"})
_ROUNDS = 40


@dataclass(frozen=True)
class _Record:
    surface: str
    index: int
    capital: bool


def _round() -> int:
    words = _WORD_RE.findall(_TEXT)
    records = tuple(_Record(w, i, w[:1].isupper()) for i, w in enumerate(words))
    positions: dict[str, list[int]] = {}
    for record in records:
        positions.setdefault(record.surface.split("'")[0], []).append(record.index)
    common = sum(1 for record in records if record.surface in _COMMON)
    ordered = sorted(records, key=lambda r: (r.capital, r.surface, r.index))
    return len(positions) + common + ordered[0].index


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _round()
    return time.perf_counter() - start
