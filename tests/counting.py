"""Counters of the work one call does, and the long-sentence documents
they are read on, for the tests and for ``scripts/sentence_probe.py``.
None needs pytest.

``runs`` counts the frames that run one function's code, whatever name
or binding reaches it: a call through a local alias or another module's
import counts too.  Three counters patch a name instead, because the work
they count runs no Python frame: ``compound_members`` (candidates built by
``tuple.__new__``), ``surfaces_copied`` (slices of the token columns) and
``punctuation_lookups`` (tests of membership in ``PUNCTUATION_TOKENS``).
They, and no other module of the tests or scripts, assign to the package's
names (``tests/test_counting.py`` checks the sources).  ``gazetteer_lookups``
counts the tests of membership in a gazetteer's entries, which run no frame
either, on a copy of the gazetteer, so it patches nothing.

The documents are long sentences: ``filler_text``, a name and filler
words with a reflexive zero before every 50th token; ``commas_text``,
commas before the name and its reflexives; and ``chain_text``, names
joined by ``ve``, then a sentence of plural zeros that take their
compound."""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from types import FrameType
from typing import Callable, Iterator, Sequence

import anafor.candidates
import anafor.resolver
from anafor.candidates import CandidateKind
from anafor.corpus import NameDictionary
from anafor.textmodel import PUNCTUATION_TOKENS, Document, Token

FILLERS = ("sonra", "eve", "döndü", "bir", "kitap", "okudu")
REFLEXIVE = '<zero id="{}" kind="refl" num="sg"/> '


class Count:
    n = 0
    slices = 0


@contextmanager
def runs(function, weight: Callable[[FrameType], int] | None = None) -> Iterator[Count]:
    """Count the frames that run ``function``'s code in the block: 1 each,
    or ``weight(frame)``, read as the frame starts with its arguments
    bound.  For a property the getter is counted, for a class or bound
    method its function.  A generator counts as it starts and at each
    resume.  The count is kept by ``sys.setprofile``: a profiler set
    before the block still sees every event, and is set again after it.
    ``cProfile``'s profiler, which Python before 3.12 runs as C code that
    Python cannot call, misses the block and is enabled again after it."""
    function = getattr(function, "fget", function)
    code = getattr(function, "__func__", function).__code__
    count, previous = Count(), sys.getprofile()
    chained = previous if callable(previous) else None

    def profile(frame: FrameType, event: str, arg) -> None:
        if frame.f_code is code and event == "call":
            count.n += 1 if weight is None else weight(frame)
        if chained is not None:
            chained(frame, event, arg)

    sys.setprofile(profile)
    try:
        yield count
    finally:
        sys.setprofile(chained)
        if previous is not chained:
            previous.enable()


def builds_token(frame: FrameType) -> bool:
    """The weight of a run of ``Token._make``: every named tuple's
    ``_make`` runs one code, and only a Token's builds a token."""
    return frame.f_locals["cls"] is Token


@contextmanager
def compound_members() -> Iterator[Count]:
    """Count the members of the compound candidates built in the block.
    ``anafor.candidates`` builds every candidate of its name index with
    ``tuple.__new__(Candidate, fields)``, C code that runs no frame for
    ``runs`` to count, so for the block its name ``tuple`` is a subclass
    whose ``__new__`` counts a compound's members before it builds; called
    as ``tuple(iterable)``, it builds a plain tuple."""
    count = Count()

    class Counting(tuple):
        def __new__(cls, *args):
            if cls is Counting:
                return tuple(*args)
            (fields,) = args
            if fields[1] is CandidateKind.COMPOUND:
                count.n += len(fields[0])
            return tuple.__new__(cls, fields)

    anafor.candidates.tuple = Counting
    try:
        yield count
    finally:
        del anafor.candidates.tuple


@contextmanager
def surfaces_copied(doc: Document) -> Iterator[tuple[Count, Document]]:
    """Count the surfaces sliced out of a surface column in the block: out
    of the copy of ``doc`` it yields, which the block should walk, and out
    of the working text of each walk.  Each slice adds its length to ``n``
    and one to ``slices``.  The walk slices its three token columns
    together, so ``n`` is the tokens it copies.  A slice of a tuple or
    list runs no frame for ``runs`` to count, so the columns are
    subclasses: for the block, ``anafor.resolver.Document`` builds the
    working text, the one Document over lists, out of one, and the
    paraphrase over its tuples unchanged."""
    count = Count()

    def counted(column: type) -> type:
        class Counting(column):
            def __getitem__(self, key):
                item = super().__getitem__(key)
                if isinstance(key, slice):
                    count.n += len(item)
                    count.slices += 1
                return item
        return Counting

    source, working, document = counted(tuple), counted(list), anafor.resolver.Document

    def counting_document(surfaces, *columns):
        return document(working(surfaces) if type(surfaces) is list else surfaces, *columns)

    anafor.resolver.Document = counting_document
    try:
        yield count, dataclasses.replace(doc, surfaces=source(doc.surfaces))
    finally:
        anafor.resolver.Document = document


@contextmanager
def punctuation_lookups() -> Iterator[Count]:
    """Count the tests against ``PUNCTUATION_TOKENS`` in the block, in every
    module of the package; those that do not read the marks get the name
    unused for the block.  A test of membership in a frozenset runs no
    frame for ``runs`` to count, so the name is a subclass for the block."""
    count = Count()
    modules = [module for name, module in sys.modules.items() if name.startswith("anafor.")]
    had = [module for module in modules if "PUNCTUATION_TOKENS" in vars(module)]
    counting = _counting_set(PUNCTUATION_TOKENS, count)
    for module in modules:
        module.PUNCTUATION_TOKENS = counting
    try:
        yield count
    finally:
        for module in modules:
            if module in had:
                module.PUNCTUATION_TOKENS = PUNCTUATION_TOKENS
            else:
                del module.PUNCTUATION_TOKENS


def gazetteer_lookups(dictionary: NameDictionary) -> tuple[Count, NameDictionary]:
    """A count of the tests of membership in the entries of the copy of
    ``dictionary`` it returns, by whatever code reads them: the name index
    tests the base of each token it reads once."""
    count = Count()
    return count, NameDictionary(_counting_set(dictionary.entries, count))


def _counting_set(items: frozenset, count: Count) -> frozenset:
    """A copy of ``items`` whose tests of membership each add one to
    ``count.n``: such a test runs no frame for ``runs`` to count."""

    class Counting(frozenset):
        def __contains__(self, item):
            count.n += 1
            return super().__contains__(item)

    return Counting(items)


def filler_text(tokens: int) -> str:
    """``Ali``, then ``tokens - 2`` filler words with a reflexive zero
    before every 50th token, then the full stop."""
    words = ["Ali"] + [
        (REFLEXIVE.format(i // 50) if i % 50 == 0 else "") + FILLERS[i % len(FILLERS)]
        for i in range(1, tokens - 1)
    ]
    return " ".join(words) + " ."


def commas_text(commas: int) -> str:
    """``commas`` commas, then ``Ali``, then 200 reflexive zeros each
    before ``güldü``, then the full stop."""
    zeros = " ".join(REFLEXIVE.format(i) + "güldü" for i in range(200))
    return ", " * commas + f"Ali {zeros} ."


def chain_text(names: Sequence[str], length: int, zeros: int) -> str:
    """``length`` names, cycling through ``names``, joined by ``ve``; then
    a sentence of ``zeros`` plural zeros, each before ``güldü``."""
    chain = " ve ".join(names[i % len(names)] for i in range(length))
    plurals = " ".join(f'<zero id="{i}" kind="pers" num="pl"/> güldü' for i in range(zeros))
    return f"{chain} geldi . {plurals} ."
