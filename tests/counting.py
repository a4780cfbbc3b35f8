"""Counters of the work one call does, for the tests and for
``scripts/sentence_probe.py``: the ``Token``s it builds, the surfaces the
document walk copies, the calls it makes of one function, the reads of one
property, the members of the compound candidates it builds and its tests
against the punctuation marks.  None needs pytest."""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from typing import Iterator

import anafor.candidates
import anafor.resolver
from anafor.candidates import CandidateKind
from anafor.textmodel import PUNCTUATION_TOKENS, Document, Token


class Count:
    n = 0
    slices = 0


@contextmanager
def calls(owner, name: str) -> Iterator[Count]:
    """Count the calls of ``owner.name`` (a module's function) in the block."""
    count, original = Count(), getattr(owner, name)

    def counting(*args, **kwargs):
        count.n += 1
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        yield count
    finally:
        setattr(owner, name, original)


@contextmanager
def property_reads(owner: type, name: str) -> Iterator[Count]:
    """Count the reads of the property ``owner.name`` in the block."""
    count, original = Count(), vars(owner)[name]

    def counting(self):
        count.n += 1
        return original.fget(self)

    setattr(owner, name, property(counting))
    try:
        yield count
    finally:
        setattr(owner, name, original)


@contextmanager
def compound_members() -> Iterator[Count]:
    """Count the members of the compound candidates built in the block.
    ``anafor.candidates`` builds every candidate of its name index with
    ``tuple.__new__(Candidate, fields)``, so for the block its name
    ``tuple`` is a subclass whose ``__new__`` counts a compound's members
    before it builds; called as ``tuple(iterable)``, it builds a plain tuple."""
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
def tokens_built() -> Iterator[Count]:
    """Count the ``Token``s built in the block, by the checking constructor
    and by ``Token._make``, which copies a token without the check."""
    count = Count()
    new, make = vars(Token)["__new__"], Token._make.__func__

    def counting_new(cls, *args, **kwargs):
        count.n += 1
        return new.__func__(cls, *args, **kwargs)

    def counting_make(cls, iterable):
        count.n += 1
        return make(cls, iterable)

    Token.__new__, Token._make = staticmethod(counting_new), classmethod(counting_make)
    try:
        yield count
    finally:
        Token.__new__ = new
        del Token._make  # inherited again from the fields tuple


@contextmanager
def surfaces_copied(doc: Document) -> Iterator[tuple[Count, Document]]:
    """Count the surfaces sliced out of a surface column in the block: out
    of the copy of ``doc`` it yields, which the block should walk, and out
    of the working text of each walk.  Each slice adds its length to ``n``
    and one to ``slices``.  The walk slices its three token columns
    together, so ``n`` is the tokens it copies."""
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

    source, working, walk_text = counted(tuple), counted(list), anafor.resolver.WalkText

    class CountingWalkText(walk_text):
        def __init__(self, surfaces, *columns):
            super().__init__(working(surfaces), *columns)

    anafor.resolver.WalkText = CountingWalkText
    try:
        yield count, dataclasses.replace(doc, surfaces=source(doc.surfaces))
    finally:
        anafor.resolver.WalkText = walk_text


@contextmanager
def punctuation_lookups() -> Iterator[Count]:
    """Count the tests against ``PUNCTUATION_TOKENS`` in the block, in every
    module of the package; those that do not read the marks get the name
    unused for the block."""
    count = Count()

    class Counting(frozenset):
        def __contains__(self, item):
            count.n += 1
            return super().__contains__(item)

    modules = [module for name, module in sys.modules.items() if name.startswith("anafor.")]
    had = [module for module in modules if "PUNCTUATION_TOKENS" in vars(module)]
    counting = Counting(PUNCTUATION_TOKENS)
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
