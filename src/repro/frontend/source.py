"""Source locations and spans.

Every token and every AST node that names a variable carries a span back
into the original text. :func:`splice` is the one way the program writes
source: the substitution stage (``repro.core.substitute``) splices
constant literals into the program text, reproducing the paper's
"transformed version of the original source", and procedure cloning
(``repro.core.cloning``) splices clone names into call sites and into
copies of the cloned units' own text.

A span is two character offsets plus the :class:`LineTable` of its
source. Splicing needs only the offsets; line and column are computed
from the table when a diagnostic or an error message asks for them.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in the source text.

    ``line`` and ``column`` are 1-based (editor convention); ``offset`` is
    the 0-based character index into the source string.
    """

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class LineTable:
    """The offsets at which the lines of one source text start.

    Built once per :func:`~repro.frontend.lexer.tokenize` call and shared
    by every span into that text. Only ``\\n`` ends a line; ``\\r`` and
    ``\\t`` are one column each.

    The offsets are one machine word each, in an untracked array, not a
    list of ``int`` objects: spans an edit carries into the next program
    version keep their table alive (see :meth:`same_as`).
    """

    __slots__ = ("starts",)

    def __init__(self, source: str):
        self.starts = array(
            "q", [0, *(match.end() for match in re.finditer("\n", source))]
        )

    def same_as(self, other: LineTable | None) -> LineTable:
        """``other`` when it describes the same lines as this table, else
        this table: the versions of an edited text whose lines did not
        move share one table."""
        if other is not None and other.starts == self.starts:
            return other
        return self

    def location(self, offset: int) -> SourceLocation:
        line = bisect_right(self.starts, offset)
        return SourceLocation(line, offset - self.starts[line - 1] + 1, offset)


@dataclass(frozen=True, slots=True, order=True)
class SourceSpan:
    """A half-open character range ``[start_offset, end_offset)`` in the
    source text.

    Equality, hashing and ordering look at the offsets alone. ``lines``
    is ``None`` only for :data:`DUMMY_SPAN`, whose locations read
    ``0:0``.
    """

    start_offset: int
    end_offset: int
    lines: LineTable | None = field(default=None, compare=False, repr=False)

    @property
    def start(self) -> SourceLocation:
        return self._locate(self.start_offset)

    @property
    def end(self) -> SourceLocation:
        return self._locate(self.end_offset)

    def _locate(self, offset: int) -> SourceLocation:
        if self.lines is None:
            return SourceLocation(0, 0, offset)
        return self.lines.location(offset)

    @property
    def text_range(self) -> tuple[int, int]:
        return (self.start_offset, self.end_offset)

    def extract(self, source: str) -> str:
        """Return the text this span covers in ``source``."""
        return source[self.start_offset : self.end_offset]

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        return SourceSpan(
            min(self.start_offset, other.start_offset),
            max(self.end_offset, other.end_offset),
            self.lines or other.lines,
        )

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


DUMMY_SPAN = SourceSpan(0, 0)
"""Span used for synthesized nodes that have no source counterpart."""


def splice(
    source: str,
    edits: Iterable[tuple[SourceSpan, str]],
    region: SourceSpan | None = None,
) -> str:
    """``source``, or the part of it ``region`` covers, with the text of
    every edit's span replaced by the edit's string.

    One left-to-right pass over the edits in span order copies each
    character of the text once. Every span must lie inside ``region``,
    and no two spans may overlap: no order of applying overlapping edits
    is right, so they raise :class:`ValueError`.
    """
    start, end = (0, len(source)) if region is None else region.text_range
    pieces = []
    cursor = start
    for span, text in sorted(edits, key=itemgetter(0)):
        if span.start_offset < cursor or span.end_offset > end:
            raise ValueError(f"edit at {span} overlaps another or leaves the region")
        pieces.append(source[cursor : span.start_offset])
        pieces.append(text)
        cursor = span.end_offset
    pieces.append(source[cursor:end])
    return "".join(pieces)
