"""Source locations and spans.

Every token and every AST node that names a variable carries a span back
into the original text. The substitution stage (``repro.core.substitute``)
relies on these spans to splice constant literals into the program source,
reproducing the paper's "transformed version of the original source".

A span is two character offsets plus the :class:`LineTable` of its
source. Splicing needs only the offsets; line and column are computed
from the table when a diagnostic or an error message asks for them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field


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
    """

    __slots__ = ("starts",)

    def __init__(self, source: str):
        self.starts = [0, *(match.end() for match in re.finditer("\n", source))]

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

    def __deepcopy__(self, memo) -> "SourceSpan":
        return self  # immutable; a copied AST keeps its source's table

    def __str__(self) -> str:
        return f"{self.start}-{self.end}"


DUMMY_SPAN = SourceSpan(0, 0)
"""Span used for synthesized nodes that have no source counterpart."""
