"""Token definitions for MiniFortran.

MiniFortran is free-form (no fixed columns) and case-insensitive, like
FORTRAN 77. Identifiers and keywords are normalized to lower case by the
lexer; the original spelling survives only through source spans.
"""

from __future__ import annotations

import enum
from operator import itemgetter

from repro.frontend.source import SourceSpan


class TokenKind(enum.Enum):
    """All lexical categories the parser distinguishes."""

    # Literals and names.
    IDENT = "ident"
    INT = "int"
    REAL = "real"
    STRING = "string"

    # Keywords.
    KW_PROGRAM = "program"
    KW_SUBROUTINE = "subroutine"
    KW_FUNCTION = "function"
    KW_END = "end"
    KW_INTEGER = "integer"
    KW_REAL = "real_kw"
    KW_LOGICAL = "logical"
    KW_DIMENSION = "dimension"
    KW_COMMON = "common"
    KW_DATA = "data"
    KW_PARAMETER = "parameter"
    KW_IF = "if"
    KW_THEN = "then"
    KW_ELSE = "else"
    KW_ELSEIF = "elseif"
    KW_ENDIF = "endif"
    KW_DO = "do"
    KW_WHILE = "while"
    KW_ENDDO = "enddo"
    KW_CALL = "call"
    KW_RETURN = "return"
    KW_GOTO = "goto"
    KW_CONTINUE = "continue"
    KW_STOP = "stop"
    KW_READ = "read"
    KW_WRITE = "write"
    KW_TRUE = ".true."
    KW_FALSE = ".false."

    # Operators and punctuation.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    POWER = "**"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    ASSIGN = "="
    COLON = ":"
    EQ = "=="
    NE = "/="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = ".and."
    OR = ".or."
    NOT = ".not."
    NEWLINE = "newline"
    EOF = "eof"


KEYWORDS: dict[str, TokenKind] = {
    "program": TokenKind.KW_PROGRAM,
    "subroutine": TokenKind.KW_SUBROUTINE,
    "function": TokenKind.KW_FUNCTION,
    "end": TokenKind.KW_END,
    "integer": TokenKind.KW_INTEGER,
    "real": TokenKind.KW_REAL,
    "logical": TokenKind.KW_LOGICAL,
    "dimension": TokenKind.KW_DIMENSION,
    "common": TokenKind.KW_COMMON,
    "data": TokenKind.KW_DATA,
    "parameter": TokenKind.KW_PARAMETER,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "elseif": TokenKind.KW_ELSEIF,
    "endif": TokenKind.KW_ENDIF,
    "do": TokenKind.KW_DO,
    "while": TokenKind.KW_WHILE,
    "enddo": TokenKind.KW_ENDDO,
    "call": TokenKind.KW_CALL,
    "return": TokenKind.KW_RETURN,
    "goto": TokenKind.KW_GOTO,
    "continue": TokenKind.KW_CONTINUE,
    "stop": TokenKind.KW_STOP,
    "read": TokenKind.KW_READ,
    "write": TokenKind.KW_WRITE,
}

DOT_OPERATORS: dict[str, TokenKind] = {
    ".and.": TokenKind.AND,
    ".or.": TokenKind.OR,
    ".not.": TokenKind.NOT,
    ".true.": TokenKind.KW_TRUE,
    ".false.": TokenKind.KW_FALSE,
    ".eq.": TokenKind.EQ,
    ".ne.": TokenKind.NE,
    ".lt.": TokenKind.LT,
    ".le.": TokenKind.LE,
    ".gt.": TokenKind.GT,
    ".ge.": TokenKind.GE,
}


class Token(tuple):
    """A single lexeme: the tuple ``(kind, value, start, end, lines)``.

    ``value`` holds the normalized payload: the lower-cased name for
    identifiers, an ``int`` for integer literals, a ``float`` for real
    literals, and the raw text otherwise. ``start`` and ``end`` are
    character offsets into the source and ``lines`` is its
    :class:`~repro.frontend.source.LineTable`, so a token is one tuple
    and its :class:`SourceSpan` is built only when asked for.
    """

    __slots__ = ()

    kind = property(itemgetter(0))
    value = property(itemgetter(1))

    @property
    def text(self) -> str:
        return str(self[1])

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self[2], self[3], self[4])

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.span})"
