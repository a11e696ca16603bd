"""The MiniFortran lexer.

One compiled master regular expression scans the source into a flat
token stream. Design points:

- Free-form source; statements end at newlines, so NEWLINE is a token.
  A trailing ``&`` continues a statement onto the next line (the newline
  is swallowed), mirroring Fortran 90 free-form continuation.
- ``!`` starts a comment that runs to end of line.
- Case-insensitive: identifiers and keywords are lower-cased, and
  interned, so every occurrence of a name is one string.
- Dot-operators (``.and.``, ``.lt.``, ``.true.``, ...) are recognized as
  single tokens, as are the modern comparison spellings (``<=``, ``/=``).
- A real literal requires a digit on at least one side of the dot and must
  not form a dot-operator (``1.eq.2`` lexes as INT DOT-OP INT).
- Names and numbers are ASCII, as in FORTRAN 77. Any other character
  outside a comment or string literal is a :class:`LexError` at its
  line:column.

Tokens hold character offsets and the source's
:class:`~repro.frontend.source.LineTable`; line and column are computed
only when a span or an error asks for them.
"""

from __future__ import annotations

import re
from sys import intern

from repro.frontend.errors import LexError
from repro.frontend.source import LineTable
from repro.frontend.tokens import DOT_OPERATORS, KEYWORDS, Token, TokenKind

_OPERATORS: dict[str, TokenKind] = {
    "**": TokenKind.POWER,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.ASSIGN,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
}

_DOT_WORDS = "|".join(op.strip(".") for op in DOT_OPERATORS)
_EXPONENT = r"[ed][+-]?[0-9]+"

# Each match is optional blanks and a comment, then one of the groups
# below, or the end of the input. ``bad`` takes any character nothing
# else does, so every position matches and no text is skipped silently.
_TOKEN = re.compile(
    r"[ \t\r]*(?:![^\n]*)?(?:"
    r"(?P<name>[a-z_][a-z0-9_]*)"
    rf"|(?P<real>(?:[0-9]+\.(?!(?:{_DOT_WORDS})\.)[0-9]*|\.[0-9]+)(?:{_EXPONENT})?"
    rf"|[0-9]+{_EXPONENT})"
    r"|(?P<int>[0-9]+)"
    r"|(?P<op>\*\*|==|/=|<=|>=|[-+*/()<>=,:])"
    r"|(?P<newline>\n)"
    rf"|(?P<dot>\.(?:{_DOT_WORDS})\.)"
    r"|(?P<string>'[^'\n]*'|\"[^\"\n]*\")"
    r"|(?P<continuation>&[ \t\r]*(?:![^\n]*)?\n)"
    r"|(?P<bad>.)"
    r"|\Z)",
    re.ASCII | re.IGNORECASE | re.DOTALL,
)
_GROUP = _TOKEN.groupindex
_NAME, _REAL, _INT, _OP = _GROUP["name"], _GROUP["real"], _GROUP["int"], _GROUP["op"]
_NEWLINE, _DOT, _STRING = _GROUP["newline"], _GROUP["dot"], _GROUP["string"]
_CONTINUATION = _GROUP["continuation"]


def tokenize(
    source: str,
    lines: LineTable | None = None,
    start: int = 0,
    end: int | None = None,
) -> list[Token]:
    """Scan ``source``, or its part from offset ``start`` to ``end``; the
    list always ends with a single EOF token, at ``end``.

    Offsets are into the whole text and ``lines`` is its line table,
    built here when not given. A part scans as it does within the whole
    text when it starts where a token of that scan ends and ends at a
    line start: every newline ends a token or a continuation, so the
    scan of the whole text has a token boundary at each line start.
    """
    if lines is None:
        lines = LineTable(source)
    stop = len(source) if end is None else end
    tokens: list[Token] = []
    append = tokens.append
    IDENT, NEWLINE = TokenKind.IDENT, TokenKind.NEWLINE
    for match in _TOKEN.finditer(source, start, stop):
        group = match.lastindex
        if group is None:
            break  # only blanks and a comment were left
        start, end = match.span(group)
        if group == _NAME:
            word = intern(source[start:end].lower())
            append(Token((KEYWORDS.get(word, IDENT), word, start, end, lines)))
        elif group == _OP:
            text = source[start:end]
            append(Token((_OPERATORS[text], text, start, end, lines)))
        elif group == _NEWLINE:
            # Collapse runs of blank lines into one NEWLINE token.
            if not tokens or tokens[-1][0] is not NEWLINE:
                append(Token((NEWLINE, "\n", start, end, lines)))
        elif group == _INT:
            append(Token((TokenKind.INT, int(source[start:end]), start, end, lines)))
        elif group == _REAL:
            value = float(source[start:end].lower().replace("d", "e"))
            append(Token((TokenKind.REAL, value, start, end, lines)))
        elif group == _DOT:
            text = source[start:end].lower()
            append(Token((DOT_OPERATORS[text], text, start, end, lines)))
        elif group == _STRING:
            append(Token((TokenKind.STRING, source[start + 1 : end - 1], start, end, lines)))
        elif group != _CONTINUATION:
            raise LexError(_bad_character(source, start), lines.location(start))
    if tokens and tokens[-1][0] is not NEWLINE:
        append(Token((NEWLINE, "\n", stop, stop, lines)))
    append(Token((TokenKind.EOF, "", stop, stop, lines)))
    return tokens


def _bad_character(source: str, offset: int) -> str:
    """The message for a character no token can start with."""
    ch = source[offset]
    if ch == "&":
        return "'&' must end its line"
    if ch in "'\"":
        return "unterminated string literal"
    if ch == ".":
        return f"unrecognized dot-operator starting {source[offset : offset + 4].lower()!r}"
    return f"unexpected character {ch!r}"
