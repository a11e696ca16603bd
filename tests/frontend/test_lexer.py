"""Unit tests for the MiniFortran lexer."""

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_identifier(self):
        toks = tokenize("foo")
        assert toks[0].kind == TokenKind.IDENT
        assert toks[0].value == "foo"

    def test_identifiers_are_case_insensitive(self):
        toks = tokenize("FooBar")
        assert toks[0].value == "foobar"

    def test_keywords_are_case_insensitive(self):
        toks = tokenize("PROGRAM Main")
        assert toks[0].kind == TokenKind.KW_PROGRAM
        assert toks[1].value == "main"

    def test_identifier_with_underscore_and_digits(self):
        toks = tokenize("a_1b2")
        assert toks[0].kind == TokenKind.IDENT
        assert toks[0].value == "a_1b2"

    def test_integer_literal(self):
        toks = tokenize("42")
        assert toks[0].kind == TokenKind.INT
        assert toks[0].value == 42

    def test_real_literal(self):
        toks = tokenize("3.25")
        assert toks[0].kind == TokenKind.REAL
        assert toks[0].value == 3.25

    def test_real_with_exponent(self):
        toks = tokenize("1.5e3")
        assert toks[0].kind == TokenKind.REAL
        assert toks[0].value == 1500.0

    def test_real_with_d_exponent(self):
        toks = tokenize("2d2")
        assert toks[0].kind == TokenKind.REAL
        assert toks[0].value == 200.0

    def test_integer_then_exponentless_e_is_identifier(self):
        # '2e' is INT followed by IDENT 'e' (no exponent digits).
        assert kinds("2e")[:2] == [TokenKind.INT, TokenKind.IDENT]

    def test_leading_dot_real(self):
        toks = tokenize(".5")
        assert toks[0].kind == TokenKind.REAL
        assert toks[0].value == 0.5

    def test_string_literal_single_quotes(self):
        toks = tokenize("'hello'")
        assert toks[0].kind == TokenKind.STRING
        assert toks[0].value == "hello"

    def test_string_literal_double_quotes(self):
        toks = tokenize('"hi there"')
        assert toks[0].value == "hi there"


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("**", TokenKind.POWER),
            ("(", TokenKind.LPAREN),
            (")", TokenKind.RPAREN),
            (",", TokenKind.COMMA),
            ("=", TokenKind.ASSIGN),
            ("==", TokenKind.EQ),
            ("/=", TokenKind.NE),
            ("<", TokenKind.LT),
            ("<=", TokenKind.LE),
            (">", TokenKind.GT),
            (">=", TokenKind.GE),
        ],
    )
    def test_operator(self, text, kind):
        assert kinds(text)[0] == kind

    @pytest.mark.parametrize(
        "text,kind",
        [
            (".and.", TokenKind.AND),
            (".or.", TokenKind.OR),
            (".not.", TokenKind.NOT),
            (".true.", TokenKind.KW_TRUE),
            (".false.", TokenKind.KW_FALSE),
            (".eq.", TokenKind.EQ),
            (".ne.", TokenKind.NE),
            (".lt.", TokenKind.LT),
            (".le.", TokenKind.LE),
            (".gt.", TokenKind.GT),
            (".ge.", TokenKind.GE),
        ],
    )
    def test_dot_operator(self, text, kind):
        assert kinds(text)[0] == kind

    def test_dot_operators_case_insensitive(self):
        assert kinds(".AND.")[0] == TokenKind.AND

    def test_int_dot_op_int(self):
        # '1.eq.2' must not lex '1.' as a real literal.
        assert kinds("1.eq.2")[:3] == [TokenKind.INT, TokenKind.EQ, TokenKind.INT]

    def test_power_vs_star(self):
        assert kinds("a ** b")[1] == TokenKind.POWER
        assert kinds("a * b")[1] == TokenKind.STAR


class TestLayout:
    def test_newline_token_emitted(self):
        assert TokenKind.NEWLINE in kinds("a\nb")

    def test_blank_lines_collapse(self):
        toks = kinds("a\n\n\n\nb")
        assert toks.count(TokenKind.NEWLINE) == 2  # after a, after b

    def test_comment_skipped(self):
        toks = tokenize("a ! this is a comment\nb")
        idents = [t.value for t in toks if t.kind == TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_comment_only_line(self):
        toks = kinds("! just a comment\nx = 1")
        nonlayout = [k for k in toks if k != TokenKind.NEWLINE]
        assert nonlayout[0] == TokenKind.IDENT

    def test_continuation_joins_lines(self):
        toks = tokenize("a = 1 + &\n    2")
        assert TokenKind.NEWLINE not in [t.kind for t in toks[:-3]]

    def test_continuation_with_comment(self):
        toks = tokenize("a = 1 + & ! carried over\n 2")
        ints = [t.value for t in toks if t.kind == TokenKind.INT]
        assert ints == [1, 2]

    def test_continuation_must_end_line(self):
        with pytest.raises(LexError):
            tokenize("a = 1 & 2")

    def test_final_newline_synthesized(self):
        toks = tokenize("a = 1")
        assert toks[-2].kind == TokenKind.NEWLINE
        assert toks[-1].kind == TokenKind.EOF


class TestSpans:
    def test_span_covers_token_text(self):
        source = "alpha = 42"
        toks = tokenize(source)
        assert toks[0].span.extract(source) == "alpha"
        assert toks[2].span.extract(source) == "42"

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        b_tok = [t for t in toks if t.value == "b"][0]
        assert b_tok.span.start.line == 2
        assert b_tok.span.start.column == 3

    def test_offsets_monotonic(self):
        toks = tokenize("x = y + z * 2\nw = 1")
        offsets = [t.span.start.offset for t in toks]
        assert offsets == sorted(offsets)

    def test_end_marker_sits_at_the_end_of_the_text(self):
        source = "x = 1  ! trailing  "
        assert [t.span.start_offset for t in tokenize(source)[-2:]] == [
            len(source),
            len(source),
        ]


class TestPartialScan:
    """A part that starts where a token ends and ends at a line start
    scans as it does within the whole text, at the same offsets."""

    SOURCE = "program p\n  x = 1 ! c\nend\n\nsubroutine s(a)\n  a = 2\nend\n"

    def test_part_yields_the_whole_scans_tokens(self):
        start = self.SOURCE.index("end") + 3
        end = self.SOURCE.index("  a = 2")
        part = tokenize(self.SOURCE, start=start, end=end)
        whole = [
            t[:4] for t in tokenize(self.SOURCE) if start <= t[2] < end
        ]
        assert [t[:4] for t in part[:-1]] == whole
        assert part[-1].kind is TokenKind.EOF
        assert part[-1].span.start_offset == end

    def test_part_shares_the_given_line_table(self):
        whole = tokenize(self.SOURCE)
        lines = whole[0][4]
        part = tokenize(self.SOURCE, lines, start=self.SOURCE.index("subroutine"))
        assert all(token[4] is lines for token in part)
        assert str(part[0].span.start) == "5:1"


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_unterminated_string_at_newline(self):
        with pytest.raises(LexError):
            tokenize("'oops\n'")

    def test_bad_dot_sequence(self):
        with pytest.raises(LexError):
            tokenize(".xyz.")

    def test_error_carries_location(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("ok = 1\nbad @")
        assert exc_info.value.location.line == 2


class TestAsciiRule:
    """Names and numbers are ASCII, as in FORTRAN 77: any other character
    outside a comment or string literal is a located LexError, never a
    stray ``ValueError`` or a silently accepted token."""

    @pytest.mark.parametrize(
        "source,char,location",
        [
            ("x = ²", "²", "1:5"),  # a digit to str.isdigit, not to int()
            ("x = ٣", "٣", "1:5"),  # a decimal digit int() accepts
            ("n = 1\ncafé = 2", "é", "2:4"),  # a letter to str.isalpha
            ("x = 1²", "²", "1:6"),
        ],
    )
    def test_non_ascii_is_a_located_lex_error(self, source, char, location):
        with pytest.raises(LexError) as exc_info:
            tokenize(source)
        assert str(exc_info.value) == f"{location}: unexpected character {char!r}"

    def test_non_ascii_in_comments_and_strings_is_kept(self):
        toks = tokenize("write 'café ²' ! naïve ٣\n")
        assert [t.kind for t in toks] == [
            TokenKind.KW_WRITE, TokenKind.STRING, TokenKind.NEWLINE, TokenKind.EOF,
        ]
        assert toks[1].value == "café ²"


class TestTokenTuple:
    def test_token_is_kind_value_offsets_and_table(self):
        source = "a\n  bb = 1"
        token = tokenize(source)[2]
        kind, value, start, end, lines = token
        assert (kind, value, start, end) == (TokenKind.IDENT, "bb", 4, 6)
        assert token.kind is kind and token.value == value
        assert token.text == "bb"
        assert token.span.text_range == (4, 6)
        assert token.span.lines is lines
        assert str(token.span) == "2:3-2:5"

    def test_one_line_table_per_call(self):
        toks = tokenize("a = b\nc = d")
        assert len({id(t.span.lines) for t in toks}) == 1
