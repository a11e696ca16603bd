"""Recursive-descent parser for MiniFortran.

Produces an unresolved :class:`~repro.frontend.astnodes.CompilationUnit`;
name binding (locals vs. COMMON globals vs. function calls vs. array
references) happens afterwards in :mod:`repro.frontend.symbols`.

Grammar summary (NEWLINE-terminated statements, declarations first)::

    unit       := procedure+
    procedure  := "program" name body "end"
                | "subroutine" name [ "(" params ")" ] body "end"
                | type "function" name "(" params ")" body "end"
    body       := decl* stmt*
    stmt       := [ label ] ( assign | if | do | call | goto | continue
                            | return | stop | read | write )

Expression precedence, lowest first:
``.or.`` < ``.and.`` < ``.not.`` < comparisons < ``+ -`` < ``* /`` < unary
``+ -`` < ``**`` (right-assoc) < primary.
"""

from __future__ import annotations

from repro.frontend import astnodes as ast
from repro.frontend.errors import ParseError
from repro.frontend.lexer import tokenize
from repro.frontend.source import LineTable, SourceSpan
from repro.frontend.tokens import Token, TokenKind

_TYPE_KEYWORDS = {
    TokenKind.KW_INTEGER: ast.Type.INTEGER,
    TokenKind.KW_REAL: ast.Type.REAL,
    TokenKind.KW_LOGICAL: ast.Type.LOGICAL,
}

_DECL_STARTERS = frozenset(
    {
        TokenKind.KW_INTEGER,
        TokenKind.KW_REAL,
        TokenKind.KW_LOGICAL,
        TokenKind.KW_DIMENSION,
        TokenKind.KW_COMMON,
        TokenKind.KW_DATA,
        TokenKind.KW_PARAMETER,
    }
)

_COMPARE_TOKENS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}


class Parser:
    """Parses a token stream into a :class:`CompilationUnit`."""

    def __init__(self, tokens: list[Token], source: str = ""):
        # Two more EOF tokens past the end let _peek(1) and _advance run
        # without bounds checks; the grammar never advances past EOF.
        eof = tokens[-1]
        self._tokens = [*tokens, eof, eof]
        self._pos = 0
        self._source = source

    def parse(self, whole: bool = True) -> ast.CompilationUnit:
        """The units the tokens hold. A whole text must hold one; a part
        of one (see :func:`parse_source`) may hold none."""
        procedures = []
        self._skip_newlines()
        while not self._at(TokenKind.EOF):
            procedures.append(self._parse_procedure())
            self._skip_newlines()
        eof = self._peek()
        if not procedures and whole:
            raise ParseError("empty program", eof.span.start)
        return ast.CompilationUnit(
            procedures=procedures, source=self._source, lines=eof[4]
        )

    # -- program units ----------------------------------------------------

    def _parse_procedure(self) -> ast.ProcedureDef:
        start = self._peek().span
        return_type = None
        if self._at(TokenKind.KW_PROGRAM):
            kind = ast.ProcedureKind.PROGRAM
        elif self._at(TokenKind.KW_SUBROUTINE):
            kind = ast.ProcedureKind.SUBROUTINE
        elif self._peek().kind in _TYPE_KEYWORDS and self._peek(1).kind == TokenKind.KW_FUNCTION:
            kind = ast.ProcedureKind.FUNCTION
            return_type = _TYPE_KEYWORDS[self._advance().kind]
        else:
            raise ParseError(
                f"expected a program unit, found {self._peek().text!r}",
                self._peek().span.start,
            )
        self._advance()
        name_span = self._peek().span
        name = self._expect_ident(f"{kind.value} name")
        params = (
            []
            if kind is ast.ProcedureKind.PROGRAM
            else self._parse_param_list(optional=kind is ast.ProcedureKind.SUBROUTINE)
        )
        self._expect_newline()
        decls, body = self._parse_body()
        end_span = self._expect(TokenKind.KW_END).span
        return ast.ProcedureDef(
            kind=kind,
            name=name,
            params=params,
            return_type=return_type,
            decls=decls,
            body=body,
            span=start.merge(end_span),
            name_span=name_span,
        )

    def _parse_param_list(self, optional: bool) -> list[str]:
        if not self._at(TokenKind.LPAREN):
            if optional:
                return []
            raise ParseError("expected parameter list", self._peek().span.start)
        self._advance()
        params: list[str] = []
        if not self._at(TokenKind.RPAREN):
            params.append(self._expect_ident("parameter name"))
            while self._at(TokenKind.COMMA):
                self._advance()
                params.append(self._expect_ident("parameter name"))
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_body(self) -> tuple[list[ast.Decl], list[ast.Stmt]]:
        decls: list[ast.Decl] = []
        self._skip_newlines()
        while self._peek().kind in _DECL_STARTERS:
            decls.append(self._parse_decl())
            self._expect_newline()
        stmts = self._parse_stmt_list(
            terminators=(TokenKind.KW_END,)
        )
        return decls, stmts

    # -- declarations ------------------------------------------------------

    def _parse_decl(self) -> ast.Decl:
        tok = self._peek()
        if tok.kind in _TYPE_KEYWORDS:
            self._advance()
            declarators = self._parse_declarator_list()
            return ast.TypeDecl(
                type=_TYPE_KEYWORDS[tok.kind], declarators=declarators, span=tok.span
            )
        if tok.kind == TokenKind.KW_DIMENSION:
            self._advance()
            declarators = self._parse_declarator_list()
            for declarator in declarators:
                if not declarator.is_array:
                    raise ParseError(
                        f"dimension declarator {declarator.name!r} needs bounds",
                        tok.span.start,
                    )
            return ast.DimensionDecl(declarators=declarators, span=tok.span)
        if tok.kind == TokenKind.KW_COMMON:
            self._advance()
            self._expect(TokenKind.SLASH)
            block = self._expect_ident("common block name")
            self._expect(TokenKind.SLASH)
            declarators = self._parse_declarator_list()
            return ast.CommonDecl(block=block, declarators=declarators, span=tok.span)
        if tok.kind == TokenKind.KW_DATA:
            self._advance()
            pairs = [self._parse_data_pair()]
            while self._at(TokenKind.COMMA):
                self._advance()
                pairs.append(self._parse_data_pair())
            return ast.DataDecl(pairs=pairs, span=tok.span)
        if tok.kind == TokenKind.KW_PARAMETER:
            self._advance()
            self._expect(TokenKind.LPAREN)
            pairs = [self._parse_parameter_pair()]
            while self._at(TokenKind.COMMA):
                self._advance()
                pairs.append(self._parse_parameter_pair())
            self._expect(TokenKind.RPAREN)
            return ast.ParameterDecl(pairs=pairs, span=tok.span)
        raise ParseError(f"expected declaration, found {tok.text!r}", tok.span.start)

    def _parse_declarator_list(self) -> list[ast.Declarator]:
        declarators = [self._parse_declarator()]
        while self._at(TokenKind.COMMA):
            self._advance()
            declarators.append(self._parse_declarator())
        return declarators

    def _parse_declarator(self) -> ast.Declarator:
        tok = self._expect(TokenKind.IDENT)
        dims: list[ast.Expr] = []
        if self._at(TokenKind.LPAREN):
            self._advance()
            dims.append(self._parse_expr())
            while self._at(TokenKind.COMMA):
                self._advance()
                dims.append(self._parse_expr())
            self._expect(TokenKind.RPAREN)
        return ast.Declarator(name=str(tok.value), dims=tuple(dims), span=tok.span)

    def _parse_data_pair(self) -> tuple[str, ast.Expr]:
        name = self._expect_ident("data name")
        self._expect(TokenKind.SLASH)
        value = self._parse_signed_literal()
        self._expect(TokenKind.SLASH)
        return (name, value)

    def _parse_parameter_pair(self) -> tuple[str, ast.Expr]:
        name = self._expect_ident("parameter name")
        self._expect(TokenKind.ASSIGN)
        value = self._parse_expr()
        return (name, value)

    def _parse_signed_literal(self) -> ast.Expr:
        negate = False
        tok = self._peek()
        if tok.kind == TokenKind.MINUS:
            self._advance()
            negate = True
            tok = self._peek()
        if tok.kind == TokenKind.INT:
            self._advance()
            value = -tok.value if negate else tok.value
            return ast.IntLit(value, span=tok.span)
        if tok.kind == TokenKind.REAL:
            self._advance()
            value = -tok.value if negate else tok.value
            return ast.RealLit(value, span=tok.span)
        if tok.kind in (TokenKind.KW_TRUE, TokenKind.KW_FALSE) and not negate:
            self._advance()
            return ast.LogicalLit(tok.kind == TokenKind.KW_TRUE, span=tok.span)
        raise ParseError("expected a literal", tok.span.start)

    # -- statements ---------------------------------------------------------

    def _parse_stmt_list(self, terminators: tuple[TokenKind, ...]) -> list[ast.Stmt]:
        stmts: list[ast.Stmt] = []
        self._skip_newlines()
        while self._peek().kind not in terminators:
            if self._at(TokenKind.EOF):
                raise ParseError("unexpected end of input", self._peek().span.start)
            stmts.append(self._parse_stmt())
            self._expect_newline()
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        label: int | None = None
        if self._at(TokenKind.INT):
            label_tok = self._advance()
            label = int(label_tok.value)
        stmt = self._parse_core_stmt()
        stmt.label = label
        return stmt

    def _parse_core_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind == TokenKind.KW_IF:
            return self._parse_if()
        if tok.kind == TokenKind.KW_DO:
            return self._parse_do()
        if tok.kind == TokenKind.KW_CALL:
            return self._parse_call()
        if tok.kind == TokenKind.KW_GOTO:
            self._advance()
            target_tok = self._expect(TokenKind.INT)
            return ast.Goto(target=int(target_tok.value), span=tok.span)
        if tok.kind == TokenKind.KW_CONTINUE:
            self._advance()
            return ast.Continue(span=tok.span)
        if tok.kind == TokenKind.KW_RETURN:
            self._advance()
            return ast.ReturnStmt(span=tok.span)
        if tok.kind == TokenKind.KW_STOP:
            self._advance()
            return ast.StopStmt(span=tok.span)
        if tok.kind == TokenKind.KW_READ:
            return self._parse_read()
        if tok.kind == TokenKind.KW_WRITE:
            return self._parse_write()
        if tok.kind == TokenKind.IDENT:
            return self._parse_assign()
        raise ParseError(f"expected statement, found {tok.text!r}", tok.span.start)

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_IF).span
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        if not self._at(TokenKind.KW_THEN):
            # Logical IF: 'if (cond) stmt' on one line.
            body_stmt = self._parse_core_stmt()
            return ast.IfStmt(cond=cond, then_body=[body_stmt], span=start)
        self._advance()
        self._expect_newline()
        then_body = self._parse_stmt_list(
            terminators=(TokenKind.KW_ELSE, TokenKind.KW_ELSEIF, TokenKind.KW_ENDIF)
        )
        else_body: list[ast.Stmt] = []
        if self._at(TokenKind.KW_ELSEIF):
            elseif_tok = self._advance()
            self._expect(TokenKind.LPAREN)
            inner_cond = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.KW_THEN)
            self._expect_newline()
            # Desugar: elseif chain becomes a nested IfStmt in else_body.
            nested = self._parse_elseif_chain(inner_cond, elseif_tok.span)
            else_body = [nested]
        elif self._at(TokenKind.KW_ELSE):
            self._advance()
            self._expect_newline()
            else_body = self._parse_stmt_list(terminators=(TokenKind.KW_ENDIF,))
            self._expect(TokenKind.KW_ENDIF)
        else:
            self._expect(TokenKind.KW_ENDIF)
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body, span=start)

    def _parse_elseif_chain(self, cond: ast.Expr, span: SourceSpan) -> ast.IfStmt:
        then_body = self._parse_stmt_list(
            terminators=(TokenKind.KW_ELSE, TokenKind.KW_ELSEIF, TokenKind.KW_ENDIF)
        )
        else_body: list[ast.Stmt] = []
        if self._at(TokenKind.KW_ELSEIF):
            elseif_tok = self._advance()
            self._expect(TokenKind.LPAREN)
            inner_cond = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.KW_THEN)
            self._expect_newline()
            else_body = [self._parse_elseif_chain(inner_cond, elseif_tok.span)]
        elif self._at(TokenKind.KW_ELSE):
            self._advance()
            self._expect_newline()
            else_body = self._parse_stmt_list(terminators=(TokenKind.KW_ENDIF,))
            self._expect(TokenKind.KW_ENDIF)
        else:
            self._expect(TokenKind.KW_ENDIF)
        return ast.IfStmt(cond=cond, then_body=then_body, else_body=else_body, span=span)

    def _parse_do(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_DO).span
        if self._at(TokenKind.KW_WHILE):
            self._advance()
            self._expect(TokenKind.LPAREN)
            cond = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            self._expect_newline()
            body = self._parse_stmt_list(terminators=(TokenKind.KW_ENDDO,))
            self._expect(TokenKind.KW_ENDDO)
            return ast.DoWhile(cond=cond, body=body, span=start)
        var_tok = self._expect(TokenKind.IDENT)
        var = ast.VarRef(str(var_tok.value), span=var_tok.span)
        self._expect(TokenKind.ASSIGN)
        first = self._parse_expr()
        self._expect(TokenKind.COMMA)
        last = self._parse_expr()
        step: ast.Expr | None = None
        if self._at(TokenKind.COMMA):
            self._advance()
            step = self._parse_expr()
        self._expect_newline()
        body = self._parse_stmt_list(terminators=(TokenKind.KW_ENDDO,))
        self._expect(TokenKind.KW_ENDDO)
        return ast.DoLoop(var=var, first=first, last=last, step=step, body=body, span=start)

    def _parse_call(self) -> ast.CallStmt:
        start = self._expect(TokenKind.KW_CALL).span
        name_tok = self._peek()
        name = self._expect_ident("subroutine name")
        name_span = name_tok.span
        args: list[ast.Expr] = []
        if self._at(TokenKind.LPAREN):
            self._advance()
            if not self._at(TokenKind.RPAREN):
                args.append(self._parse_expr())
                while self._at(TokenKind.COMMA):
                    self._advance()
                    args.append(self._parse_expr())
            self._expect(TokenKind.RPAREN)
        return ast.CallStmt(name=name, args=args, span=start, name_span=name_span)

    def _parse_read(self) -> ast.ReadStmt:
        start = self._expect(TokenKind.KW_READ).span
        targets: list[ast.VarRef | ast.ArrayRef] = [self._parse_read_target()]
        while self._at(TokenKind.COMMA):
            self._advance()
            targets.append(self._parse_read_target())
        return ast.ReadStmt(targets=targets, span=start)

    def _parse_read_target(self) -> ast.VarRef | ast.ArrayRef:
        expr = self._parse_primary()
        if isinstance(expr, ast.VarRef):
            return expr
        if isinstance(expr, ast.FunctionCall):
            # 'read a(i)' parses as a call; reinterpret as an array target.
            return ast.ArrayRef(expr.name, expr.args, span=expr.span)
        raise ParseError("read target must be a variable", expr.span.start)

    def _parse_write(self) -> ast.WriteStmt:
        start = self._expect(TokenKind.KW_WRITE).span
        values = [self._parse_expr()]
        while self._at(TokenKind.COMMA):
            self._advance()
            values.append(self._parse_expr())
        return ast.WriteStmt(values=values, span=start)

    def _parse_assign(self) -> ast.Assign:
        target_expr = self._parse_primary()
        if isinstance(target_expr, ast.FunctionCall):
            target: ast.VarRef | ast.ArrayRef = ast.ArrayRef(
                target_expr.name, target_expr.args, span=target_expr.span
            )
        elif isinstance(target_expr, ast.VarRef):
            target = target_expr
        else:
            raise ParseError("invalid assignment target", target_expr.span.start)
        self._expect(TokenKind.ASSIGN)
        value = self._parse_expr()
        return ast.Assign(target=target, value=value, span=target_expr.span)

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.OR):
            op_tok = self._advance()
            right = self._parse_and()
            left = ast.BinaryOp(".or.", left, right, span=op_tok.span)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at(TokenKind.AND):
            op_tok = self._advance()
            right = self._parse_not()
            left = ast.BinaryOp(".and.", left, right, span=op_tok.span)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at(TokenKind.NOT):
            op_tok = self._advance()
            operand = self._parse_not()
            return ast.UnaryOp(".not.", operand, span=op_tok.span)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self._peek().kind in _COMPARE_TOKENS:
            op_tok = self._advance()
            right = self._parse_additive()
            return ast.BinaryOp(_COMPARE_TOKENS[op_tok.kind], left, right, span=op_tok.span)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op_tok = self._advance()
            right = self._parse_multiplicative()
            op = "+" if op_tok.kind == TokenKind.PLUS else "-"
            left = ast.BinaryOp(op, left, right, span=op_tok.span)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            op_tok = self._advance()
            right = self._parse_unary()
            op = "*" if op_tok.kind == TokenKind.STAR else "/"
            left = ast.BinaryOp(op, left, right, span=op_tok.span)
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp("-", operand, span=tok.span)
        if tok.kind == TokenKind.PLUS:
            self._advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_primary()
        if self._at(TokenKind.POWER):
            op_tok = self._advance()
            # Right-associative: a ** b ** c == a ** (b ** c).
            exponent = self._parse_unary()
            return ast.BinaryOp("**", base, exponent, span=op_tok.span)
        return base

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == TokenKind.INT:
            self._advance()
            return ast.IntLit(int(tok.value), span=tok.span)
        if tok.kind == TokenKind.REAL:
            self._advance()
            return ast.RealLit(float(tok.value), span=tok.span)
        if tok.kind == TokenKind.KW_TRUE:
            self._advance()
            return ast.LogicalLit(True, span=tok.span)
        if tok.kind == TokenKind.KW_FALSE:
            self._advance()
            return ast.LogicalLit(False, span=tok.span)
        if tok.kind == TokenKind.STRING:
            self._advance()
            return ast.StringLit(str(tok.value), span=tok.span)
        if tok.kind == TokenKind.IDENT:
            self._advance()
            name = str(tok.value)
            if self._at(TokenKind.LPAREN):
                self._advance()
                args: list[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    while self._at(TokenKind.COMMA):
                        self._advance()
                        args.append(self._parse_expr())
                close = self._expect(TokenKind.RPAREN)
                return ast.FunctionCall(
                    name, args, span=tok.span.merge(close.span),
                    name_span=tok.span,
                )
            return ast.VarRef(name, span=tok.span)
        if tok.kind == TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        raise ParseError(f"expected expression, found {tok.text!r}", tok.span.start)

    # -- token-stream helpers -------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[self._pos + ahead]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos][0] is kind

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.span.start
            )
        return self._advance()

    def _expect_ident(self, what: str) -> str:
        tok = self._peek()
        if tok.kind != TokenKind.IDENT:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.span.start)
        self._advance()
        return str(tok.value)

    def _expect_newline(self) -> None:
        if self._at(TokenKind.EOF):
            return
        self._expect(TokenKind.NEWLINE)

    def _skip_newlines(self) -> None:
        while self._at(TokenKind.NEWLINE):
            self._advance()


def parse_source(
    source: str,
    lines: LineTable | None = None,
    start: int = 0,
    end: int | None = None,
) -> ast.CompilationUnit:
    """Lex and parse ``source`` into an unresolved compilation unit, or
    only the units between offsets ``start`` and ``end`` (``lines``,
    ``start`` and ``end`` as :func:`~repro.frontend.lexer.tokenize`
    takes them): an edit re-parses the text between the units it kept
    (:func:`~repro.frontend.symbols.parse_program`)."""
    tokens = tokenize(source, lines, start, end)
    return Parser(tokens, source).parse(whole=start == 0 and end is None)
