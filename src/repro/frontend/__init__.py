"""MiniFortran front end: lexer, parser, AST, and symbol resolution.

MiniFortran is a FORTRAN-77-flavoured language designed to exercise the
semantic features that the Grove--Torczon study depends on: reference
parameters, COMMON-block globals, integer constants that feed loop bounds,
and procedure calls that may or may not modify their arguments.

The usual entry point is :func:`parse_program`, which turns source text into
a resolved :class:`~repro.frontend.symbols.Program`.
"""

from repro.frontend.astnodes import (
    ArrayRef,
    Assign,
    BinaryOp,
    CallStmt,
    CompilationUnit,
    Continue,
    DoLoop,
    DoWhile,
    FunctionCall,
    Goto,
    IfStmt,
    IntLit,
    LogicalLit,
    ProcedureDef,
    ReadStmt,
    RealLit,
    ReturnStmt,
    StopStmt,
    UnaryOp,
    VarRef,
    WriteStmt,
)
from repro.frontend.errors import FrontendError, LexError, ParseError, SemanticError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_source
from repro.frontend.source import LineTable, SourceLocation, SourceSpan
from repro.frontend.symbols import (
    GlobalId,
    Procedure,
    Program,
    Symbol,
    SymbolKind,
    SymbolTable,
    parse_program,
)
from repro.frontend.tokens import Token, TokenKind

__all__ = [
    "ArrayRef",
    "Assign",
    "BinaryOp",
    "CallStmt",
    "CompilationUnit",
    "Continue",
    "DoLoop",
    "DoWhile",
    "FrontendError",
    "FunctionCall",
    "GlobalId",
    "Goto",
    "IfStmt",
    "IntLit",
    "LexError",
    "LineTable",
    "LogicalLit",
    "ParseError",
    "Parser",
    "Procedure",
    "ProcedureDef",
    "Program",
    "ReadStmt",
    "RealLit",
    "ReturnStmt",
    "SemanticError",
    "SourceLocation",
    "SourceSpan",
    "StopStmt",
    "Symbol",
    "SymbolKind",
    "SymbolTable",
    "Token",
    "TokenKind",
    "UnaryOp",
    "VarRef",
    "WriteStmt",
    "parse_program",
    "parse_source",
    "tokenize",
]
