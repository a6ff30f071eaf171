"""Fortran lexer.

Tokenises free-form Fortran source for the subset handled by the frontend.
Fortran is case-insensitive: identifiers and keywords are lowercased.  The
lexer folds continuation lines (``&``), strips comments (``!``) and produces a
NEWLINE token at each statement boundary (newline or ``;``).
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional


class LexError(Exception):
    """Raised for characters or constructs the lexer does not understand."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


#: Keywords recognised as their own token kind (lowercase).
KEYWORDS = frozenset(
    {
        "program",
        "subroutine",
        "function",
        "end",
        "do",
        "enddo",
        "if",
        "then",
        "else",
        "elseif",
        "endif",
        "implicit",
        "none",
        "integer",
        "real",
        "double",
        "precision",
        "logical",
        "parameter",
        "dimension",
        "intent",
        "in",
        "out",
        "inout",
        "allocatable",
        "allocate",
        "deallocate",
        "call",
        "return",
        "exit",
        "cycle",
        "while",
        "print",
        "write",
        "use",
        "contains",
        "module",
        "kind",
        "result",
        "stop",
    }
)

_TOKEN_SPEC = [
    ("REAL", r"\d+\.\d*([dDeE][+-]?\d+)?(_\w+)?|\d+[dDeE][+-]?\d+(_\w+)?|\.\d+([dDeE][+-]?\d+)?(_\w+)?"),
    ("INT", r"\d+(_\w+)?"),
    ("DOTOP", r"\.(and|or|not|eqv|neqv|true|false|eq|ne|lt|le|gt|ge)\."),
    ("IDENT", r"[A-Za-z][A-Za-z0-9_]*"),
    ("DCOLON", r"::"),
    ("POW", r"\*\*"),
    ("CONCAT", r"//"),
    ("LE", r"<="),
    ("GE", r">="),
    ("EQ", r"=="),
    ("NE", r"/="),
    ("ARROW", r"=>"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("STAR", r"\*"),
    ("SLASH", r"/"),
    ("LT", r"<"),
    ("GT", r">"),
    ("ASSIGN", r"="),
    ("COLON", r":"),
    ("PERCENT", r"%"),
    ("SEMI", r";"),
    ("STRING", r"'[^']*'|\"[^\"]*\""),
]

_MASTER_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
)


def _strip_comment(line: str) -> str:
    """Remove a trailing ``!`` comment, respecting string literals."""
    if "!" not in line:
        return line
    in_single = in_double = False
    for i, ch in enumerate(line):
        if ch == "'" and not in_double:
            in_single = not in_single
        elif ch == '"' and not in_single:
            in_double = not in_double
        elif ch == "!" and not in_single and not in_double:
            return line[:i]
    return line


def _fold_continuations(source: str) -> List[tuple]:
    """Join continuation lines; returns a list of (logical_line, first_lineno)."""
    logical: List[tuple] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            if pending:
                continue
            continue
        if not pending:
            pending_line = lineno
        stripped = line.strip()
        if stripped.startswith("&"):
            stripped = stripped[1:]
        if stripped.endswith("&"):
            pending += stripped[:-1] + " "
            continue
        pending += stripped
        logical.append((pending, pending_line))
        pending = ""
    if pending:
        logical.append((pending, pending_line))
    return logical


def tokenize(source: str) -> List[Token]:
    """Tokenise a complete Fortran source string."""
    tokens: List[Token] = []
    for line, lineno in _fold_continuations(source):
        column = 0
        while column < len(line):
            ch = line[column]
            if ch in " \t":
                column += 1
                continue
            match = _MASTER_RE.match(line, column)
            if match is None:
                raise LexError(f"unexpected character {ch!r}", lineno, column + 1)
            kind = match.lastgroup or ""
            value = match.group(0)
            if kind == "IDENT":
                value = value.lower()
                if value in KEYWORDS:
                    kind = "KEYWORD"
            elif kind == "DOTOP":
                value = value.lower()
            elif kind == "SEMI":
                kind = "NEWLINE"
            tokens.append(Token(kind, value, lineno, column + 1))
            column = match.end()
        tokens.append(Token("NEWLINE", "\n", lineno, len(line) + 1))
    # EOF sits just past the last logical line (line 1 of an empty source).
    line, column = (tokens[-1].line, tokens[-1].column + 1) if tokens else (1, 1)
    tokens.append(Token("EOF", "", line, column))
    return tokens


__all__ = ["Token", "tokenize", "LexError", "KEYWORDS"]
