"""Recursive-descent parser for the STL formula grammar.

Grammar (EBNF)::

    formula  := or ;
    or       := and ( "|" and )* ;
    and      := unary ( "&" unary )* ;
    unary    := "!" unary | "G" interval "(" formula ")" | "F" interval "(" formula ")"
              | "(" formula "U" interval formula ")" | atom | "(" formula ")" ;
    interval := "[" number "," number "]" ;
    atom     := ident cmp number ;
    cmp      := "<" | "<=" | ">" | ">=" ;

Operator precedence is ! > & > |.  "G", "F" and "U" are only treated as
temporal keywords when followed by "[", so they remain usable as channel
names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .exceptions import ParseError
from .formula import (
    And,
    Eventually,
    Formula,
    Globally,
    Interval,
    Not,
    Or,
    Pred,
    Until,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<cmp><=|>=|<|>)
  | (?P<sym>[()\[\],&|!+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | cmp | sym | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, expected: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(f"expected {expected}, found {found!r}", tok.line, tok.column)

    def expect(self, text: str, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(expected or f"'{text}'")
        return self.advance()

    # grammar rules -----------------------------------------------------

    def formula(self) -> Formula:
        return self.or_()

    def or_(self) -> Formula:
        parts = [self.and_()]
        while self.peek().text == "|":
            self.advance()
            parts.append(self.and_())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&":
            self.advance()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "!":
            self.advance()
            return Not(self.unary())
        if (
            tok.kind == "ident"
            and tok.text in ("G", "F")
            and self.peek(1).text == "["
        ):
            self.advance()
            ivl = self.interval()
            self.expect("(", "'(' after temporal operator")
            body = self.formula()
            self.expect(")")
            return Globally(ivl, body) if tok.text == "G" else Eventually(ivl, body)
        if tok.text == "(":
            self.advance()
            lhs = self.formula()
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "U" and self.peek(1).text == "[":
                self.advance()
                ivl = self.interval()
                rhs = self.formula()
                self.expect(")")
                return Until(ivl, lhs, rhs)
            self.expect(")")
            return lhs
        if tok.kind == "ident":
            return self.atom()
        raise self.error("a predicate, '!', '(', or a temporal operator")

    def interval(self) -> Interval:
        open_tok = self.expect("[", "'[' to open an interval")
        a = self.number()
        self.expect(",", "',' between interval bounds")
        b = self.number()
        self.expect("]", "']' to close the interval")
        try:
            return Interval(a, b)
        except ValueError as exc:
            raise ParseError(str(exc), open_tok.line, open_tok.column) from None

    def atom(self) -> Pred:
        name = self.advance()
        cmp_tok = self.peek()
        if cmp_tok.kind != "cmp":
            raise self.error("a comparison operator (<, <=, >, >=)")
        self.advance()
        number_tok = self.peek()
        threshold = self.number()
        try:
            return Pred(name.text, cmp_tok.text, threshold)
        except ValueError as exc:
            raise ParseError(str(exc), number_tok.line, number_tok.column) from None

    def number(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.text in ("+", "-"):
            self.advance()
            sign = -1.0 if tok.text == "-" else 1.0
            tok = self.peek()
        if tok.kind != "number":
            raise self.error("a number")
        self.advance()
        return sign * float(tok.text)


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST; raises ParseError with line/column on failure."""
    parser = _Parser(text)
    f = parser.formula()
    if parser.peek().kind != "eof":
        raise parser.error("end of input")
    return f
