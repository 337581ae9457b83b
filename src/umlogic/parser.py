"""Recursive-descent parser for the concrete formula syntax.

Grammar (loosest to tightest binding)::

    formula  := implies ('<->' implies)*        # sugar: a <-> b == (a -> b) & (b -> a)
    implies  := or ('->' implies)?              # right-associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '~' unary | '[' grade ']' unary | '<' grade '>' unary
              | name | '(' formula ')'
    grade    := NUMBER ('/' NUMBER)?            # "1/8", "0.125", "1"

Atoms are identifiers.  Grade literals must denote rationals in [0, 1].

A formula may nest at most :data:`MAX_DEPTH` levels deep, counting one
level per node of its syntax tree and one per pair of parentheses on the
way down (``a <-> b`` parses to two levels, an ``&`` over two ``->``).
Deeper input is rejected with a :class:`ParseError`, so the recursive
printer, desugaring and evaluators never run out of stack.

The sugar ``a <-> b`` copies both sides, so k nested biconditionals
expand to a tree of about 2^k leaves, which the printer, desugaring and
evaluators walk in full.  A formula whose expanded tree has more than
:data:`MAX_NODES` nodes (parentheses are not nodes) is rejected too.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .formula import And, Atom, Box, Diamond, Formula, GradeError, Implies, Not, Or, as_grade


#: Deepest nesting :func:`parse` accepts; see the module docstring.
MAX_DEPTH = 100

#: Most syntax-tree nodes :func:`parse` accepts, with ``<->`` expanded.
MAX_NODES = 100_000


class ParseError(ValueError):
    """Syntax error with position and the set of tokens that were legal."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        where = f"line {line}, column {column}"
        if expected:
            message = f"{message} at {where} (expected {', '.join(expected)})"
        else:
            message = f"{message} at {where}"
        super().__init__(message)


def _too_deep(tok: "_Token") -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.column)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<NUMBER>\d+\.\d+|\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[~&|()\[\]<>/])
    """,
    re.VERBOSE,
)

_OP_KINDS = {
    "~": "TILDE", "&": "AMP", "|": "PIPE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LT", ">": "GT", "/": "SLASH",
}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind == "WS":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + value.rfind("\n") + 1
        else:
            if kind == "OP":
                kind = _OP_KINDS[value]
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive descent that also measures the depth and the size of what it builds.

    After each rule returns, ``depth`` and ``size`` hold the depth and the
    node count (``<->`` expanded) of the formula it returned.  ``open``
    counts the levels enclosing the current position, so input that will
    nest too deep is refused before the recursion gets there;
    :func:`parse` checks the finished depth and size, which also bounds
    the flat ``&``, ``|`` and ``<->`` chains that the rules build in loops.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0
        self.depth = 0
        self.size = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column, expected)
        self.pos += 1
        return tok

    def nested(self, rule, tok: _Token) -> Formula:
        """Run ``rule`` one level further in, below the operator ``tok``."""
        self.open += 1
        # Even a lone atom in there would sit MAX_DEPTH + 1 levels deep.
        if self.open >= MAX_DEPTH:
            raise _too_deep(tok)
        result = rule()
        self.open -= 1
        return result

    def formula(self) -> Formula:
        left = self.implies()
        while self.peek().kind == "IFF":
            depth, size = self.depth, self.size
            self.pos += 1
            right = self.implies()
            left = And(Implies(left, right), Implies(right, left))
            self.depth = max(depth, self.depth) + 2
            self.size = 2 * (size + self.size) + 3
        return left

    def implies(self) -> Formula:
        left = self.or_()
        tok = self.peek()
        if tok.kind == "ARROW":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Implies(left, self.nested(self.implies, tok))
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.peek().kind == "PIPE":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Or(left, self.and_())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "AMP":
            depth, size = self.depth, self.size
            self.pos += 1
            left = And(left, self.unary())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "TILDE":
            self.pos += 1
            result = Not(self.nested(self.unary, tok))
        elif tok.kind == "LBRACK":
            self.pos += 1
            grade = self.grade()
            self.take("RBRACK", ("']'",))
            result = Box(grade, self.nested(self.unary, tok))
        elif tok.kind == "LT":
            self.pos += 1
            grade = self.grade()
            self.take("GT", ("'>'",))
            result = Diamond(grade, self.nested(self.unary, tok))
        elif tok.kind == "LPAREN":
            self.pos += 1
            result = self.nested(self.formula, tok)
            self.take("RPAREN", ("')'",))
            self.depth += 1
            return result
        elif tok.kind == "NAME":
            self.pos += 1
            self.depth = self.size = 1
            return Atom(tok.text)
        else:
            raise ParseError(
                f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column,
                ("'~'", "'['", "'<'", "atom", "'('"),
            )
        self.depth += 1
        self.size += 1
        return result

    def grade(self) -> Fraction:
        tok = self.take("NUMBER", ("grade literal",))
        text = tok.text
        if self.peek().kind == "SLASH":
            self.pos += 1
            denom = self.take("NUMBER", ("denominator",))
            text = f"{text}/{denom.text}"
        try:
            return as_grade(text)
        except GradeError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None


def parse(text: str) -> Formula:
    """Parse concrete syntax into a :class:`Formula`.

    Raises :class:`ParseError` with line/column diagnostics on bad input;
    grade literals outside [0, 1] are rejected, and so is any formula
    nested more than :data:`MAX_DEPTH` levels deep or expanding to more
    than :data:`MAX_NODES` nodes.
    """
    parser = _Parser(_tokenize(text))
    result = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    if parser.depth > MAX_DEPTH:
        raise _too_deep(parser.tokens[0])
    if parser.size > MAX_NODES:
        first = parser.tokens[0]
        raise ParseError(f"formula expands to more than {MAX_NODES} nodes", first.line, first.column)
    return result
