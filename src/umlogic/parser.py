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

The tokenizer scans the whole text in one regex pass before parsing
starts, so a bad character anywhere is reported ahead of any syntax
error.  Tokens keep only their offset into the text; the line and column
of a :class:`ParseError` are computed from it when the error is raised.
Grade literals are interned by their text (:func:`parse_grade`), so a
grade written many times is read once and every modality carrying it
shares one :class:`~fractions.Fraction`.

:func:`parse` takes an optional memo, a dict that the caller keeps for a
batch of texts (a proof file's lines and bindings).  It maps the exact
source text of each whole text and each parenthesised group parsed
through it to the formula and the depth and size that a fresh parse of
it sets.  A group whose text is in the memo is not parsed again: the
parser reuses the stored formula, restores its depth and size, and skips
its tokens.  It uses a hit only while the levels enclosing the group
plus its depth stay below :data:`MAX_DEPTH`; deeper, it parses the group
again, so a "nested deeper" error keeps its line and column, and the
:data:`MAX_NODES` check sees the same sizes either way.  Only groups and
texts that parsed are stored, never an error, so every
:class:`ParseError` is computed afresh.  Equal texts parsed through one
memo give one shared :class:`Formula` object.  Without a memo, nothing
is looked up or stored.
"""
from __future__ import annotations

import functools
import re
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


def _error(text: str, offset: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A :class:`ParseError` at ``offset`` into ``text``, with 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1, expected)


# A token is a tuple (kind, text, offset).  Each match is one token and the
# whitespace before it, as the groups (space, NUMBER, NAME, OP, BAD); at the
# end of the text only the space matches.  Operators take their kind from
# _OP_KINDS, and BAD is any other character that is not whitespace.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    (?: (\d+\.\d+|\d+)
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (<->|->|[~&|()\[\]<>/])
      | (\S)
      | \Z )
    """,
    re.VERBOSE,
)

_OP_KINDS = {
    "<->": "IFF", "->": "ARROW",
    "~": "TILDE", "&": "AMP", "|": "PIPE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LT", ">": "GT", "/": "SLASH",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    append = tokens.append
    offset = 0
    for space, number, name, op, bad in _TOKEN_RE.findall(text):
        offset += len(space)
        if op:
            append((_OP_KINDS[op], op, offset))
            offset += len(op)
        elif name:
            append(("NAME", name, offset))
            offset += len(name)
        elif number:
            append(("NUMBER", number, offset))
            offset += len(number)
        elif bad:
            raise _error(text, offset, f"unexpected character {bad!r}")
        else:
            break
    append(("EOF", "", len(text)))
    return tokens


def _closing(tokens: list[tuple[str, str, int]]) -> dict[int, int]:
    """The index of the matching ``)`` token for each ``(`` token that has one."""
    closing, stack = {}, []
    for i, token in enumerate(tokens):
        kind = token[0]
        if kind == "LPAREN":
            stack.append(i)
        elif kind == "RPAREN" and stack:
            closing[stack.pop()] = i
    return closing


@functools.lru_cache
def parse_grade(text: str) -> Fraction:
    """``as_grade(text)``, interned: repeated grade text yields the same Fraction."""
    return as_grade(text)


class _Parser:
    """Recursive descent that also measures the depth and the size of what it builds.

    After each rule returns, ``depth`` and ``size`` hold the depth and the
    node count (``<->`` expanded) of the formula it returned.  ``open``
    counts the levels enclosing the current position, so input that will
    nest too deep is refused before the recursion gets there;
    :func:`parse` checks the finished depth and size, which also bounds
    the flat ``&``, ``|`` and ``<->`` chains that the rules build in loops.
    """

    def __init__(self, text: str, memo: dict | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.memo = memo
        if memo is not None:
            self.closing = _closing(self.tokens)
        self.pos = 0
        self.open = 0
        self.depth = 0
        self.size = 0

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def error(self, message: str, token: tuple[str, str, int], expected: tuple[str, ...] = ()) -> ParseError:
        return _error(self.text, token[2], message, expected)

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        token = self.tokens[self.pos]
        return self.error(f"unexpected {token[1] or 'end of input'!r}", token, expected)

    def too_deep(self, token: tuple[str, str, int]) -> ParseError:
        return self.error(f"formula nested deeper than {MAX_DEPTH} levels", token)

    def take(self, kind: str, expected: tuple[str, ...]) -> str:
        """Consume a token of ``kind`` and return its text."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.unexpected(expected)
        self.pos += 1
        return token[1]

    def nested(self, rule, token: tuple[str, str, int]) -> Formula:
        """Run ``rule`` one level further in, below the operator ``token``."""
        self.open += 1
        # Even a lone atom in there would sit MAX_DEPTH + 1 levels deep.
        if self.open >= MAX_DEPTH:
            raise self.too_deep(token)
        result = rule()
        self.open -= 1
        return result

    def formula(self) -> Formula:
        left = self.implies()
        while self.kind() == "IFF":
            depth, size = self.depth, self.size
            self.pos += 1
            right = self.implies()
            left = And(Implies(left, right), Implies(right, left))
            self.depth = max(depth, self.depth) + 2
            self.size = 2 * (size + self.size) + 3
        return left

    def implies(self) -> Formula:
        left = self.or_()
        token = self.tokens[self.pos]
        if token[0] == "ARROW":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Implies(left, self.nested(self.implies, token))
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def or_(self) -> Formula:
        left = self.and_()
        while self.kind() == "PIPE":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Or(left, self.and_())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def and_(self) -> Formula:
        left = self.unary()
        while self.kind() == "AMP":
            depth, size = self.depth, self.size
            self.pos += 1
            left = And(left, self.unary())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def unary(self) -> Formula:
        token = self.tokens[self.pos]
        kind = token[0]
        if kind == "NAME":
            self.pos += 1
            self.depth = self.size = 1
            return Atom(token[1])
        if kind == "TILDE":
            self.pos += 1
            result = Not(self.nested(self.unary, token))
        elif kind == "LBRACK":
            self.pos += 1
            grade = self.grade()
            self.take("RBRACK", ("']'",))
            result = Box(grade, self.nested(self.unary, token))
        elif kind == "LT":
            self.pos += 1
            grade = self.grade()
            self.take("GT", ("'>'",))
            result = Diamond(grade, self.nested(self.unary, token))
        elif kind == "LPAREN":
            return self.group(token)
        else:
            raise self.unexpected(("'~'", "'['", "'<'", "atom", "'('"))
        self.depth += 1
        self.size += 1
        return result

    def group(self, token: tuple[str, str, int]) -> Formula:
        """A parenthesised formula, looked up in and stored to the memo when there is one."""
        key = None
        if self.memo is not None:
            end = self.closing.get(self.pos)
            if end is not None:
                key = self.text[token[2]:self.tokens[end][2] + 1]
                hit = self.memo.get(key)
                # Inside the group a fresh parse opens fewer levels than its depth.
                if hit is not None and self.open + hit[1] < MAX_DEPTH:
                    result, self.depth, self.size = hit
                    self.pos = end + 1
                    return result
        self.pos += 1
        result = self.nested(self.formula, token)
        self.take("RPAREN", ("')'",))
        self.depth += 1
        if key is not None:
            self.memo[key] = (result, self.depth, self.size)
        return result

    def grade(self) -> Fraction:
        token = self.tokens[self.pos]
        text = self.take("NUMBER", ("grade literal",))
        if self.kind() == "SLASH":
            self.pos += 1
            text = f"{text}/{self.take('NUMBER', ('denominator',))}"
        try:
            return parse_grade(text)
        except GradeError as exc:
            raise self.error(str(exc), token) from None


def parse(text: str, memo: dict | None = None) -> Formula:
    """Parse concrete syntax into a :class:`Formula`.

    Raises :class:`ParseError` with line/column diagnostics on bad input;
    grade literals outside [0, 1] are rejected, and so is any formula
    nested more than :data:`MAX_DEPTH` levels deep or expanding to more
    than :data:`MAX_NODES` nodes.  ``memo``, a dict kept by the caller
    across a batch of texts, parses each repeated text and parenthesised
    group once; the result is the same as without it (module docstring).
    """
    if memo is not None:
        hit = memo.get(text)
        # A group stored from inside a longer text may break the limits on its own.
        if hit is not None and hit[1] <= MAX_DEPTH and hit[2] <= MAX_NODES:
            return hit[0]
    parser = _Parser(text, memo)
    result = parser.formula()
    token = parser.tokens[parser.pos]
    if token[0] != "EOF":
        raise parser.error(f"trailing input {token[1]!r}", token)
    if parser.depth > MAX_DEPTH:
        raise parser.too_deep(parser.tokens[0])
    if parser.size > MAX_NODES:
        raise parser.error(f"formula expands to more than {MAX_NODES} nodes", parser.tokens[0])
    if memo is not None:
        memo[text] = (result, parser.depth, parser.size)
    return result
