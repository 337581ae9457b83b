"""Precedence-climbing parser for the concrete formula syntax.

Grammar (loosest to tightest binding)::

    formula  := implies ('<->' implies)*        # sugar: a <-> b == (a -> b) & (b -> a)
    implies  := or ('->' implies)?              # right-associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '~' unary | '[' grade ']' unary | '<' grade '>' unary
              | name | '(' formula ')'
    grade    := NUMBER ('/' NUMBER)?            # "1/8", "0.125", "1"

Atoms are identifiers.  Grade literals must denote rationals in [0, 1].

The four binary levels are read by one loop (:meth:`_Parser.formula`),
precedence climbing after Pratt's "Top down operator precedence" (POPL
1973): an operand is one call to the prefix rule, not one call per
level, and the loop takes each operator that binds at least as tightly as
the level it was called at.  It builds the same trees as the grammar's
one-rule-per-level descent, and opens the same levels.

A formula may nest at most :data:`MAX_DEPTH` levels deep, counting one
level per node of its syntax tree and one per pair of parentheses on the
way down (``a <-> b`` parses to two levels, an ``&`` over two ``->``).
Deeper input is rejected with a :class:`ParseError`, so the recursive
printer, desugaring and evaluators never run out of stack.

The sugar ``a <-> b`` copies both sides, so k nested biconditionals
expand to a tree of about 2^k leaves, which the printer, desugaring and
evaluators walk in full.  A formula whose expanded tree has more than
:data:`MAX_NODES` nodes (parentheses are not nodes) is rejected too.

The parser reads its tokens lazily, one match of ``_TOKEN_RE`` at a
time, so text that it skips is never tokenized and no token list is
built.  A token is its match; the line and column of a
:class:`ParseError` are computed from its offset when the error is
raised.  A bad character anywhere is still reported ahead of any other
error: before a :class:`ParseError` leaves :func:`parse`, the text is
scanned for one (:func:`_bad_character`), without building tokens.  A
chain of prefixes (``~``, ``[g]``, ``<g>``) is read in a loop, one match
of ``_PREFIX_RE`` per prefix, which gives its spelling, its grade text and
where the next prefix starts; only a modality spaced inside its brackets
or with other digits than ASCII is read token by token.  Grade literals are
interned by their text (:func:`parse_grade`), so a grade written many
times is read once and every modality carrying it shares one
:class:`~fractions.Fraction`.

Every parse goes through a memo, a dict of the spans that parsed: the
caller's, kept for a batch of texts (a proof file's lines and bindings),
or a fresh one.  Equal spans parsed through one memo give one shared
:class:`Formula` object.  The memo holds two kinds of entry:

* the exact text of each whole text, atom name and parenthesised group
  that parsed, mapped to the formula and the depth and size that a fresh
  parse of it sets.  A group's end comes from a map of the text's ``(``
  and ``)`` (:func:`_closing`), so a group whose text is in the memo is
  skipped without reading its tokens.  The map is built when the first
  group of a text is reached, so a text with no group builds none;
* ``(prefix, id(sub))`` for each prefix (``~``, ``[g]`` or ``<g>``) of a
  chain, spelled as in the text, mapped to the node it builds over
  ``sub``, the node below it, which that node keeps alive.  A chain's
  tokens are read every time, but a repeated chain builds no node again:
  ``[1/8]<1/8>[1/2](p | q)`` ends in the node that ``[1/2](p | q)``
  parses to.

A hit is used only while the levels enclosing it plus its depth stay
below :data:`MAX_DEPTH`; deeper, the span is parsed again, so a "nested
deeper" error keeps its line and column, and the :data:`MAX_NODES` check
sees the same sizes either way.  A group deeper than that, or larger
than :data:`MAX_NODES`, can only be part of a text that fails, so it is
not stored.  Errors are never stored.

The memo's memory is linear in the texts it has read.  A chain's keys
copy each prefix once.  A group's key copies its text, and nested groups
overlap, so the group keys stored for one text copy at most as many
characters as it has, innermost groups first; past that, a group is
parsed but not stored.  Only sharing is lost: the formula and any error
are the same whatever the memo holds.
"""
from __future__ import annotations

import functools
import re
from fractions import Fraction

from .formula import BINARY, And, Atom, Box, Diamond, Formula, GradeError, Implies, Not, Or, as_grade


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


# One match is one token and the whitespace before it.  The name of the
# group that matched is the token's kind: BAD is any other character that
# is not whitespace, and EOF the end of the text.  The alternatives are
# tried in order, so the kinds a proof file reads most come first; only
# "<->" must come before "<", and BAD last.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?: (?P<LPAREN>\() | (?P<LBRACK>\[) | (?P<RPAREN>\)) | (?P<EOF>)\Z | (?P<ARROW>->)
      | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<IFF><->) | (?P<LT><) | (?P<TILDE>~) | (?P<AMP>&) | (?P<PIPE>\|)
      | (?P<NUMBER>\d+\.\d+|\d+) | (?P<RBRACK>\]) | (?P<GT>>) | (?P<SLASH>/)
      | (?P<BAD>\S) )
    """,
    re.VERBOSE,
)

# One prefix of a chain and the whitespace before it, in one match: group 1
# is its spelling, group 2 the "[" of a box, group 3 the grade text of a
# modality.  The grade is ASCII digits with no whitespace inside the
# brackets, which the tokenizer reads as the same tokens; a modality
# spelled any other way does not match here and is read token by token.
_PREFIX_RE = re.compile(r"\s*(~|(?:(\[)|<)([0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)(?(2)\]|>))")

_PREFIX_KINDS = frozenset(("TILDE", "LBRACK", "LT"))

# How tightly each binary operator binds, and the node it builds: ``<->`` binds
# loosest and builds two, and the others bind as :data:`~umlogic.formula.BINARY` says.
_BINARY = {"IFF": (0, None), **{kind: (BINARY[node][1], node)
                                for kind, node in (("ARROW", Implies), ("PIPE", Or), ("AMP", And))}}
_OPERAND_END = (-1, None)

_match_token = _TOKEN_RE.match
_match_prefix = _PREFIX_RE.match


def _bad_character(text: str) -> ParseError | None:
    """The error for the first character of ``text`` that starts no token, if there is one."""
    for match in _TOKEN_RE.finditer(text):
        bad = match["BAD"]
        if bad is not None:
            return _error(text, match.start("BAD"), f"unexpected character {bad!r}")
    return None


def _closing(text: str) -> dict[int, int]:
    """The offset of the matching ``)`` for each ``(`` of ``text`` that has one.

    Parentheses are always tokens of their own, so this pairs the tokens.
    ``str.find`` steps from one parenthesis to the next.
    """
    closing, stack = {}, []
    find = text.find
    left, right = find("("), find(")")
    while left >= 0:
        if right < 0 or left < right:
            stack.append(left)
            left = find("(", left + 1)
        else:
            if stack:
                closing[stack.pop()] = right
            right = find(")", right + 1)
    while right >= 0 and stack:
        closing[stack.pop()] = right
        right = find(")", right + 1)
    return closing


@functools.lru_cache
def parse_grade(text: str) -> Fraction:
    """``as_grade(text)``, interned: repeated grade text yields the same Fraction."""
    return as_grade(text)


class _Parser:
    """Precedence climbing that also measures the depth and the size of what it builds.

    ``match`` is the current token, ``kind`` its kind.  After each rule
    returns, ``depth`` and ``size`` hold the depth and the node count
    (``<->`` expanded) of the formula it returned.  ``open`` counts the
    levels enclosing the current position, so input that will nest too
    deep is refused before the recursion gets there; :func:`parse` checks
    the finished depth and size, which also bounds the flat ``&``, ``|``
    and ``<->`` chains that the rules build in loops.  ``budget`` is the
    number of characters that stored group keys may still copy (module
    docstring).  ``closing`` is the text's parenthesis map, None until
    the first group needs it.
    """

    __slots__ = ("text", "memo", "closing", "budget", "match", "kind", "open", "depth", "size")

    def __init__(self, text: str, memo: dict):
        self.text = text
        self.memo = memo
        self.closing = None
        self.budget = len(text)
        self.open = self.depth = self.size = 0
        self.read(0)

    def read(self, offset: int) -> None:
        """Make the token after any whitespace at ``offset`` the current one."""
        match = self.match = _match_token(self.text, offset)
        self.kind = match.lastgroup

    def start(self) -> int:
        """The offset of the current token."""
        return self.match.start(self.match.lastindex)

    def error(self, message: str, offset: int, expected: tuple[str, ...] = ()) -> ParseError:
        return _error(self.text, offset, message, expected)

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        match = self.match
        return self.error(f"unexpected {match[match.lastindex] or 'end of input'!r}", self.start(), expected)

    def deeper(self, offset: int) -> None:
        """Open one more level, below the operator at ``offset``."""
        self.open += 1
        # Even a lone atom in there would sit MAX_DEPTH + 1 levels deep.
        if self.open >= MAX_DEPTH:
            raise self.too_deep(offset)

    def too_deep(self, offset: int) -> ParseError:
        """The error for nesting too deep, at the operator at ``offset``."""
        return self.error(f"formula nested deeper than {MAX_DEPTH} levels", offset)

    def formula(self, least: int = 0) -> Formula:
        """Operands joined by binary operators that bind at least as tightly as ``least``, by precedence climbing.

        An operator's right operand is read at one level tighter than the
        operator, or at its own level for the right-associative ``->``, so
        ``p & q | r -> s <-> t`` groups as ``((p & q) | r) -> s`` first.
        Only ``->`` opens a level below it, as the grammar's recursion would.
        """
        left = self.unary()
        while True:
            kind = self.kind
            binds, node = _BINARY.get(kind, _OPERAND_END)
            if binds < least:
                return left
            depth, size = self.depth, self.size
            token = self.match
            self.read(token.end())
            if kind == "ARROW":
                self.deeper(token.start(token.lastindex))
                right = self.formula(binds)
                self.open -= 1
            else:
                right = self.unary() if kind == "AMP" else self.formula(binds + 1)
            if node is None:
                left = And(Implies(left, right), Implies(right, left))
                self.depth = max(depth, self.depth) + 2
                self.size = 2 * (size + self.size) + 3
            else:
                left = node(left, right)
                self.depth = max(depth, self.depth) + 1
                self.size += size + 1

    def unary(self) -> Formula:
        kind = self.kind
        if kind == "NAME":
            match = self.match
            name = match["NAME"]
            self.read(match.end())
            self.depth = self.size = 1
            # One shared atom per name, stored as the text of its name.
            hit = self.memo.get(name)
            if hit is None:
                hit = self.memo[name] = (Atom(name), 1, 1)
            return hit[0]
        if kind == "LPAREN":
            return self.group()
        if kind in _PREFIX_KINDS:
            return self.chain()
        raise self.unexpected(("'~'", "'['", "'<'", "atom", "'('"))

    def chain(self) -> Formula:
        """A chain of ``~``, ``[g]`` and ``<g>`` over an atom or a group, its nodes shared through the memo.

        Each prefix is one match of ``_PREFIX_RE``, which gives its
        spelling, its grade and where the next one starts; a modality it
        does not take is read token by token.  Each prefix opens one level,
        as one recursion per prefix would.  ``ops`` lists (grade or None for
        ``~``, constructor, spelling) from the outermost prefix in.  Each
        node is the entry of (its prefix's spelling, the identity of the
        node below it), so the tail ``[1/2]p`` of ``[1/8]<1/8>[1/2]p`` is
        the node that the text ``[1/2]p`` parses to.
        """
        opened = self.open
        text = self.text
        ops = []
        end = self.match.start()
        while True:
            found = _match_prefix(text, end)
            if found is not None:
                spelled, box, grade = found.groups()
                if grade is not None:
                    grade = self.grade(grade, found.start(3))
                end = found.end()
            else:
                self.read(end)
                kind = self.kind
                if kind != "LBRACK" and kind != "LT":
                    break
                token = self.match
                box = kind == "LBRACK"
                self.read(token.end())
                grade = self.grade_tokens()
                if self.kind != ("RBRACK" if box else "GT"):
                    raise self.unexpected(("']'",) if box else ("'>'",))
                end = self.match.end()
                spelled = text[token.start(token.lastindex):end]
            ops.append((grade, Box if box else Diamond, spelled))
            self.deeper(end - len(spelled))
        node = self.unary()
        self.open = opened
        self.depth += len(ops)
        self.size += len(ops)
        memo = self.memo
        for grade, cls, spelled in reversed(ops):
            key = (spelled, id(node))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = Not(node) if grade is None else cls(grade, node)
            node = hit
        return node

    def group(self) -> Formula:
        """A parenthesised formula, looked up in the memo and stored to it while the budget lasts.

        The text of the group is sliced for the lookup and again for the
        store, so no copy of it is held while its inside is parsed.
        """
        token = self.match
        start = token.end() - 1
        closing = self.closing
        if closing is None:
            closing = self.closing = _closing(self.text)
        end = closing.get(start)
        if end is not None:
            hit = self.memo.get(self.text[start:end + 1])
            # Inside the group a fresh parse opens fewer levels than its depth.
            if hit is not None and self.open + hit[1] < MAX_DEPTH:
                result, self.depth, self.size = hit
                self.read(end + 1)
                return result
        self.read(token.end())
        self.deeper(start)
        result = self.formula()
        self.open -= 1
        if self.kind != "RPAREN":
            raise self.unexpected(("')'",))
        stop = self.match.end()
        self.read(stop)
        self.depth += 1
        # A group past the limits is never reused, and the keys of one text copy at most its length.
        if self.depth < MAX_DEPTH and self.size <= MAX_NODES and stop - start <= self.budget:
            self.budget -= stop - start
            self.memo[self.text[start:stop]] = (result, self.depth, self.size)
        return result

    def grade_tokens(self) -> Fraction:
        """A grade read token by token: ``NUMBER ('/' NUMBER)?``."""
        token = self.match
        if self.kind != "NUMBER":
            raise self.unexpected(("grade literal",))
        text = token["NUMBER"]
        self.read(token.end())
        if self.kind == "SLASH":
            self.read(self.match.end())
            if self.kind != "NUMBER":
                raise self.unexpected(("denominator",))
            text = f"{text}/{self.match['NUMBER']}"
            self.read(self.match.end())
        return self.grade(text, token.start(token.lastindex))

    def grade(self, text: str, offset: int) -> Fraction:
        """The grade written ``text``, whose first token is at ``offset``."""
        try:
            return parse_grade(text)
        except GradeError as exc:
            raise self.error(str(exc), offset) from None


def parse(text: str, memo: dict | None = None) -> Formula:
    """Parse concrete syntax into a :class:`Formula`.

    Raises :class:`ParseError` with line/column diagnostics on bad input;
    grade literals outside [0, 1] are rejected, and so is any formula
    nested more than :data:`MAX_DEPTH` levels deep or expanding to more
    than :data:`MAX_NODES` nodes.  A bad character is reported ahead of
    any other error.  ``memo``, a dict kept by the caller across a batch
    of texts, shares what the batch repeats: each stored text and group is
    parsed once and each prefix chain's nodes are built once.  Without
    one, the text gets a fresh memo of its own.  The result is the same
    either way (module docstring).
    """
    if memo is None:
        memo = {}
    hit = memo.get(text)
    # A group stored from inside a longer text may break the limits on its own.
    if hit is not None and hit[1] <= MAX_DEPTH and hit[2] <= MAX_NODES:
        return hit[0]
    try:
        parser = _Parser(text, memo)
        first = parser.match
        result = parser.formula()
        if parser.kind != "EOF":
            raise parser.error(f"trailing input {parser.match[parser.match.lastindex]!r}", parser.start())
        if parser.depth > MAX_DEPTH:
            raise parser.too_deep(first.start(first.lastindex))
        if parser.size > MAX_NODES:
            raise parser.error(f"formula expands to more than {MAX_NODES} nodes", first.start(first.lastindex))
    except ParseError:
        bad = _bad_character(text)
        if bad is None:
            raise
        raise bad from None
    memo[text] = (result, parser.depth, parser.size)
    return result
