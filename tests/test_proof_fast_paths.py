"""Differential tests of the proof-checking fast paths against the code they replaced.

The references below are the earlier implementations, kept verbatim in
substance: a tokenizer that matches one token at a time and tracks line
and column as it goes, the recursive-descent parser that read those
tokens, one method per precedence level, and a proof checker that
desugars both sides of every comparison and every schema template on
each match, and builds the instance of every bound axiom line.  The
fast paths must give the same tokens, positions, formulas, error texts
and verdicts.  The parser memo that a
proof load shares across its texts is checked against the reference
parser, which reads each text fresh.
"""
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umlogic import cli, proofs
from umlogic.axioms import (
    SCHEMAS,
    FormulaVar,
    GradeMaxOf,
    GradeVar,
    SchemaError,
    _match_grade_slot,
    instantiate_axiom,
    match_axiom,
)
from umlogic.formula import (
    And, Atom, Box, Diamond, Formula, GradeError, Implies, Not, Or, as_grade, desugar, format_formula,
)
from umlogic.generators import random_formula
from umlogic.parser import MAX_DEPTH, MAX_NODES, ParseError, _bad_character, _error, _Parser, parse, parse_grade
from umlogic.proofs import (
    MP, AxiomStep, Nec, Premise, Proof, ProofFormatError, ProofLine, ProofVerdict, check_proof, proof_from_json,
)

SETTINGS = settings(max_examples=300, deadline=None)


# --- reference tokenizer and parser -----------------------------------------

@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    column: int


_REF_TOKEN_RE = re.compile(
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

_REF_OP_KINDS = {
    "~": "TILDE", "&": "AMP", "|": "PIPE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", "<": "LT", ">": "GT", "/": "SLASH",
}


def ref_tokenize(text: str) -> list[RefToken]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
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
                kind = _REF_OP_KINDS[value]
            tokens.append(RefToken(kind, value, line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(RefToken("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _ref_too_deep(tok: RefToken) -> ParseError:
    return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.column)


class RefParser:
    def __init__(self, tokens: list[RefToken]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0
        self.depth = 0
        self.size = 0

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def take(self, kind, expected):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column, expected)
        self.pos += 1
        return tok

    def nested(self, rule, tok):
        self.open += 1
        if self.open >= MAX_DEPTH:
            raise _ref_too_deep(tok)
        result = rule()
        self.open -= 1
        return result

    def formula(self):
        left = self.implies()
        while self.peek().kind == "IFF":
            depth, size = self.depth, self.size
            self.pos += 1
            right = self.implies()
            left = And(Implies(left, right), Implies(right, left))
            self.depth = max(depth, self.depth) + 2
            self.size = 2 * (size + self.size) + 3
        return left

    def implies(self):
        left = self.or_()
        tok = self.peek()
        if tok.kind == "ARROW":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Implies(left, self.nested(self.implies, tok))
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def or_(self):
        left = self.and_()
        while self.peek().kind == "PIPE":
            depth, size = self.depth, self.size
            self.pos += 1
            left = Or(left, self.and_())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def and_(self):
        left = self.unary()
        while self.peek().kind == "AMP":
            depth, size = self.depth, self.size
            self.pos += 1
            left = And(left, self.unary())
            self.depth = max(depth, self.depth) + 1
            self.size += size + 1
        return left

    def unary(self):
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

    def grade(self):
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


def ref_parse(text: str) -> Formula:
    parser = RefParser(ref_tokenize(text))
    result = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    if parser.depth > MAX_DEPTH:
        raise _ref_too_deep(parser.tokens[0])
    if parser.size > MAX_NODES:
        first = parser.tokens[0]
        raise ParseError(f"formula expands to more than {MAX_NODES} nodes", first.line, first.column)
    return result


# --- reference proof checker --------------------------------------------------

def _ref_match_grade_slot(slot, grade, bindings, deferred):
    if isinstance(slot, GradeVar):
        bound = bindings.get(slot.name)
        if bound is None:
            bindings[slot.name] = grade
            return True
        return bound == grade
    if isinstance(slot, GradeMaxOf):
        deferred.append((slot, grade))
        return True
    return slot == grade


def _ref_match(template, target, bindings, deferred):
    """The desugared template against the desugared target, node by node."""
    if isinstance(template, FormulaVar):
        bound = bindings.get(template.name)
        if bound is None:
            bindings[template.name] = target
            return True
        return bound == target
    if isinstance(template, Atom):
        return template == target
    if isinstance(template, Not):
        return isinstance(target, Not) and _ref_match(template.sub, target.sub, bindings, deferred)
    if isinstance(template, And):
        return (isinstance(target, And) and _ref_match(template.left, target.left, bindings, deferred)
                and _ref_match(template.right, target.right, bindings, deferred))
    if isinstance(template, Box):
        return (isinstance(target, Box) and _ref_match_grade_slot(template.grade, target.grade, bindings, deferred)
                and _ref_match(template.sub, target.sub, bindings, deferred))
    raise TypeError(f"unexpected template node: {template!r}")


def ref_match_axiom(f: Formula) -> list[tuple[str, dict]]:
    target = desugar(f)
    matches = []
    for schema in SCHEMAS:
        bindings: dict = {}
        deferred: list = []
        if not _ref_match(desugar(schema.template), target, bindings, deferred):
            continue
        if any(
            bindings.get(slot.a) is None
            or bindings.get(slot.b) is None
            or max(bindings[slot.a], bindings[slot.b]) != grade
            for slot, grade in deferred
        ):
            continue
        if schema.side_condition is not None and schema.side_condition(bindings) is not None:
            continue
        matches.append((schema.name, bindings))
    return matches


def _ref_check_axiom_step(line, step):
    if step.bindings is not None:
        try:
            instance = instantiate_axiom(step.name, step.bindings)
        except SchemaError as exc:
            return str(exc)
        if desugar(instance) != desugar(line.formula):
            return (
                f"formula is not the {step.name} instance under the given bindings "
                f"(expected {format_formula(instance)})"
            )
        return None
    if not any(name == step.name for name, _ in ref_match_axiom(line.formula)):
        return f"formula is not an instance of schema {step.name}"
    return None


def ref_check_proof(proof: Proof) -> ProofVerdict:
    formulas = {}
    premise_tainted = {}
    previous = 0

    def earlier(cited):
        if cited not in formulas:
            return f"cites line {cited}, which does not exist earlier in the proof"
        return None

    for line in proof.lines:
        if line.number <= previous:
            return ProofVerdict(False, line.number, "line numbers must be strictly increasing")
        just = line.justification
        problem = None
        tainted = False
        if isinstance(just, Premise):
            tainted = True
        elif isinstance(just, AxiomStep):
            problem = _ref_check_axiom_step(line, just)
        elif isinstance(just, MP):
            problem = earlier(just.antecedent) or earlier(just.implication)
            if problem is None:
                expected = Implies(formulas[just.antecedent], line.formula)
                if desugar(formulas[just.implication]) != desugar(expected):
                    problem = (
                        f"line {just.implication} is not the implication from "
                        f"line {just.antecedent} to this line"
                    )
                else:
                    tainted = premise_tainted[just.antecedent] or premise_tainted[just.implication]
        elif isinstance(just, Nec):
            problem = earlier(just.source)
            if problem is None:
                if desugar(line.formula) != desugar(Box(just.grade, formulas[just.source])):
                    problem = f"formula is not line {just.source} boxed at grade {just.grade}"
                else:
                    tainted = premise_tainted[just.source]
        else:
            raise ProofFormatError(f"unknown justification {just!r}")
        if problem is not None:
            return ProofVerdict(False, line.number, problem)
        formulas[line.number] = line.formula
        premise_tainted[line.number] = tainted
        previous = line.number
    theorems = tuple(n for n in formulas if not premise_tainted[n])
    return ProofVerdict(True, theorem_lines=theorems)


# --- tokenizer and parser -----------------------------------------------------

# Characters of the syntax, whitespace of several kinds (a line separator
# and a form feed are whitespace but do not start a line), decimals, a
# Unicode digit, and characters no token starts with.
_CHARS = list("pqr_x19 ~&|()[]<>/-.0\n\t\r") + [" ", "\x0c", "٣", "$", "é", "!", "+"]
_FRAGMENTS = [
    "p", "q1", "_r", " ", "  ", "\n", "\n\n ", "\t", "~", "&", "|", "->", "<->", "(", ")",
    "[1/2]", "<1/4>", "[0.5]", "<1>", "[0]", "[3/2]", "<1/0>", "[1.]", "[.5]", "[2]", "[1/",
    "1/3", "0.125", "-", "$", "é", "[", "]", "<", ">", "/",
]
GRADES = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
          Fraction(1)]


def _printed(rnd: random.Random, spacing: str) -> str:
    """A random well-formed formula, printed with ``spacing`` between binary operands."""
    return format_formula(random_formula(rnd, ["p", "q"], GRADES, 4)).replace(" ", spacing)


texts = st.one_of(
    st.text(alphabet=st.sampled_from(_CHARS), max_size=40),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.builds(_printed, st.randoms(use_true_random=False), st.sampled_from([" ", "\n", " \n\t", "\r\n"])),
)


def _outcome(fn, text):
    try:
        return ("ok", fn(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column, exc.expected)


def _positions(text):
    """Tokens of the lazy reader as (kind, text, line, column), read one after another to the end.

    The first bad token it reads raises the error of the scan for a bad
    character, which must be at that token.
    """
    reader = _Parser(text, {})
    result = []
    while True:
        match, kind = reader.match, reader.kind
        if kind == "BAD":
            bad = _bad_character(text)
            assert (bad.line, bad.column) == (_error(text, reader.start(), "").line,
                                              _error(text, reader.start(), "").column)
            raise bad
        where = _error(text, reader.start(), "")
        result.append((kind, match[match.lastindex], where.line, where.column))
        if kind == "EOF":
            return result
        reader.read(match.end())


def _check_text(text):
    expected = _outcome(lambda t: [(k.kind, k.text, k.line, k.column) for k in ref_tokenize(t)], text)
    assert _outcome(_positions, text) == expected
    assert _outcome(parse, text) == _outcome(ref_parse, text)


@SETTINGS
@given(texts)
def test_tokens_formulas_and_errors_match_the_reference(text):
    _check_text(text)


HAND_WRITTEN = [
    "~" * (MAX_DEPTH + 20) + "p",
    "(" * (MAX_DEPTH + 5) + "p" + ")" * (MAX_DEPTH + 5),
    "\n".join(["p &"] * (MAX_DEPTH + 3)) + " p",
    " & ".join(f"(p{i} -> q)" for i in range(60)),
    "p <-> " * 16 + "q",
    "p\n & \n(q ->\n\n $)",
    "[1/2]\n\n  [3/2]p",
    "(p & q\n",
    "p\n\n q",
    "",
    "   \n  ",
    # Precedence and associativity.
    "p -> q -> r",
    "p & q | r -> s <-> t",
    "p -> q <-> r",
    "p <-> q <-> r -> s | t & u",
    "~p & [1/2]q | <1/4>r & s -> ~(p | q) -> r <-> (s)",
    # Grades that the one-match path of a prefix does not take, and grade errors.
    "[ 1 / 2 ]p",
    "<\uff11/2>p",
    "<1/0>p",
    "<3/2>p",
    "~ <1/0>p",
    "[1/2]\n<3/2>p",
]
# The depth limit reached through each kind of operator, one below MAX_DEPTH and at it.
for n in (MAX_DEPTH - 1, MAX_DEPTH):
    HAND_WRITTEN += [
        "p -> " * n + "p", " & ".join(["p"] * (n + 1)), " | ".join(["p"] * (n + 1)),
        "(" * (n - 2) + "p <-> q" + ")" * (n - 2),
        "~" * n + "p", "[1/2]" * n + "p", "<1/4>" * n + "p", "[ 1/2 ]" * n + "p",
        "(" * n + "p" + ")" * n, "~(" * (n // 2) + "p" + ")" * (n // 2),
        "(p -> " * n + "p" + ")" * n, "p & (" * n + "p" + ")" * n, "p | ~" * n + "p",
    ]


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_cases_match_the_reference(text):
    _check_text(text)


@settings(max_examples=100, deadline=None)
@given(texts)
def test_cli_stderr_matches_the_reference(text):
    expected = _outcome(ref_parse, text)
    if expected[0] == "ok":
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["axiom", f"--formula={text}"])
    assert code == 2
    assert err.getvalue() == json.dumps({"error": expected[1]}) + "\n"


def test_grades_are_interned_by_text():
    f = parse("[1/2]p & <1/2>[0.5]q")
    assert f.left.grade is f.right.grade is parse("[1/2]r").grade
    assert f.right.sub.grade == Fraction(1, 2)


# --- proof checking -----------------------------------------------------------

def derivation(rng: random.Random, blocks: int, desugared: float) -> list[dict]:
    """A JSON derivation using every justification kind, with some lines in desugared form.

    Each block starts from a premise phi.  With probability ``desugared``
    a line (or a binding) is written after ``desugar``, so that its
    comparison falls back to the desugared forms.
    """
    lines: list[dict] = []

    def text(f):
        return format_formula(desugar(f) if rng.random() < desugared else f)

    def add(f, by, bind=None):
        entry = {"n": len(lines) + 1, "formula": text(f), "by": by}
        if bind is not None:
            entry["bind"] = {k: str(v) if isinstance(v, Fraction) else text(v) for k, v in bind.items()}
        lines.append(entry)
        return entry["n"]

    for _ in range(blocks):
        phi = random_formula(rng, ["p", "q", "r"], GRADES, 3)
        e, g = rng.choice(GRADES), rng.choice(GRADES)
        hi, lo = max(e, g), min(e, g)
        p = add(phi, "premise")
        um4 = add(Implies(phi, Box(e, Diamond(e, phi))), "axiom:UM4")
        add(Box(e, Diamond(e, phi)), f"mp:{p},{um4}")
        t = add(Implies(Box(e, phi), phi), "axiom:T", {"eps": e, "phi": phi})
        nec = add(Box(g, Implies(Box(e, phi), phi)), f"nec:{t}:{g}")
        k = add(instantiate_axiom("K", {"eps": g, "phi": Box(e, phi), "psi": phi}), "axiom:K",
                {"eps": g, "phi": Box(e, phi), "psi": phi})
        add(Implies(Box(g, Box(e, phi)), Box(g, phi)), f"mp:{nec},{k}")
        add(Implies(Box(hi, phi), Box(lo, phi)), "axiom:UM3", {"gamma": hi, "delta": lo, "phi": phi})
        name = rng.choice(["D", "TI", "UM1", "UM2", "D-ltr", "TI-rtl"])
        bind = {"phi": phi, "eps": e, "gamma": hi, "delta": g}
        schema = next(s for s in SCHEMAS if s.name == name)
        used = {key: bind[key] for key in schema.formula_vars + schema.grade_vars}
        add(instantiate_axiom(name, used), f"axiom:{name}")
        add(Box(e, phi), f"nec:{p}:{e}")
    return lines


def mutants(rng: random.Random, lines: list[dict]) -> list[list[dict]]:
    """One-line corruptions: each rule's formula negated, plus wrong citations and grades."""
    kinds = {
        "bind": lambda e: "bind" in e,
        "axiom": lambda e: e["by"].startswith("axiom:") and "bind" not in e,
        "mp": lambda e: e["by"].startswith("mp:"),
        "nec": lambda e: e["by"].startswith("nec:"),
    }
    result = []
    for is_kind in kinds.values():
        mutated = [dict(line) for line in lines]
        target = rng.choice([line for line in mutated if is_kind(line)])
        target["formula"] = f"~({target['formula']})"
        result.append(mutated)
    mutated = [dict(line) for line in lines]
    target = rng.choice([line for line in mutated if line["by"].startswith("mp:")])
    a, b = target["by"][3:].split(",")
    target["by"] = f"mp:{b},{a}"
    result.append(mutated)
    mutated = [dict(line) for line in lines]
    target = rng.choice([line for line in mutated if line["by"].startswith("nec:")])
    source = target["by"].split(":")[1]
    target["by"] = f"nec:{source}:{rng.choice(['1/8', '1/3', '1', '0'])}"
    result.append(mutated)
    mutated = [dict(line) for line in lines]
    target = rng.choice([line for line in mutated if "bind" in line])
    target["by"] = "axiom:" + rng.choice(["K", "T", "UM3", "UM4"])
    result.append(mutated)
    return result + binding_mutants(rng, lines)


def binding_mutants(rng: random.Random, lines: list[dict]) -> list[list[dict]]:
    """Bound lines whose bindings no longer give their formula: a binding dropped, or wrong.

    Checking a bound line by matching it with its bindings seeded must still
    refuse each one, for the reason that building the instance gives.
    """
    result = []

    def replace(index, **changes):
        mutated = [dict(line) for line in lines]
        mutated[index] = dict(mutated[index], **changes)
        result.append(mutated)

    bound = {}
    for i, line in enumerate(lines):
        if "bind" in line:
            bound.setdefault(line["by"], []).append(i)
    for by, indexes in bound.items():
        i = rng.choice(indexes)
        for key in lines[i]["bind"]:
            replace(i, bind={k: v for k, v in lines[i]["bind"].items() if k != key})
    i = rng.choice([i for indexes in bound.values() for i in indexes])
    others = [line["formula"] for line in lines if line["by"] == "premise" and line["formula"] != lines[i]["bind"]["phi"]]
    replace(i, bind=dict(lines[i]["bind"], phi=rng.choice(others)))
    # UM3 with gamma < delta, and TI with the max that fits and with one that does not.
    i = rng.choice(bound["axiom:UM3"])
    phi = parse(lines[i]["bind"]["phi"])
    lo, hi = Fraction(1, 4), Fraction(1, 2)
    replace(i, formula=format_formula(Implies(Box(lo, phi), Box(hi, phi))),
            bind=dict(lines[i]["bind"], gamma=str(lo), delta=str(hi)))
    gamma, delta = Fraction(1, 4), Fraction(1, 8)
    for top in (gamma, delta):
        ltr = Implies(Box(gamma, Box(delta, phi)), Box(top, phi))
        replace(i, by="axiom:TI", formula=format_formula(And(ltr, Implies(ltr.right, ltr.left))),
                bind={"gamma": str(gamma), "delta": str(delta), "phi": lines[i]["bind"]["phi"]})
    return result


@pytest.mark.parametrize("seed", range(30))
def test_check_proof_matches_the_reference(seed):
    rng = random.Random(seed)
    lines = derivation(rng, 4, desugared=(0.0, 0.3, 1.0)[seed % 3])
    proof = proof_from_json(lines)
    verdict = check_proof(proof)
    assert verdict.accepted, verdict
    assert verdict == ref_check_proof(proof)
    for mutated in mutants(rng, lines):
        proof = proof_from_json(mutated)
        assert check_proof(proof) == ref_check_proof(proof)


@pytest.mark.parametrize("seed", range(10))
def test_named_schema_matching_matches_the_reference(seed):
    """Matching one named schema finds exactly that schema's entry among all matches."""
    rng = random.Random(seed)
    names = [s.name for s in SCHEMAS] + ["UM9", "k", ""]
    candidates = [random_formula(rng, ["p", "q"], GRADES, 3) for _ in range(20)]
    for schema in SCHEMAS:
        bind = {"phi": random_formula(rng, ["p"], GRADES, 2), "psi": Atom("q"),
                "eps": rng.choice(GRADES), "gamma": Fraction(1), "delta": rng.choice(GRADES)}
        candidates.append(instantiate_axiom(schema.name, bind))
        # Each occurrence of a metavariable spelled as written or desugared, at random.
        bind["phi"] = Implies(Diamond(rng.choice(GRADES), Atom("p")), Or(Atom("q"), Atom("p")))
        bind["psi"] = Or(Not(Atom("q")), Atom("p"))
        for _ in range(3):
            candidates.append(_spelled_apart(schema.template, bind, rng))
    for f in candidates:
        everything = ref_match_axiom(f)
        assert match_axiom(f) == everything
        for name in names:
            assert match_axiom(f, name) == [m for m in everything if m[0] == name]


def _spelled_apart(template, bind, rng):
    """An instance of ``template`` in which each occurrence of a formula metavariable is desugared or not, at random."""
    if isinstance(template, FormulaVar):
        value = bind[template.name]
        return desugar(value) if rng.random() < 0.5 else value
    if isinstance(template, Not):
        return Not(_spelled_apart(template.sub, bind, rng))
    if isinstance(template, (And, Implies)):
        return type(template)(_spelled_apart(template.left, bind, rng), _spelled_apart(template.right, bind, rng))
    slot = template.grade
    grade = max(bind[slot.a], bind[slot.b]) if isinstance(slot, GradeMaxOf) else bind[slot.name]
    return type(template)(grade, _spelled_apart(template.sub, bind, rng))


@pytest.mark.parametrize("eps", [Fraction(1), 1, "1", "1/1", True, 1.0, Fraction(3, 2), None])
def test_bound_grades_that_are_not_fractions_give_the_reference_verdict(eps):
    """Bindings built in code may hold a grade as an int or text, which the instance reads, or as a bool or float, which it refuses."""
    proof = Proof([ProofLine(1, parse("[1]p -> p"), AxiomStep("T", {"eps": eps, "phi": Atom("p")}))])
    assert check_proof(proof) == ref_check_proof(proof)


@pytest.mark.parametrize("line, bind, accepted", [
    ("[1/2]p -> p", {"eps": "2/4", "phi": "p"}, True),
    ("[2/4]p -> <1/2>p", None, True),
    ("[1/2]p -> p", {"eps": "1/4", "phi": "p"}, False),
    ("[1/2]p -> <1/4>p", None, False),
], ids=["bound", "repeated", "bound-unequal", "repeated-unequal"])
def test_equal_grades_spelled_apart_match_as_equal(line, bind, accepted):
    """A grade slot compares by identity first; ``1/2`` and ``2/4`` are interned apart, so they take the ``==`` fallback."""
    assert parse_grade("1/2") == parse_grade("2/4") and parse_grade("1/2") is not parse_grade("2/4")
    schema = "T" if bind else "UM1"
    proof = proof_from_json([{"n": 1, "formula": line, "by": f"axiom:{schema}", **({"bind": bind} if bind else {})}])
    verdict = check_proof(proof)
    assert verdict == ref_check_proof(proof)
    assert verdict.accepted is accepted


def test_a_fixed_grade_slot_matches_an_equal_grade_that_is_another_object():
    half = parse_grade("1/2")
    assert _match_grade_slot(half, half, {}, []) and _match_grade_slot(half, parse_grade("2/4"), {}, [])
    assert not _match_grade_slot(half, parse_grade("1/4"), {}, [])


def test_unknown_schema_name_keeps_its_message():
    proof = proof_from_json([{"n": 1, "formula": "[1/2]p -> p", "by": "axiom:UM9"}])
    verdict = check_proof(proof)
    assert verdict == ref_check_proof(proof)
    assert verdict.reason == "formula is not an instance of schema UM9"


def test_desugared_lines_take_the_fallback():
    """Lines written as ``~(a & ~b)`` for ``a -> b`` are accepted through the desugared comparison."""
    proof = proof_from_json([
        {"n": 1, "formula": "p", "by": "premise"},
        {"n": 2, "formula": "~(p & ~[1/2]<1/2>p)", "by": "axiom:UM4", "bind": {"eps": "1/2", "phi": "p"}},
        {"n": 3, "formula": "[1/2]~[1/2]~p", "by": "mp:1,2"},
        {"n": 4, "formula": "[1/4][1/2]<1/2>p", "by": "nec:3:1/4"},
        {"n": 5, "formula": "[1/4]<1/2>[1/2]~p", "by": "nec:3:1/4"},
    ])
    verdict = check_proof(proof)
    assert verdict == ref_check_proof(proof)
    assert (verdict.accepted, verdict.failed_line) == (False, 5)
    assert verdict.reason == "formula is not line 3 boxed at grade 1/4"


# --- the parser memo ----------------------------------------------------------

SPACINGS = [" ", "  ", "\n", " \n\t", "\r\n"]


def _through_one_memo(batch):
    memo = {}
    return [_outcome(lambda t: parse(t, memo), text) for text in batch]


def _check_batch(batch):
    assert _through_one_memo(batch) == [_outcome(ref_parse, text) for text in batch]


@st.composite
def memo_batches(draw):
    """Texts that repeat earlier spans: bare, wrapped in ``~``, ``[g]`` and ``( .. -> .. )``, re-spaced."""
    rnd = draw(st.randoms(use_true_random=False))
    spans = [_printed(rnd, rnd.choice(SPACINGS)) for _ in range(rnd.randint(1, 4))]
    batch = []
    for _ in range(rnd.randint(1, 12)):
        a, b, space = rnd.choice(spans), rnd.choice(spans), rnd.choice(SPACINGS)
        grade = rnd.choice(["1/2", "0", "1", "0.25"])
        text = rnd.choice([
            a, f"({a})", f"~({a})", f"~{a}", f"[{grade}]({a})", f"<{grade}>{a}",
            f"({a}{space}->{space}{b})", f"({a}) &{space}({b})", a.replace(" ", space),
        ])
        spans.append(text)
        batch.append(text)
    for broken in draw(st.lists(texts, max_size=3)):
        batch.insert(rnd.randint(0, len(batch)), broken)
    return batch


@SETTINGS
@given(memo_batches())
def test_one_memo_matches_fresh_parses(batch):
    _check_batch(batch)


def _iff_chain(n):
    """``(p <-> p <-> ...)`` with ``n`` biconditionals: it expands to 6 * 2^n - 5 nodes."""
    return "(" + "p <-> " * n + "p)"


HAND_WRITTEN_BATCHES = {
    "bad character after a reused span": ["(p & q)", "(p & q) $", "[1/2](p & q)$", "(p & q)"],
    "unmatched paren": ["(p & q)", "((p & q) & r", "(p & q", "(p & q))", "(p & q)"],
    "a chain of reused spans too deep": ["(p & q)", " & ".join(["(p & q)"] * 120),
                                         " & ".join(["(p & q)"] * (MAX_DEPTH - 2)),
                                         " & ".join(["(p & q)"] * (MAX_DEPTH - 1))],
    "a span stored inside a text too deep": ["~(" + "p & " * MAX_DEPTH + "p)", "(" + "p & " * MAX_DEPTH + "p)",
                                             "(" + "p & " * (MAX_DEPTH - 2) + "p)"],
    "spans of spans": ["((p -> q) & (q -> p))", "(p -> q)", "~((p -> q) & (q -> p)) -> (p -> q)"],
    "reused past MAX_NODES": [_iff_chain(13), f"{_iff_chain(13)} & {_iff_chain(13)}",
                              f"({_iff_chain(13)} & {_iff_chain(13)}) & {_iff_chain(13)}",
                              f"~{_iff_chain(14)}", f"{_iff_chain(14)} & p",
                              f"~({_iff_chain(13)} & {_iff_chain(13)} & {_iff_chain(13)})",
                              f"({_iff_chain(13)} & {_iff_chain(13)} & {_iff_chain(13)})"],
}


@pytest.mark.parametrize("batch", HAND_WRITTEN_BATCHES.values(), ids=HAND_WRITTEN_BATCHES)
def test_hand_written_batches_match_fresh_parses(batch):
    _check_batch(batch)


@pytest.mark.parametrize("opened", range(MAX_DEPTH - 6, MAX_DEPTH + 1))
def test_a_shallow_span_reused_deep_gives_the_fresh_error(opened):
    """A span cached at the top is not reused where a fresh parse would nest too deep."""
    span = "(" + "~" * 40 + "(p & q))"
    batch = [span, "~" * opened + span, "(" * opened + span + ")" * opened,
             "~" * opened + "(p & q)", "(" * (MAX_DEPTH - 1) + "p & q" + ")" * (MAX_DEPTH - 1)]
    _check_batch(batch)
    if opened == MAX_DEPTH - 1:
        outcome = _through_one_memo(["(p & q)", "~" * opened + "(p & q)"])[1]
        assert outcome == ("error", f"formula nested deeper than {MAX_DEPTH} levels at line 1, column {MAX_DEPTH}",
                           1, MAX_DEPTH, ())


def test_a_memo_hit_shares_the_node_and_only_successes_are_kept():
    memo = {}
    first = parse("(p -> q) & r", memo)
    assert parse("~(p -> q)", memo).sub is first.left
    assert parse("(p -> q) & r", memo) is first
    with pytest.raises(ParseError):
        parse("(p -> ) & r", memo)
    # Texts, groups and atoms by their text; the nodes of prefix chains by (prefix, id of the node below).
    assert set(memo) == {"(p -> q)", "(p -> q) & r", "~(p -> q)", "p", "q", "r", ("~", id(first.left))}
    assert memo[("~", id(first.left))] is memo["~(p -> q)"][0]


def _nodes(f: Formula) -> list[Formula]:
    """Every node of ``f``, shared ones as often as they occur."""
    result = [f]
    for name in f.__match_args__:
        value = getattr(f, name)
        if isinstance(value, Formula):
            result += _nodes(value)
    return result


def _proof_nodes(proof: Proof) -> set[int]:
    ids = set()
    for line in proof.lines:
        formulas = [line.formula]
        if isinstance(line.justification, AxiomStep) and line.justification.bindings:
            formulas += [v for v in line.justification.bindings.values() if isinstance(v, Formula)]
        ids.update(id(node) for f in formulas for node in _nodes(f))
    return ids


def test_the_memo_lives_for_one_load():
    lines = derivation(random.Random(7), 3, desugared=0.0)
    one, two = proof_from_json(lines), proof_from_json(lines)
    assert one == two
    assert not _proof_nodes(one) & _proof_nodes(two)
    # Within one load, equal spans are one node.
    premise, um4 = proof_from_json([
        {"n": 1, "formula": "(p -> q)", "by": "premise"},
        {"n": 2, "formula": "((p -> q) -> [1/2]<1/2>(p -> q))", "by": "axiom:UM4"},
    ]).lines
    assert um4.formula.left is um4.formula.right.sub.sub is premise.formula
    text = lines[1]["formula"]
    assert parse(text) == parse(text, {})
    first, second = parse(text), parse(text)
    assert not {id(n) for n in _nodes(first)} & {id(n) for n in _nodes(second)}


def _load(data):
    try:
        proof = proof_from_json(data)
    except ProofFormatError as exc:
        return ("error", str(exc))
    return ("ok", proof, check_proof(proof))


def syntax_mutants(rng: random.Random, lines: list[dict]) -> list[list[dict]]:
    """One-line corruptions that fail to parse, in a formula or in a binding."""
    result = []
    for corrupt in (lambda t: t + " $", lambda t: "(" + t, lambda t: t + ")", lambda t: "~" * MAX_DEPTH + t):
        mutated = [dict(line) for line in lines]
        target = rng.choice(mutated[1:])
        target["formula"] = corrupt(target["formula"])
        result.append(mutated)
    mutated = [dict(line) for line in lines]
    target = rng.choice([line for line in mutated if "phi" in line.get("bind", {})])
    target["bind"] = dict(target["bind"], phi="(" + target["bind"]["phi"])
    result.append(mutated)
    return result


@pytest.mark.parametrize("seed", range(12))
def test_memo_load_matches_a_memo_less_load(seed):
    rng = random.Random(seed)
    lines = derivation(rng, 4, desugared=(0.0, 0.3, 1.0)[seed % 3])
    files = [lines] + mutants(rng, lines) + syntax_mutants(rng, lines)
    with_memo = [_load(data) for data in files]
    assert with_memo[0][0] == "ok" and with_memo[0][2].accepted
    assert [outcome[0] for outcome in with_memo[-5:]] == ["error"] * 5
    assert with_memo == [_ref_load(data) for data in files]


# --- the lazy reader and the prefix-chain memo --------------------------------

def _check_against_the_reference(batch):
    """Each text of ``batch`` through one memo, and fresh, gives the reference parser's formula or error; its tokens are the reference tokens."""
    expected = [_outcome(ref_parse, text) for text in batch]
    assert _through_one_memo(batch) == expected
    assert [_outcome(parse, text) for text in batch] == expected
    for text in batch:
        _check_text(text)


def _deep(opened, text):
    return "(" * opened + text + ")" * opened


LAZY_BATCHES = {
    # The parser stops at '~' before it reads the '-': the scan still reports the '-'.
    "a syntax error before a bad character": ["p", "~p", "p~-", "(p~-)", "[1/2]p ~ -", "p -> ~q)$"],
    "whitespace inside a grade": ["[ 1 / 2 ]p", "[1/2]p", "[ 1 / 2 ]p & q", "~[ 1 / 2 ](p)", "< 0.5 >\n~ p",
                                  "[1 /2]  <0.5 >~ p", "[ 1 / 2 ]p", "[\t1\n/\n2 ]p"],
    "a hit followed by name characters": ["p", "pq", "p & pq", "~p", "~pq", "~p1", "[1/2]p", "[1/2]pq",
                                          "[1/2]p_", "(p)", "(p)q", "~(p)q", "p q"],
    "'<->' right after a prefix position": ["~p", "~<->p", "[1/2]p", "[1/2]<->p", "<1/2>p", "<1/2><->p",
                                            "p <-> ~<-> q", "~ <-> p", "<->p", "[1/2]~<-> p"],
    "grades only the tokens read": ["[1/2]p", "[1.]p", "[.5]p", "[1/2.5]p", "[0.5/2]p", "[٣]p", "[1/٣]p",
                                    "<1/2->p", "[1/2>p", "<1/2]p", "[01/02]p", "[3/2]p", "[1/0]p", "[1 2]p",
                                    "~[3/2](p & $)", "[3/2](p & )"],
    "a chain cut short where a known prefix continues": ["[1/2]p", "[1/2][1.5]p", "[1/2][1/2.5]p",
                                                         "[1/2][ 1 / 2 ]p", "~[1/2]~[1/2]p", "~[1/2]~p"],
    "hits near MAX_DEPTH": ["~~~p", _deep(96, "~~~p"), _deep(97, "~~~p"), _deep(96, "~~~(p)"),
                            "~" * (MAX_DEPTH - 1) + "p", "~" * MAX_DEPTH + "p", "~" * (MAX_DEPTH - 1) + "p",
                            "[1/2]" * (MAX_DEPTH - 2) + "(p)", "[1/2]" * (MAX_DEPTH - 1) + "(p)",
                            "[1/2]" * (MAX_DEPTH - 1) + "p", "~" * 50 + _deep(48, "p"), "~" * 50 + _deep(49, "p"),
                            _deep(95, "~" * 3 + "(p & q)"), _deep(96, "~" * 3 + "(p & q)"),
                            "(p & q)", _deep(97, "~(p & q)"), _deep(98, "~(p & q)")],
}


@pytest.mark.parametrize("batch", LAZY_BATCHES.values(), ids=LAZY_BATCHES)
def test_lazy_reads_and_chain_hits_match_the_reference(batch):
    _check_against_the_reference(batch)


def test_a_bad_character_is_reported_ahead_of_an_earlier_syntax_error():
    with pytest.raises(ParseError, match=r"unexpected character '-' at line 1, column 3"):
        parse("p~-")
    with pytest.raises(ParseError, match=r"unexpected character '\$' at line 2, column 2"):
        parse("(p\n $", {})


def test_a_known_chain_is_read_whole():
    """A repeated chain builds no node: wherever its text recurs over the same core, its tails are the same objects."""
    memo = {}
    inner = parse("[1/2](p | q)", memo)
    outer = parse("[1/8]<1/8>[1/2](p | q)", memo)
    assert outer.sub.sub is inner and parse("<1/8>[1/2](p | q)", memo) is outer.sub
    again = parse("~[1/8]<1/8>[1/2](p | q)", memo)
    assert again.sub is outer
    assert parse("(~[1/8]<1/8>[1/2](p | q) & r)", memo).left is again
    assert parse("r -> [1]~[1/8]<1/8>[1/2](p | q)", memo).right.sub is again
    # Only whole texts, groups, atoms and (prefix, id of the node below) are kept.
    assert all(isinstance(key, str) or len(key) == 2 for key in memo)


# Proof files whose lines repeat spans: each line wraps earlier spans in a
# prefix chain, a group or a binary operator, re-spaced, and some are broken.
@st.composite
def proof_files(draw):
    rnd = draw(st.randoms(use_true_random=False))
    spans = [_printed(rnd, rnd.choice(SPACINGS)) for _ in range(rnd.randint(1, 3))]
    prefixes = ["~", "[1/2]", "<1/4>", "[ 1 / 8 ]", "~[0.5]~", "[1/2]<1/2>", "<1>~[0]"]
    lines = []
    for n in range(1, rnd.randint(2, 14)):
        a, b = rnd.choice(spans), rnd.choice(spans)
        pre = "".join(rnd.choice(prefixes) for _ in range(rnd.randint(1, 3)))
        text = rnd.choice([f"{pre}({a})", f"({a} -> {pre}({b}))", f"{pre}p", f"({pre}({a}) & {pre}q)",
                           f"{pre}({pre}({a}))", a, f"({a}){rnd.choice(SPACINGS)}|{pre}({b})"])
        spans.append(text)
        entry = {"n": n, "formula": text, "by": "premise"}
        if rnd.random() < 0.3:
            entry = {"n": n, "formula": f"({text} -> {text})", "by": "axiom:T",
                     "bind": {"eps": "1/2", "phi": rnd.choice(spans)}}
        lines.append(entry)
    for broken in draw(st.lists(texts, max_size=2)):
        lines.insert(rnd.randint(0, len(lines)), {"n": len(lines) + 1, "formula": broken, "by": "premise"})
    return lines


def _ref_load(data):
    """The load with every text read by the reference parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs, "parse", lambda text, memo=None: ref_parse(text))
        return _load(data)


@SETTINGS
@given(proof_files())
def test_proof_files_that_repeat_spans_load_as_the_reference_reads_them(data):
    assert _load(data) == _ref_load(data)


# --- memory on long lines -----------------------------------------------------

_PEAK_SCRIPT = """
import resource, sys
from umlogic.proofs import ProofFormatError, check_proof, proof_from_json
chain = " & ".join(["p"] * 250_000)
text = {"groups": "(" * 98 + chain + ")" * 98, "negations": "~(" * 49 + chain + ")" * 49,
        "atom": "(" * 98 + "a" * 2 ** 20 + ")" * 98, "spaced": ("~" + " " * 2 ** 14) * 90 + "p"}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    print(check_proof(proof_from_json([{"n": 1, "formula": text, "by": "premise"}])).accepted)
except ProofFormatError as exc:
    print(exc)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def _peak(shape):
    """What a fresh process prints loading the one-line proof ``shape``, and how many MiB its peak RSS grew by."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(proofs.__file__).parents[1]),
                                                                     os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, shape], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    message, grown = result.stdout.splitlines()
    return message, float(grown)


@pytest.mark.parametrize("shape", ["groups", "negations"])
def test_a_long_line_nested_deep_is_refused_in_little_memory(shape):
    """A 1 MB '&' chain in 98 groups, or in 49 '~(' levels: refused, and peak RSS grows by under 64 MiB.

    A memo holding a copy of the text per group, and the token list, grew
    it by 186 and 140 MiB (Linux, Python 3.11); reading tokens lazily and
    slicing a group's text only to look it up and to store it, 27 MiB.
    Storing the groups too deep to be reused grew it by about 100 MiB.
    """
    message, grown = _peak(shape)
    assert message == f"entry 0: formula nested deeper than {MAX_DEPTH} levels at line 1, column 1"
    assert grown < 64, grown


@pytest.mark.parametrize("shape", ["atom", "spaced"])
def test_a_long_line_nested_deep_is_accepted_in_little_memory(shape):
    """A 1 MiB atom in 98 groups, or 90 '~' each followed by 16 KiB of spaces: accepted, and peak RSS grows by under 16 MiB.

    Storing every group that parses copied the first line 99 times and grew
    it by about 93 MiB (Linux, Python 3.11); the group keys of one text
    copy at most its length.  Keying each node of a chain by the chain's
    text from that node in, half the second line per node on average, grew
    it by about 57 MiB; a node's key holds its own prefix only.
    """
    message, grown = _peak(shape)
    assert message == "True"
    assert grown < 16, grown
