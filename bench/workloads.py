"""The four workloads: seeded inputs, the program's set-up, one round of operations, checks.

Every workload makes its inputs from the seed when constructed, before
any clock starts.  ``setup`` is the program's own preparation and is what
``setup_s`` times.  ``ops`` gives one round of operations as callables;
the runner repeats whole rounds.  ``traced_ops`` replays the same round
through umlogic's public functions, one span per call, for the per-layer
metrics.  ``check`` compares the outputs of one round with the reference
evaluator or with a property the method must have.

``setup`` is a generator that yields between its steps; the runner times
each step on its own, so that a long set-up is rescaled to the machine's
speed step by step (see pace.py).
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import gen
import reference

ATOMS = ("p", "q", "r")


class OpFailed(Exception):
    """An operation ended with an operational error (CLI exit code 2)."""


def run_cli(um, argv: list[str], ok=(0,)) -> tuple[int, str]:
    """``umlogic.cli.main(argv)`` in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = um.cli.main(argv)
    if code not in ok:
        raise OpFailed(f"umlogic {' '.join(argv[:1])} exited with {code}")
    return code, buf.getvalue()


def load_peak_mb(um, path: Path) -> float:
    """tracemalloc peak, in MiB, across loading and validating one model file."""
    tracemalloc.start()
    try:
        model = um.modelio.load_model(path, validate=False)
        um.space.validate_space(model.space)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def traced_load(um, tracer, path: Path):
    """Load then validate, as ``load_model`` does, with one span for each."""
    with tracer.span("modelio.load") as attrs:
        model = um.modelio.load_model(path, validate=False)
        attrs["worlds"] = model.space.n
    with tracer.span("space.validate"):
        violations = um.space.validate_space(model.space)
    if violations:
        raise OpFailed(f"{path.name} breaks the metric laws")
    return model


def traced_parse(um, tracer, text: str, probe: bool = False):
    with tracer.span("parser.parse", probe=probe, chars=len(text)):
        return um.parser.parse(text)


class Workload:
    name = ""
    #: Set-ups per run; setup_s is their median.
    setup_reps = 5
    #: Whether operations go through ``umlogic.cli.main`` (for cli.overhead_ms).
    cli = True
    #: Machine-speed kernel for the operations (see pace.py); set-up always uses "python".
    pace = "python"
    #: The model file whose load and validation the tracemalloc pass measures.
    model_path: Path | None = None

    def __init__(self, seed: int, work: Path):
        """Make the inputs from ``seed``, writing files under ``work``."""
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, um, tracer=None):
        """The program's preparation, yielding between steps; spans go to ``tracer`` if given."""
        raise NotImplementedError

    def ops(self, um) -> list:
        raise NotImplementedError

    def traced_ops(self, um, tracer) -> list:
        raise NotImplementedError

    def check(self, outputs: list) -> str | None:
        raise NotImplementedError

    def untimed_checks(self, um) -> str | None:
        return None


# --- cli-model ---------------------------------------------------------------

class CliModel(Workload):
    """Five CLI commands on depth-7 cantor model files; every command reloads its file."""

    name = "cli-model"
    DEPTH = 7
    FILES = 2
    SIZE = 6
    MODAL = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        d = self.DEPTH
        self.names = [f"w{i}" for i in range(2 ** d)]
        self.histories = gen.cantor_histories(d)
        grades = gen.cantor_grades(d)
        self.files = []
        for k in range(self.FILES):
            valuation = gen.random_valuation(self.rng, self.names, ATOMS)
            val_path = work / f"cli-val{k}.json"
            val_path.write_text(json.dumps(valuation))
            queries = [(gen.random_formula(self.rng, self.SIZE, self.MODAL, ATOMS, grades),
                        self.rng.choice(self.names)) for _ in range(4)]
            self.files.append((val_path, work / f"cli-model{k}.json", valuation, queries))
        self.model_path = self.files[0][1]

    def setup(self, um, tracer=None):
        for val_path, model_path, _, _ in self.files:
            run_cli(um, ["cantor", "--depth", str(self.DEPTH), "--valuation", str(val_path),
                         "--out", str(model_path)])
            yield
            run_cli(um, ["validate-model", "--model", str(model_path)])
            yield
        _, model_path, _, queries = self.files[0]
        f, world = queries[0]
        run_cli(um, ["check", "--model", str(model_path), "--formula", gen.render(f),
                     "--world", world], ok=(0, 1))

    def _round(self):
        for _, model_path, _, queries in self.files:
            (f1, w1), (f2, _), (f3, w3), (f4, w4) = queries
            yield "check", model_path, f1, w1
            yield "truthset", model_path, f2, None
            yield "stability", model_path, f3, w3
            yield "plausibility", model_path, f4, w4
            yield "dot", model_path, None, None

    def ops(self, um):
        ops = []
        for command, path, f, world in self._round():
            argv = [command, "--model", str(path)]
            if f is not None:
                argv += ["--formula", gen.render(f)]
            if world is not None:
                argv += ["--world", world]
            ops.append(lambda argv=argv: run_cli(um, argv, ok=(0, 1)))
        return ops

    def traced_ops(self, um, tracer):
        sem = um.semantics
        calls = {
            "check": lambda m, f, w: sem.holds(m, w, f),
            "truthset": lambda m, f, w: sem.truthset(m, f),
            "stability": lambda m, f, w: sem.stability_degree(m, w, f),
            "plausibility": lambda m, f, w: sem.plausibility_degree(m, w, f),
        }

        def op(command, path, f, world):
            if command == "dot":
                model = traced_load(um, tracer, path)
                with tracer.span("dendrogram.dot") as attrs:
                    text = um.dendrogram.dendrogram_dot(model.space)
                attrs["balls"] = text.count("[label=")
                return text
            formula = traced_parse(um, tracer, gen.render(f))
            model = traced_load(um, tracer, path)
            size = reference.core_size(f)
            with tracer.span("semantics.cold_eval"):
                result = calls[command](model, formula, world)
            with tracer.span("semantics.eval", probe=True, subformulas=size,
                             cells=size * model.space.n):
                calls[command](model, formula, world)
            return result

        return [lambda spec=spec: op(*spec) for spec in self._round()]

    def check(self, outputs):
        for _, model_path, _, _ in self.files:
            written = json.loads(model_path.read_text())["distance"]["sequences"]
            if written != dict(zip(self.names, self.histories)):
                return f"{model_path.name}: histories differ from the depth-{self.DEPTH} event tree"
        geometry = reference.PrefixGeometry(self.names, self.histories)
        evaluators = [reference.Evaluator(geometry, valuation) for _, _, valuation, _ in self.files]
        for i, (out, (command, _, f, world)) in enumerate(zip(outputs, self._round())):
            if out is None:
                continue
            code, text = out
            ev = evaluators[i // 5]
            if command != "check" and code != 0:
                return f"op {i} {command} exited with {code}"
            if command == "dot":
                problem = reference.check_dot(text, self.names, self.histories)
                if problem:
                    return f"op {i} dot: {problem}"
                continue
            payload = json.loads(text)
            if command == "check":
                expected = world in ev.truth_set(f)
                ok = payload == {"holds": expected} and code == (0 if expected else 1)
            elif command == "truthset":
                ok = sorted(payload["points"]) == sorted(ev.truth_set(f))
            elif command == "stability":
                ok = payload == ev.stability(world, f)
            else:
                ok = payload == ev.plausibility(world, f)
            if not ok:
                return f"op {i} {command} {gen.render(f)!r} at {world}: got {payload}"
        return None


# --- warm-queries ------------------------------------------------------------

class WarmQueries(Workload):
    """Batches of degree and truth queries on one depth-9 model, loaded and indexed in set-up."""

    name = "warm-queries"
    setup_reps = 3
    cli = False
    DEPTH = 9
    OPS = 4
    PER_OP = 40
    SIZE = 6
    MODAL = 3
    #: Realized distances and values between them; set-up warms each of them.
    GRADES = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 64), Fraction(1, 256),
              Fraction(1, 3), Fraction(3, 16), Fraction(1, 100))

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.names = [f"w{i}" for i in range(2 ** self.DEPTH)]
        self.histories = gen.cantor_histories(self.DEPTH)
        self.valuation = gen.random_valuation(self.rng, self.names, ATOMS)
        self.val_path = work / "warm-val.json"
        self.val_path.write_text(json.dumps(self.valuation))
        self.model_path = work / "warm-model.json"
        grades = list(self.GRADES)
        self.batches = [[(gen.random_formula(self.rng, self.SIZE, self.MODAL, ATOMS, grades),
                          self.rng.choice(self.names), self.rng.choice(self.names))
                         for _ in range(self.PER_OP)] for _ in range(self.OPS)]

    def setup(self, um, tracer=None):
        run_cli(um, ["cantor", "--depth", str(self.DEPTH), "--valuation", str(self.val_path),
                     "--out", str(self.model_path)])
        yield
        sem = um.semantics
        if tracer is None:
            self.model = um.modelio.load_model(self.model_path)
            yield
            self.parsed = [[um.parser.parse(gen.render(f)) for f, _, _ in b] for b in self.batches]
            yield
            for g in self.GRADES:
                sem.holds(self.model, self.names[0], um.parser.parse(f"[{g}]p"))
                yield
            return
        self.model = traced_load(um, tracer, self.model_path)
        self.parsed = [[traced_parse(um, tracer, gen.render(f)) for f, _, _ in b]
                       for b in self.batches]
        for g in self.GRADES:
            f = um.parser.parse(f"[{g}]p")
            with tracer.span("semantics.cold_eval"):
                sem.holds(self.model, self.names[0], f)
            with tracer.span("semantics.eval", probe=True, subformulas=2, cells=2 * self.model.space.n):
                sem.holds(self.model, self.names[0], f)

    def _queries(self, um, k):
        sem, m = um.semantics, self.model
        for (f, w1, w2), parsed in zip(self.batches[k], self.parsed[k]):
            yield f, lambda p=parsed: sem.truthset(m, p).points
            yield f, lambda p=parsed, w=w1: sem.holds(m, w, p)
            yield f, lambda p=parsed, w=w1: sem.stability_degree(m, w, p)
            yield f, lambda p=parsed, w=w2: sem.plausibility_degree(m, w, p)

    def ops(self, um):
        return [lambda k=k: [call() for _, call in self._queries(um, k)] for k in range(self.OPS)]

    def traced_ops(self, um, tracer):
        n = self.model.space.n

        def op(k):
            results = []
            for f, call in self._queries(um, k):
                size = reference.core_size(f)
                with tracer.span("semantics.eval", subformulas=size, cells=size * n):
                    results.append(call())
            return results

        return [lambda k=k: op(k) for k in range(self.OPS)]

    def check(self, outputs):
        geometry = reference.PrefixGeometry(self.names, self.histories)
        ev = reference.Evaluator(geometry, self.valuation)
        for k, out in enumerate(outputs):
            if out is None:
                continue
            for j, (f, w1, w2) in enumerate(self.batches[k]):
                points, held, stab, plaus = out[4 * j: 4 * j + 4]
                truth = ev.truth_set(f)
                got_stab = {"kind": stab.kind, "threshold": _grade(stab.threshold),
                            "attained": stab.attained}
                got_plaus = {"kind": plaus.kind, "threshold": _grade(plaus.threshold),
                             "attained": plaus.attained, "level": _grade(plaus.level)}
                if (set(points) != truth or held != (w1 in truth)
                        or got_stab != ev.stability(w1, f) or got_plaus != ev.plausibility(w2, f)):
                    return f"op {k} query {j} on {gen.render(f)!r} disagrees with the reference"
        return None


def _grade(value) -> str:
    return "none" if value is None else str(value)


# --- validity ----------------------------------------------------------------

class Validity(Workload):
    """``umlogic valid`` on two-atom axiom instances over 10-point ultrametric models."""

    name = "validity"
    setup_reps = 9
    pace = "numpy"
    POINTS = 10
    MODELS = 4
    SHAPES = 4
    GRADES = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 8),
              Fraction(3, 4), Fraction(1, 4), Fraction(1, 5), Fraction(0))
    #: Not theorems; each fails on any model with two points within 1/2.
    NON_THEOREMS = ("<1/2>p -> [1/2]p", "p -> [1/2]p", "<1/2>p -> p",
                    "<1/2>p & <1/2>q -> <1/2>(p & q)")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.names = [f"x{i}" for i in range(self.POINTS)]
        self.tables, self.paths = [], []
        for k in range(self.MODELS):
            table = gen.laminar_matrix(self.rng, self.POINTS)
            path = work / f"valid-model{k}.json"
            path.write_text(json.dumps({"points": self.names, "distance": {
                "matrix": [[str(v) for v in row] for row in table]}}))
            self.tables.append(table)
            self.paths.append(path)
        self.model_path = self.paths[0]
        self.instances = []
        for schema in gen.SCHEMAS:
            for shape in range(self.SHAPES):
                # gamma > delta, so TI's [max]phi is never a subformula of
                # [gamma][delta]phi and every seed evaluates the same DAG shape.
                gamma, delta = sorted(self.rng.sample(self.GRADES, 2), reverse=True)
                self.instances.append((gen.two_atom_instance(schema, shape, gamma, delta), shape))

    def setup(self, um, tracer=None):
        # Validate every file, then warm up with a one-atom query (2^10
        # valuations): a two-atom one is all numpy, which the machine-speed
        # correction follows less well, and made setup_s spread by 24 %.
        for path in self.paths:
            run_cli(um, ["validate-model", "--model", str(path)])
            yield
            run_cli(um, ["valid", "--model", str(path), "--formula", "[1/2]p -> p"])
            yield

    def ops(self, um):
        return [lambda argv=["valid", "--model", str(self.paths[k]), "--formula", gen.render(f)]:
                run_cli(um, argv) for f, k in self.instances]

    def traced_ops(self, um, tracer):
        def op(f, k):
            formula = traced_parse(um, tracer, gen.render(f))
            model = traced_load(um, tracer, self.paths[k])
            with tracer.span("validity.valid") as attrs:
                result = um.validity.valid_in_model(model.space, formula)
            attrs["valuations"] = result.valuations_checked
            return result

        return [lambda f=f, k=k: op(f, k) for f, k in self.instances]

    def check(self, outputs):
        total = 2 ** (2 * self.POINTS)
        for i, out in enumerate(outputs):
            if out is not None and json.loads(out[1]) != {"valid": True, "valuations_checked": total}:
                return f"op {i}: {gen.render(self.instances[i][0])!r} gave {out[1].strip()}"
        return None

    def untimed_checks(self, um):
        """Each non-theorem is refuted on each model, and its witness really falsifies it."""
        pq = {"p": ("atom", "p"), "q": ("atom", "q")}
        trees = {
            "<1/2>p -> [1/2]p": ("imp", ("dia", Fraction(1, 2), pq["p"]),
                                 ("box", Fraction(1, 2), pq["p"])),
            "p -> [1/2]p": ("imp", pq["p"], ("box", Fraction(1, 2), pq["p"])),
            "<1/2>p -> p": ("imp", ("dia", Fraction(1, 2), pq["p"]), pq["p"]),
            "<1/2>p & <1/2>q -> <1/2>(p & q)": (
                "imp", ("and", ("dia", Fraction(1, 2), pq["p"]), ("dia", Fraction(1, 2), pq["q"])),
                ("dia", Fraction(1, 2), ("and", pq["p"], pq["q"]))),
        }
        for table, path in zip(self.tables, self.paths):
            geometry = reference.TableGeometry(self.names, table)
            for text in self.NON_THEOREMS:
                argv = ["valid", "--model", str(path), "--formula", text]
                code, out = run_cli(um, argv, ok=(0, 1, 2))
                witness = json.loads(out).get("witness") if code == 1 else None
                if witness is None:
                    return f"{path.name}: {text!r} not refuted with a witness: exit {code}"
                ev = reference.Evaluator(geometry, witness["valuation"])
                if witness["world"] in ev.truth_set(trees[text]):
                    return f"{path.name}: witness for {text!r} does not falsify it"
        return None


# --- proofs ------------------------------------------------------------------

class Proofs(Workload):
    """``umlogic prove`` on generated 700-line Hilbert derivations; no model at all."""

    name = "proofs"
    setup_reps = 7
    PROOFS = 4
    BLOCKS = 70
    GRADES = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 3), Fraction(3, 4),
              Fraction(1), Fraction(0))

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.paths, self.theorems, self.lines = [], [], []
        for k in range(self.PROOFS):
            lines, theorems = gen.derivation(self.rng, self.BLOCKS, list(self.GRADES))
            path = work / f"proof{k}.json"
            path.write_text(json.dumps(lines))
            self.paths.append(path)
            self.theorems.append(theorems)
            self.lines.append(lines)
        # Copies of the first derivation with one line negated: one copy for
        # each rule (axiom with and without bindings, modus ponens, necessitation).
        self.mutants = []
        kinds = {"bind": lambda e: "bind" in e, "axiom": lambda e: e["by"].startswith("axiom:")
                 and "bind" not in e, "mp": lambda e: e["by"].startswith("mp:"),
                 "nec": lambda e: e["by"].startswith("nec:")}
        for kind, is_kind in kinds.items():
            mutated = [dict(line) for line in self.lines[0]]
            target = self.rng.choice([line for line in mutated if is_kind(line)])
            target["formula"] = f"~({target['formula']})"
            path = work / f"proof-mutated-{kind}.json"
            path.write_text(json.dumps(mutated))
            self.mutants.append((path, target["n"]))

    def setup(self, um, tracer=None):
        run_cli(um, ["prove", "--proof", str(self.paths[0])])
        yield

    def ops(self, um):
        return [lambda argv=["prove", "--proof", str(path)]: run_cli(um, argv)
                for path in self.paths]

    def traced_ops(self, um, tracer):
        def op(k):
            data = json.loads(self.paths[k].read_text())
            for entry in data:
                formula = traced_parse(um, tracer, entry["formula"], probe=True)
                with tracer.span("formula.desugar", probe=True):
                    um.formula.desugar(formula)
                if not entry["by"].startswith("axiom:"):
                    continue
                if "bind" not in entry:
                    with tracer.span("axioms.match", probe=True):
                        um.axioms.match_axiom(formula)
                    continue
                bindings = {key: um.parser.parse(v) if key in ("phi", "psi") else Fraction(v)
                            for key, v in entry["bind"].items()}
                with tracer.span("axioms.instantiate", probe=True):
                    um.axioms.instantiate_axiom(entry["by"][len("axiom:"):], bindings)
            with tracer.span("proofs.from_json"):
                proof = um.proofs.proof_from_json(data)
            with tracer.span("proofs.check", lines=len(data)):
                return um.proofs.check_proof(proof)

        return [lambda k=k: op(k) for k in range(self.PROOFS)]

    def check(self, outputs):
        for k, out in enumerate(outputs):
            if out is None:
                continue
            expected = {"accepted": True, "failed_line": None, "reason": None,
                        "theorems": self.theorems[k]}
            if json.loads(out[1]) != expected:
                return f"op {k}: {self.paths[k].name} verdict {out[1][:200]!r}"
        return None

    def untimed_checks(self, um):
        """Each copy with one line negated is rejected at exactly that line."""
        for path, line in self.mutants:
            code, out = run_cli(um, ["prove", "--proof", str(path)], ok=(0, 1, 2))
            verdict = json.loads(out) if code != 2 else {}
            if code != 1 or verdict["failed_line"] != line:
                return f"{path.name}: line {line} not rejected there: exit {code}, {out[:200]!r}"
        return None


WORKLOADS = {w.name: w for w in (CliModel, WarmQueries, Validity, Proofs)}
