"""In-memory spans around the benchmark's calls into umlogic, and the per-layer metrics.

A span is ``[name, start, end, parent, op, probe, attrs]``: raw times from
``time.perf_counter`` (metrics rescale them by the operation's
machine-speed factor, see pace.py), ``parent`` the index of the enclosing span (or
None), ``op`` the operation id (``"setup"`` or the operation's index in
the run), and ``probe`` true for a call the CLI itself would not make
(a repeat evaluation, or a per-line breakdown of proof parsing).
"""
from __future__ import annotations

import statistics
import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer.stack
        self.record[3] = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self.record[6]

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"

    def span(self, name: str, probe: bool = False, **attrs) -> _Span:
        """Context manager recording one span; yields its attrs dict for counts."""
        return _Span(self, [name, 0.0, 0.0, None, self.op, probe, attrs])


def span_cost_s(samples: int = 20000) -> float:
    """Median cost of opening and closing one empty span."""
    tracer = Tracer()
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            with tracer.span("x"):
                pass
        costs.append((time.perf_counter() - start) / samples)
        tracer.spans.clear()
    return statistics.median(costs)


# --- per-layer metrics -----------------------------------------------------

def _ms(r, s) -> float:
    """Duration of span s in milliseconds, rescaled by its operation's machine-speed factor."""
    return (s[2] - s[1]) * 1000 * r["scale"][s[4]]


def _sums(r, name, value=None, probe=None) -> dict:
    """Per-operation sums of value(span) (default: its milliseconds) over spans called ``name``."""
    sums: dict = {}
    for s in r["spans"]:
        if s[0] == name and (probe is None or s[5] == probe):
            sums[s[4]] = sums.get(s[4], 0) + (value(s) if value else _ms(r, s))
    return sums


def _values(sums: dict) -> list:
    """Values of the timed operations that made the call, else of the set-up.

    A warm workload loads its model only in set-up, so its load figures
    come from there.
    """
    timed = [v for op, v in sums.items() if op != "setup"]
    return timed or list(sums.values())


def _median(values):
    return statistics.median(values) if values else None


def _median_ms(name):
    return lambda r: _median(_values(_sums(r, name)))


def _count(name, attr):
    return lambda r: _median(_values(_sums(r, name, lambda s: s[6][attr])))


def _rate(name, attr):
    def metric(r):
        busy = sum(_values(_sums(r, name))) / 1000
        work = sum(_values(_sums(r, name, lambda s: s[6][attr])))
        return work / busy if busy else None
    return metric


def _ball_index_ms(r):
    """First evaluation on a freshly loaded model minus its repeat, per operation."""
    cold = _sums(r, "semantics.cold_eval")
    repeat = _sums(r, "semantics.eval", probe=True)
    return _median(_values({op: t - repeat.get(op, 0.0) for op, t in cold.items()}))


def _cli_overhead_ms(r):
    """Untraced CLI operation minus the layer calls its replay makes, median over operations."""
    if not r["cli"]:
        return None
    layer: dict = {}
    for s in r["spans"]:
        if s[3] is None and not s[5] and s[4] != "setup":
            layer[s[4]] = layer.get(s[4], 0.0) + _ms(r, s)
    return _median([r["untraced_ms"][op] - t for op, t in layer.items()])


#: name -> (unit, function of one workload's traced result, fallback workload)
LAYER_METRICS = {
    "modelio.load_ms": ("ms", _median_ms("modelio.load"), "cli-model"),
    "modelio.load_peak_mb": ("MiB", lambda r: r.get("load_peak_mb"), "cli-model"),
    "space.validate_ms": ("ms", _median_ms("space.validate"), "cli-model"),
    "space.ball_index_ms": ("ms", _ball_index_ms, "cli-model"),
    "space.worlds": ("count", _count("modelio.load", "worlds"), "cli-model"),
    "dendrogram.dot_ms": ("ms", _median_ms("dendrogram.dot"), "cli-model"),
    "dendrogram.balls": ("count", _count("dendrogram.dot", "balls"), "cli-model"),
    "semantics.eval_ms": ("ms", _median_ms("semantics.eval"), "cli-model"),
    "semantics.cells_per_s": ("1/s", _rate("semantics.eval", "cells"), "cli-model"),
    "semantics.subformulas": ("count", _count("semantics.eval", "subformulas"), "cli-model"),
    "validity.valid_ms": ("ms", _median_ms("validity.valid"), "validity"),
    "validity.valuations_per_s": ("1/s", _rate("validity.valid", "valuations"), "validity"),
    "validity.valuations": ("count", _count("validity.valid", "valuations"), "validity"),
    "parser.parse_ms": ("ms", _median_ms("parser.parse"), "proofs"),
    "parser.chars_per_s": ("1/s", _rate("parser.parse", "chars"), "proofs"),
    "formula.desugar_ms": ("ms", _median_ms("formula.desugar"), "proofs"),
    "axioms.match_ms": ("ms", _median_ms("axioms.match"), "proofs"),
    "axioms.instantiate_ms": ("ms", _median_ms("axioms.instantiate"), "proofs"),
    "proofs.from_json_ms": ("ms", _median_ms("proofs.from_json"), "proofs"),
    "proofs.check_ms": ("ms", _median_ms("proofs.check"), "proofs"),
    "proofs.lines_per_s": ("1/s", _rate("proofs.check", "lines"), "proofs"),
    "proofs.lines": ("count", _count("proofs.check", "lines"), "proofs"),
    "cli.overhead_ms": ("ms", _cli_overhead_ms, "cli-model"),
}
