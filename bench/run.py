"""Benchmark for umlogic: one workload per run, end-to-end metrics or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-model --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans go to ``bench/_work/``.  Times are rescaled
to the reference machine speed (see pace.py); raw wall times go to
standard error.  See README.md.
"""
from __future__ import annotations

import os

# One thread, whatever numpy's BLAS would pick; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
sys.path[:0] = [str(BENCH), str(SRC)]

import spans  # noqa: E402  (the benchmark's own modules, found through BENCH)
from pace import Pacer  # noqa: E402
from workloads import WORKLOADS, load_peak_mb  # noqa: E402

#: The latency tail reported on every workload: the highest percentile
#: with at least ten operations beyond it in a cli-model run (80 to 100
#: operations), the workload with the fewest operations.
TAIL_PERCENTILE = 85

LAYERS = ("cli", "modelio", "space", "semantics", "validity", "parser", "formula", "axioms",
          "proofs", "dendrogram")


def fresh_umlogic() -> SimpleNamespace:
    """Import umlogic from the checkout's ``src``, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "umlogic" or m.startswith("umlogic.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"umlogic.{name}") for name in LAYERS}
    if SRC.resolve() not in Path(modules["cli"].__file__).resolve().parents:
        raise ImportError(f"umlogic was imported from {modules['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**modules)


def timed_phase(ops, seconds: float, pace: str, tracer=None) -> dict:
    """Repeat whole rounds of ``ops`` until ``seconds`` have passed.

    Keeps the outputs of the first round; every later output must equal
    the first round's output of the same operation.  ``times`` are raw
    milliseconds and ``scales`` their machine-speed factors from the
    ``pace`` kernel.
    """
    times, scales, first = [], [], []
    failed = mismatches = 0
    pacer = Pacer(pace)
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(times)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # an operation that raises counts as failed; the run goes on
                if failed == 0:
                    traceback.print_exc(file=sys.stderr)
                failed += 1
                out = None
            times.append((time.perf_counter() - t0) * 1000)
            scales.append(pacer.scale())
            if len(first) < len(ops):
                first.append(out)
            elif out is not None and out != first[i]:
                mismatches += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "scales": scales, "first": first, "failed": failed,
            "mismatches": mismatches, "wall": time.perf_counter() - start}


def verify(workload, um, first, mismatches) -> bool:
    problem = workload.check(first) or workload.untimed_checks(um)
    if mismatches:
        problem = f"{mismatches} outputs differ from the first round's"
    if problem:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return problem is None


def latency_metrics(times: list[float], setup_s: list[float]) -> dict:
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (statistics.median(times), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ops_per_s": (1000 * len(times) / sum(times), "1/s"),
    }


def paced_setup(workload, tracer=None):
    """Fresh import plus ``workload.setup``, each step rescaled on its own.

    Returns the imported modules, the raw seconds and the rescaled seconds.
    """
    pacer = Pacer()
    raw = scaled = 0.0
    start = time.perf_counter()
    um = fresh_umlogic()
    steps = workload.setup(um, tracer)
    while True:
        done = next(steps, StopIteration) is StopIteration
        elapsed = time.perf_counter() - start
        raw += elapsed
        scaled += elapsed * pacer.scale()
        if done:
            return um, raw, scaled
        start = time.perf_counter()


def end_to_end(workload, seconds: float) -> dict:
    raw_setup, setup = [], []
    for _ in range(workload.setup_reps):
        um, raw, scaled = paced_setup(workload)
        raw_setup.append(raw)
        setup.append(scaled)
    phase = timed_phase(workload.ops(um), seconds, workload.pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t * s for t, s in zip(phase["times"], phase["scales"])]
    metrics = latency_metrics(times, setup)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    raw = {k: round(v, 4) for k, (v, _) in latency_metrics(phase["times"], raw_setup).items()}
    print(f"{workload.name}: raw wall times {raw}, machine-speed factor "
          f"{statistics.median(phase['scales']):.3f}", file=sys.stderr)
    return {"correct": verify(workload, um, phase["first"], phase["mismatches"]),
            "attempted": len(times), "failed": phase["failed"], "metrics": metrics}


def traced_result(workload, um, tracer, setup_scale: float, seconds: float) -> dict:
    """Each operation run untraced, then replayed with spans, for ``seconds``.

    Alternating the two keeps a drifting machine from biasing their
    difference.  Spans of the replay carry the operation's index in the
    phase, which is one more than that of its untraced run.
    """
    pairs = [op for pair in zip(workload.ops(um), workload.traced_ops(um, tracer)) for op in pair]
    phase = timed_phase(pairs, seconds, workload.pace, tracer)
    scale = dict(enumerate(phase["scales"]), setup=setup_scale)
    return {
        "spans": tracer.spans,
        "scale": scale,
        "cli": workload.cli,
        "untraced_ms": {i + 1: t * scale[i] for i, t in enumerate(phase["times"]) if i % 2 == 0},
        "traced_ms": [t * scale[i] for i, t in enumerate(phase["times"]) if i % 2],
        "load_peak_mb": load_peak_mb(um, workload.model_path) if workload.model_path else None,
        "phase": phase,
        "correct": verify(workload, um, phase["first"][0::2], phase["mismatches"]),
    }


def traced_run(workload, seconds: float) -> dict:
    tracer = spans.Tracer()
    um, raw, scaled = paced_setup(workload, tracer)
    return traced_result(workload, um, tracer, scaled / raw, seconds)


def per_layer(workload, seed: int, seconds: float) -> dict:
    results = {workload.name: traced_run(workload, seconds)}
    metrics, sources = {}, {}
    for name, (unit, fn, fallback) in spans.LAYER_METRICS.items():
        source = workload.name
        value = fn(results[source])
        if value is None:
            # A quarter of the run length (at least one round) of the
            # workload that does call this layer.
            if fallback not in results:
                results[fallback] = traced_run(WORKLOADS[fallback](seed, WORK), seconds / 4)
            source = fallback
            value = fn(results[source])
        if value is None:
            raise RuntimeError(f"no spans for {name}")
        metrics[name] = (value, unit)
        sources[name] = source

    own = results[workload.name]
    cost_ms = spans.span_cost_s() * 1000
    per_op = sum(s[4] != "setup" for s in own["spans"]) / len(own["traced_ms"])
    untraced_ms = statistics.median(own["untraced_ms"].values())
    overhead = {
        "span_cost_us": cost_ms * 1000,
        "spans_per_op": per_op,
        "untraced_op_ms": untraced_ms,
        "traced_op_ms": statistics.median(own["traced_ms"]),
        "overhead_pct": 100 * cost_ms * per_op / untraced_ms,
    }
    print(f"{workload.name}: tracing overhead {overhead['overhead_pct']:.3f}% "
          f"({per_op:.0f} spans per operation at {cost_ms * 1000:.2f} us each)", file=sys.stderr)
    (WORK / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "overhead": overhead,
        "metrics": {k: {"value": v, "unit": u, "source": sources[k]}
                    for k, (v, u) in metrics.items()},
        "spans": {w: r["spans"] for w, r in results.items()},
        "scale": {w: r["scale"] for w, r in results.items()},
    }))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(len(r["phase"]["times"]) for r in results.values()),
            "failed": sum(r["phase"]["failed"] for r in results.values()), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    # The benchmark's own inputs are made here, before any clock starts.
    workload = WORKLOADS[args.workload](args.seed, WORK)
    try:
        fresh_umlogic()
    except ImportError as exc:
        print(f"cannot import umlogic from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = per_layer(workload, args.seed, args.seconds)
    else:
        result = end_to_end(workload, args.seconds)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
