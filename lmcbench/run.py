#!/usr/bin/env python3
"""Run one LMC benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 lmcbench/run.py --workload explore_opt --seed 1 --seconds 25 --trace 0
    python3 lmcbench/run.py --seed 1 --seconds 25     # all four workloads in turn

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, writing the traced output (per-layer summary plus every
span) under ``lmcbench/results/``.  Either way every check's verdict, pinned
counters and witnesses are verified outside the timed region, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command exits non-zero when any check fails.  ``lmcbench/README.md``
describes the workloads and metrics; ``lmcbench/compare.py`` diffs two traced
outputs layer by layer.
"""

import time

#: Set-up time is measured from here: it covers importing the program.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from hashlib import blake2b  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Child processes measuring ``setup_s``; the metric is their median.
SETUP_REPEATS = 9

#: Deterministic counters a check contributes to the throughput metrics.
WORK_COUNTERS = ("transitions", "node_states", "system_states_created")

#: ``(name, unit)`` of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("check_s", "s"),
    ("transitions_per_s", "1/s"),
    ("states_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _load_program() -> None:
    """Put this checkout's ``src`` first on the path, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


_load_program()

from repro.core import checkpoint  # noqa: E402
from repro.core.checker import LocalModelChecker  # noqa: E402
from repro.model import hashing  # noqa: E402
from repro.obs.registry import RunRegistry  # noqa: E402
from repro.replay import validate_bug  # noqa: E402

from lmcbench import tracer as tracing  # noqa: E402
from lmcbench.workloads import PINNED_COUNTERS, WORKLOADS, CheckSpec, Inputs  # noqa: E402


def host() -> Dict[str, Any]:
    """The measuring host, printed with every run."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- host speed ------------------------------------------------------------------

#: Iterations of :func:`reference_work`, about 10 ms of work.
REFERENCE_ITEMS = 3000

#: Seconds :func:`reference_work` is taken to last on the reference host.
#: Reported times are scaled to that host's speed: see :func:`to_reference`.
REFERENCE_S = 0.010


def reference_work() -> int:
    """A fixed computation in the program's style: tuples, dicts, sets, blake2b.

    It is the benchmark's own code, so no change to the program changes it;
    its time only follows how fast the host runs Python at that moment.
    """
    table = {}
    seen = set()
    for i in range(REFERENCE_ITEMS):
        key = (i % 97, str(i), (i * 31) & 1023)
        table[blake2b(repr(key).encode(), digest_size=16).digest()] = key
        seen.add(frozenset((key[0], key[2])))
    return len(sorted(table)) + len(seen)


def time_reference() -> float:
    """Seconds :func:`reference_work` takes, with the cyclic collector paused.

    The reference makes no cycles; pausing the collector keeps the size of
    the program's heap at that moment out of its time.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return time.perf_counter() - started
    finally:
        gc.enable()


def to_reference(seconds: float, *reference_times: float) -> float:
    """``seconds`` of wall time as seconds on the reference host.

    ``reference_times`` are timings of :func:`reference_work` taken next to
    the measured interval (just before and after it).  On a shared host the
    speed of a CPU drifts by half or more over minutes as neighbours load
    it; the reference slows down with the program, so the ratio holds still
    where the wall time does not.
    """
    return seconds * REFERENCE_S / statistics.mean(reference_times)


# -- one check ---------------------------------------------------------------------


class CheckRun:
    """The outcome of one check: latency, result and verification errors."""

    def __init__(self, spec: CheckSpec, seconds: float, result: Any, errors: List[str]):
        self.spec = spec
        self.seconds = seconds
        self.result = result
        self.errors = errors

    def counters(self) -> Dict[str, int]:
        snapshot = self.result.stats.snapshot() if self.result is not None else {}
        return {name: snapshot.get(name, 0) for name in PINNED_COUNTERS}


def _fresh_process_state() -> None:
    """Start a check as a fresh ``repro check`` process would: cold caches."""
    hashing.configure_interning(False)
    hashing.configure_interning(True)
    hashing.configure_encoding_caches(False)
    hashing.configure_encoding_caches(True)
    gc.collect()


def verify(spec: CheckSpec, result: Any, protocol: Any, invariant: Any) -> List[str]:
    """Verdict, pinned counters and witness replay of one check."""
    expected = spec.expected
    errors = []
    if result.found_bug != expected.bug:
        errors.append(f"bug found {result.found_bug}, expected {expected.bug}")
    if result.completed != expected.completed:
        errors.append(f"completed {result.completed}, expected {expected.completed}")
    snapshot = result.stats.snapshot()
    for name, value in expected.counters().items():
        if snapshot[name] != value:
            errors.append(f"{name} {snapshot[name]}, expected {value}")
    for bug in result.bugs:
        outcome = validate_bug(protocol, bug, invariant)
        if not (outcome.complete and outcome.violates):
            errors.append(f"witness does not replay: {bug.description}")
    return errors


def run_check(
    spec: CheckSpec,
    scratch: str,
    tracer: Optional[tracing.Tracer] = None,
    check_id: int = 0,
) -> CheckRun:
    """Time one check from registration to verdict, then verify it untimed.

    Like ``repro check``, the run registers in a run registry (a temporary
    root here) and the checker reports to it.  Checkpoints of a chain live
    in ``scratch`` under their kind's name.
    """
    protocol, invariant, budget, config, initial = spec.build()
    registry = RunRegistry(os.path.join(scratch, "runs"))
    save_to = os.path.join(scratch, f"{spec.kind}.checkpoint.json")
    extend_from = os.path.join(scratch, f"{spec.extends}.checkpoint.json") if spec.extends else None
    algorithm = "lmc-opt" if config.invariant_specific_creation else "lmc-gen"
    traced = tracer.check(check_id, protocol, invariant) if tracer else nullcontext()
    _fresh_process_state()
    handle = None
    result = None
    try:
        started = time.perf_counter()
        with traced:
            handle = registry.register(command="check", workload=spec.kind, algorithm=algorithm)
            checker = LocalModelChecker(
                protocol,
                invariant,
                budget=budget,
                config=config,
                run_handle=handle,
                checkpointer=checkpoint.Checkpointer(save_to) if spec.save_checkpoint else None,
            )
            try:
                if extend_from is not None:
                    result = checker.extend_depth(checkpoint.load_checkpoint(extend_from))
                else:
                    result = checker.run(initial)
            except BaseException as exc:
                handle.finish(status="failed", error=repr(exc))
                raise
            handle.finish(
                status="finished",
                algorithm=result.algorithm,
                completed=result.completed,
                stop_reason=result.stop_reason,
                bugs=len(result.bugs),
                transitions=result.stats.transitions,
            )
        seconds = time.perf_counter() - started
    except Exception as exc:  # a failed check is counted, never fatal to the run
        traceback.print_exc()
        return CheckRun(spec, 0.0, None, [f"raised {exc!r}"])
    finally:
        if handle is not None:
            shutil.rmtree(handle.directory, ignore_errors=True)
    return CheckRun(spec, seconds, result, verify(spec, result, protocol, invariant))


def run_round(
    specs: List[CheckSpec], scratch: str, tracer: Optional[tracing.Tracer], first_id: int
) -> List[CheckRun]:
    return [
        run_check(spec, scratch, tracer, first_id + offset) for offset, spec in enumerate(specs)
    ]


def round_work(runs: List[CheckRun]) -> Counter:
    """Work a round executed: chain legs count only what they added."""
    work: Counter = Counter()
    by_kind = {run.spec.kind: run for run in runs}
    for run in runs:
        counters = run.counters()
        prior = by_kind.get(run.spec.extends) if run.spec.extends else None
        for name in WORK_COUNTERS:
            work[name] += counters[name] - (prior.counters()[name] if prior else 0)
    return work


# -- set-up ------------------------------------------------------------------------


def setup_only(workload: str, seed: int) -> float:
    """Generate the inputs and build every check's objects; seconds since start."""
    inputs = Inputs(workload, seed)
    for spec in inputs.checks:
        protocol, invariant, budget, config, _initial = spec.build()
        LocalModelChecker(protocol, invariant, budget=budget, config=config)
    return time.perf_counter() - _STARTED


def measure_setup(workload: str, seed: int) -> float:
    """Set up once in a fresh interpreter; its wall seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- statistics --------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


# -- the two modes -----------------------------------------------------------------


def warm_up(inputs: Inputs, scratch: str) -> List[CheckRun]:
    """One untimed round, verified like the rest.

    The first round of a process runs about a quarter slower than later
    ones while the interpreter's heap grows; timing only later rounds keeps
    that one-off cost (which ``peak_rss_mb`` reflects) out of the timings.
    """
    return run_round(inputs.next_round(), scratch, None, 0)


def measure(
    inputs: Inputs, seconds: float, scratch: str
) -> Tuple[Dict[str, float], List[CheckRun], List[str]]:
    """Untraced rounds for ``seconds`` after the warm-up: the end-to-end metrics.

    Every check is bracketed by timings of the reference computation and
    its latency is converted to reference-host seconds with them
    (:func:`to_reference`); the check metrics are medians over those.
    ``check_p50_ms`` is the median over rounds of each round's median
    check: a round's checks can fall into groups with a wide gap between
    them (the legs of the ``depth_extend`` chain), and the median of all
    latencies pooled would then sit at the edge of a group.
    ``setup_s`` is the median wall time of :data:`SETUP_REPEATS` set-ups
    spread evenly over the same window, between rounds, so that it samples
    the host as the rounds do.  It is not converted: set-up is mostly
    module loading, which the reference does not track.
    """
    runs = warm_up(inputs, scratch)
    round_times: List[float] = []
    round_p50s: List[float] = []
    wall_round_times: List[float] = []
    latencies: List[float] = []
    by_kind: Dict[str, List[float]] = {}
    setups: List[float] = []
    work = Counter()
    time_reference()  # warm the reference as the warm-up round warmed the program
    before = time_reference()
    start = time.perf_counter()
    deadline = start + seconds
    while not round_times or time.perf_counter() < deadline:
        batch = []
        for spec in inputs.next_round():
            batch.append(run_check(spec, scratch, None, len(runs) + len(batch)))
            after = time_reference()
            latencies.append(to_reference(batch[-1].seconds, before, after))
            by_kind.setdefault(spec.kind, []).append(latencies[-1])
            before = after
        runs += batch
        round_times.append(sum(latencies[-len(batch):]))
        round_p50s.append(statistics.median(latencies[-len(batch):]))
        wall_round_times.append(sum(run.seconds for run in batch))
        work = round_work(batch)
        elapsed = time.perf_counter() - start
        due = min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS / seconds))
        if len(setups) < due:
            while len(setups) < due:
                setups.append(measure_setup(inputs.workload.name, inputs.seed))
            before = time_reference()
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(inputs.workload.name, inputs.seed))
    check_s = statistics.median(round_times)
    tail_s, percentile = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "check_s": check_s,
        "transitions_per_s": work["transitions"] / check_s,
        "states_per_s": (work["node_states"] + work["system_states_created"]) / check_s,
        "check_p50_ms": 1000.0 * statistics.median(round_p50s),
        "check_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_check_s = statistics.median(wall_round_times)
    notes = [
        f"setup_s is the median of {len(setups)} set-ups in fresh interpreters",
        f"check_s over {len(round_times)} rounds of {len(inputs.checks)} check(s) "
        f"(median wall time {wall_check_s:.4f} s: the host ran at "
        f"{check_s / wall_check_s:.2f} of the reference speed)",
        f"check_tail_ms is p{percentile:.1f} of {len(latencies)} checks",
        "median ms per check kind: "
        + ", ".join(f"{kind} {1000 * statistics.median(v):.1f}" for kind, v in by_kind.items()),
        f"work per round: {dict(work)}",
    ]
    return metrics, runs, notes


def measure_traced(
    inputs: Inputs, seconds: float, scratch: str
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]], List[CheckRun], List[str], tracing.Tracer]:
    """Alternate untraced and traced rounds: the per-layer metrics.

    Per-layer values are per traced round (medians over the traced rounds);
    ``trace.overhead_ratio`` divides the median traced round by the median
    untraced one.  Also returns the median per-layer table (entries, self
    seconds) that the compare view reads.
    """
    tracer = tracing.Tracer()
    tracer.calibrate()
    runs = warm_up(inputs, scratch)
    untraced_times: List[float] = []
    per_round: List[Dict[str, float]] = []
    tables: List[Dict[str, Dict[str, float]]] = []
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < deadline:
        batch = run_round(inputs.next_round(), scratch, None, len(runs))
        runs += batch
        untraced_times.append(sum(run.seconds for run in batch))
        first_check = len(tracer.checks)
        runs += run_round(inputs.next_round(), scratch, tracer, len(runs))
        checks = tracer.checks[first_check:]
        first, last = checks[0]["first"], checks[-1]["last"]
        counts: Counter = Counter()
        for check in checks:
            counts.update(check["counts"])
        rows = tracer.summarize(first, last)
        metrics = tracing.layer_metrics(rows, counts)
        metrics["trace.check_s"] = tracer.root_seconds(first, last)
        per_round.append(metrics)
        tables.append(tracing.layer_table(rows))
    metrics = median_metrics(per_round)
    metrics["trace.overhead_ratio"] = metrics["trace.check_s"] / statistics.median(untraced_times)
    layers = {
        layer: median_metrics([table[layer] for table in tables]) for layer in tracing.LAYERS
    }
    notes = [
        f"{len(per_round)} traced and {len(untraced_times)} untraced rounds, "
        f"{tracer.span_count()} spans",
        f"tracer cost per span: {1e9 * tracer.overhead_in:.0f} ns inside, "
        f"{1e9 * tracer.overhead_out:.0f} ns outside (moved to trace.overhead_s)",
    ]
    program_s = metrics["trace.check_s"] - metrics["trace.overhead_s"]
    notes += [
        f"{layer:<20} {row['calls']:>10.0f} entries {row['self_s']:>9.4f} s self "
        f"= {100 * row['self_s'] / program_s:5.1f}% of traced check time net of tracer cost"
        for layer, row in layers.items()
        if layer != "trace"
    ]
    return metrics, layers, runs, notes, tracer


def write_trace(
    path: str,
    inputs: Inputs,
    metrics: Dict[str, float],
    layers: Dict[str, Dict[str, float]],
    tracer: tracing.Tracer,
) -> None:
    """The traced output: per-layer metrics and table, per-check tables, all spans."""
    spans = tracer.write_spans(os.path.splitext(path)[0] + ".spans")
    checks = []
    for check in tracer.checks:
        rows = tracer.summarize(check["first"], check["last"])
        checks.append(
            {
                "id": check["id"],
                "root_s": tracer.root_seconds(check["first"], check["last"]),
                "layers": tracing.layer_table(rows),
                "entries": rows,
                "counts": dict(check["counts"]),
            }
        )
    tracing.dump_json(
        path,
        {
            "workload": inputs.workload.name,
            "seed": inputs.seed,
            "host": host(),
            "metrics": metrics,
            "layers": layers,
            "checks": checks,
            "spans": spans,
        },
    )


# -- entry point -------------------------------------------------------------------


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<34} {value:>14.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], int, int]:
    """Measure one workload and print its report; ``(metrics, attempted, failed)``."""
    workload = WORKLOADS[name]
    print(f"lmcbench {name} seed={seed} trace={int(trace)} host={json.dumps(host())}")
    print(f"  why: {workload.why}")
    print(f"  stresses: {workload.stresses}; bypasses: {workload.bypasses}")
    inputs = Inputs(name, seed)
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as scratch:
        if trace:
            metrics, layers, runs, notes, tracer = measure_traced(inputs, seconds, scratch)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, runs, notes = measure(inputs, seconds, scratch)
            units = dict(END_TO_END)
    failed = [run for run in runs if run.errors]
    for run in failed[:10]:
        print(f"  FAILED {run.spec.kind}: {'; '.join(run.errors)}")
    for metric, unit in units.items():
        _print_metric(metric, metrics[metric], unit)
    print(
        f"  {'checks_failed_ratio':<34} {len(failed) / len(runs):>14.6g} "
        f"({len(failed)} failed of {len(runs)} attempted)"
    )
    for note in notes:
        print(f"  note: {note}")
    if trace:
        out = os.path.join(BENCH_DIR, "results", f"{name}-seed{seed}.trace.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        write_trace(out, inputs, metrics, layers, tracer)
        print(f"  traced output: {os.path.relpath(out, ROOT)}")
    reported = {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()}
    return reported, len(runs), len(failed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="one workload (default: all four in turn)"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"setup_s": setup_only(args.workload, args.seed)}))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    metrics: Dict[str, Any] = {}
    attempted = failed = 0
    for name in names:
        reported, tried, lost = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tried
        failed += lost
        # With every workload in one report, each metric is named after its workload.
        prefix = "" if args.workload else f"{name}."
        metrics.update({prefix + metric: value for metric, value in reported.items()})
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
