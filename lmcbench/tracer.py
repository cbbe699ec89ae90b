"""Per-layer span tracing of LMC checks, from outside the program.

:meth:`Tracer.check` wraps the public entry points of every layer for the
duration of one check and removes every wrapper when the check ends.  Each
call into a wrapped entry point records one span — name, start, end and
parent span — tagged with the check's id.  Spans stay in compact in-memory
columns until :meth:`Tracer.write_spans` writes them out.

A layer's *self time* is its spans' duration minus the part covered by their
child spans, so nested or recursive calls (hashing calling hashing, a
generator that drives another) are counted once, and the per-layer self
times of a check sum exactly to its root span.  A layer's ``calls`` are its
*entries*: spans whose parent belongs to another layer.

Function entry points are patched at every import site: every ``repro`` and
``lmcbench`` module attribute that *is* the original function is replaced,
so ``from repro.model.hashing import content_hash`` copies are traced too.
Methods are patched on the class; the protocol's and invariant's own classes
are patched per check, which keeps their instances' attributes (part of the
checkpoint fingerprint) untouched.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layer every check's root span belongs to: the checker's own loop
#: bookkeeping is whatever no child layer covers.
ROOT_LAYER = "core.checker"

#: Layers in report order: the root layer, then the tracer's own calibrated
#: cost as the ``trace`` pseudo-layer.
LAYERS = (
    "protocols",
    "model.hashing",
    "network.monotonic",
    "core.records",
    "core.system_states",
    "invariants",
    "core.soundness",
    "core.checkpoint",
    "obs.registry",
    ROOT_LAYER,
    "trace",
)

#: ``(name, unit)`` of the per-layer metrics a traced run reports.
PER_LAYER = (
    ("protocols.calls", "count"),
    ("protocols.self_s", "s"),
    ("protocols.noop_ratio", "ratio"),
    ("model.hashing.calls", "count"),
    ("model.hashing.self_s", "s"),
    ("model.hashing.intern_hit_ratio", "ratio"),
    ("network.monotonic.calls", "count"),
    ("network.monotonic.self_s", "s"),
    ("network.monotonic.suppressed_ratio", "ratio"),
    ("core.records.calls", "count"),
    ("core.records.self_s", "s"),
    ("core.records.new_state_ratio", "ratio"),
    ("core.system_states.combos", "count"),
    ("core.system_states.self_s", "s"),
    ("invariants.checks", "count"),
    ("invariants.self_s", "s"),
    ("invariants.violation_ratio", "ratio"),
    ("core.soundness.calls", "count"),
    ("core.soundness.enumerate_s", "s"),
    ("core.soundness.replay_s", "s"),
    ("core.soundness.confirm_ratio", "ratio"),
    ("core.checkpoint.snapshot_s", "s"),
    ("core.checkpoint.save_s", "s"),
    ("core.checkpoint.load_s", "s"),
    ("core.checkpoint.restore_s", "s"),
    ("core.checkpoint.bytes", "bytes"),
    ("obs.registry.calls", "count"),
    ("obs.registry.self_s", "s"),
    ("core.checker.self_s", "s"),
    ("trace.check_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Marks a class attribute that did not exist before patching.
_MISSING = object()

Outcome = Callable[[Counter, tuple, Any], None]


# -- outcome hooks: counts recorded at the layer boundary ------------------------


def _count_noop(counts: Counter, args: tuple, result: Any) -> None:
    # ``handle_message(self, state, message)`` / ``handle_action(self, state, action)``
    if result.is_noop(args[1]):
        counts["protocols.noops"] += 1


def _count_suppressed(counts: Counter, args: tuple, result: Any) -> None:
    if result is None:
        counts["network.monotonic.suppressed"] += 1


def _count_lookup_miss(counts: Counter, args: tuple, result: Any) -> None:
    if result is None:
        counts["core.records.lookup_misses"] += 1


def _count_violation(counts: Counter, args: tuple, result: Any) -> None:
    if not result:
        counts["invariants.violations"] += 1


def _count_confirmed(counts: Counter, args: tuple, result: Any) -> None:
    if result is not None:
        counts["core.soundness.confirmed"] += 1


def _count_checkpoint_bytes(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.checkpoint.bytes"] += os.path.getsize(args[0])


def _targets(protocol: Any, invariant: Any) -> List[Tuple[str, Any, str, str, Optional[Outcome]]]:
    """``(layer, owner, attribute, kind, outcome)`` for every wrapped entry point.

    ``kind`` is ``"function"`` (patched at every import site), ``"method"``
    (patched on the owner class) or ``"generator"`` (a function returning an
    iterator; each ``next()`` is one span).
    """
    from repro.core import checkpoint, soundness, system_states
    from repro.core.checker import LocalModelChecker
    from repro.core.records import NodeStateRecord, NodeStateStore
    from repro.core.soundness import SoundnessVerifier
    from repro.model import events, hashing
    from repro.network.monotonic import MonotonicNetwork
    from repro.obs.registry import RunHandle, RunRegistry

    protocol_cls, invariant_cls = type(protocol), type(invariant)
    targets: List[Tuple[str, Any, str, str, Optional[Outcome]]] = [
        ("protocols", protocol_cls, "handle_message", "method", _count_noop),
        ("protocols", protocol_cls, "handle_action", "method", _count_noop),
        ("protocols", protocol_cls, "enabled_actions", "method", None),
    ]
    for name in ("content_hash", "content_hash_and_size", "content_size", "canonical_bytes"):
        targets.append(("model.hashing", hashing, name, "function", None))
    targets.append(("model.hashing", events, "event_hash", "function", None))
    targets += [
        ("network.monotonic", MonotonicNetwork, "add", "method", None),
        ("network.monotonic", MonotonicNetwork, "add_hashed", "method", _count_suppressed),
        ("network.monotonic", MonotonicNetwork, "add_all", "method", None),
        ("network.monotonic", MonotonicNetwork, "for_destination", "method", None),
        ("network.monotonic", MonotonicNetwork, "messages_since", "method", None),
        ("core.records", NodeStateStore, "add", "method", None),
        ("core.records", NodeStateStore, "lookup", "method", _count_lookup_miss),
        ("core.records", NodeStateStore, "active_records", "method", None),
        ("core.records", NodeStateRecord, "add_predecessor", "method", None),
        ("core.system_states", system_states, "enumerate_general", "generator", None),
        ("core.system_states", system_states, "enumerate_optimized", "generator", None),
        ("core.system_states", system_states, "combination_to_system_state", "function", None),
    ]
    for name in ("check", "check_local"):
        if hasattr(invariant_cls, name):
            targets.append(("invariants", invariant_cls, name, "method", _count_violation))
    # ``projections_conflict`` stays unwrapped: LMC-OPT's enumerator calls it
    # ~1.6M times in a depth-6 two-proposal Paxos check at well under a
    # microsecond each, so a span would cost several times the call and bury
    # the enumerator's real cost.  Its time is reported in
    # core.system_states, its caller.
    if hasattr(invariant_cls, "local_projection"):
        targets.append(("invariants", invariant_cls, "local_projection", "method", None))
    targets += [
        ("core.soundness", SoundnessVerifier, "is_state_sound", "method", _count_confirmed),
        ("core.soundness", soundness, "replay_sequences_indexed", "function", None),
        ("core.soundness", soundness, "replay_sequences", "function", None),
        ("core.soundness", soundness, "backtrack_order", "function", None),
        ("core.checkpoint", checkpoint, "snapshot_pass", "function", None),
        ("core.checkpoint", checkpoint, "save_checkpoint", "function", _count_checkpoint_bytes),
        ("core.checkpoint", checkpoint, "load_checkpoint", "function", None),
        ("core.checkpoint", checkpoint, "restore_pass", "function", None),
        ("obs.registry", RunRegistry, "register", "method", None),
        ("obs.registry", RunHandle, "heartbeat", "method", None),
        ("obs.registry", RunHandle, "finish", "method", None),
        (ROOT_LAYER, LocalModelChecker, "run", "method", None),
        (ROOT_LAYER, LocalModelChecker, "extend_depth", "method", None),
    ]
    return targets


def _import_sites(original: Any) -> Iterator[Tuple[Any, str]]:
    """Every ``(module, attribute)`` of ``repro``/``lmcbench`` bound to ``original``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.split(".", 1)[0] not in ("repro", "lmcbench"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                yield module, attribute


class Tracer:
    """Records spans of wrapped layer entry points, one check at a time.

    A span is appended when it *ends* (name, start, end), which keeps the
    wrapper to two clock reads and three appends; parents are recovered
    afterwards from interval nesting (:meth:`parents`), exact because one
    thread runs a check and a child's interval lies inside its parent's.
    """

    def __init__(self) -> None:
        #: Span-name table: ``names[i]`` is ``"layer:entry"``.
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Span columns, one element per span, in end order.
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        #: Outcome counts of the check in progress.
        self.counts: Counter = Counter()
        #: One entry per finished check: id, span range and outcome counts.
        self.checks: List[Dict[str, Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Open ``core.system_states`` iterator steps (see :meth:`_iterate`).
        self._enumerating = 0
        #: Per-span wrapper cost inside a span's own interval and outside it
        #: (in its parent's), set by :meth:`calibrate`; :meth:`summarize`
        #: moves both out of the layers into the ``trace`` pseudo-layer.
        self.overhead_in = 0.0
        self.overhead_out = 0.0

    # -- names -------------------------------------------------------------------

    def name_id(self, layer: str, entry: str) -> int:
        key = f"{layer}:{entry}"
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return found

    @staticmethod
    def layer_of(name: str) -> str:
        return name.split(":", 1)[0]

    # -- span recording ------------------------------------------------------------

    def _record(self, name_id: int, start: float, end: float) -> None:
        self.end_col.append(end)
        self.start_col.append(start)
        self.name_col.append(name_id)

    def _wrap(self, name_id: int, fn: Callable, outcome: Optional[Outcome]) -> Callable:
        # Bookkeeping inlined: this runs on every hashing call, and whatever
        # it costs outside the two clock reads lands in the caller's self time.
        clock, counts = time.perf_counter, self.counts
        add_end, add_start, add_name = self.end_col.append, self.start_col.append, self.name_col.append

        if outcome is None:

            def traced(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    add_end(clock())
                    add_start(start)
                    add_name(name_id)

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    add_end(clock())
                    add_start(start)
                    add_name(name_id)
                outcome(counts, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name_id: int, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            # Only iterators created outside an enumeration step count their
            # items: an enumerator driving another yields each combination
            # once to the checker.
            return self._iterate(name_id, fn(*args, **kwargs), not self._enumerating)

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name_id: int, iterator: Iterator[Any], entry: bool) -> Iterator[Any]:
        clock = time.perf_counter
        while True:
            self._enumerating += 1
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._record(name_id, start, clock())
                self._enumerating -= 1
            if entry:
                self.counts["core.system_states.combos"] += 1
            yield item

    # -- installation ----------------------------------------------------------------

    def _install(self, protocol: Any, invariant: Any) -> None:
        for layer, owner, attribute, kind, outcome in _targets(protocol, invariant):
            name_id = self.name_id(layer, attribute)
            original = getattr(owner, attribute)
            if kind == "generator":
                wrapper = self._wrap_generator(name_id, original)
            else:
                wrapper = self._wrap(name_id, original, outcome)
            if kind == "method":
                self._undo.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
                setattr(owner, attribute, wrapper)
                continue
            for module, site in _import_sites(original):
                self._undo.append((module, site, original))
                setattr(module, site, wrapper)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    @contextmanager
    def check(self, check_id: int, protocol: Any, invariant: Any) -> Iterator[None]:
        """Trace one check: wrappers installed, one root span open.

        Everything the caller does inside the block — registering the run,
        building the checker, loading a checkpoint, running it — lands under
        the root span.  Every wrapper is removed on exit, also on error.
        """
        from repro.model import hashing

        self.counts.clear()
        interned = hashing.intern_stats()
        first = self.span_count()
        self._install(protocol, invariant)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(self.name_id(ROOT_LAYER, "check"), start, time.perf_counter())
            self._uninstall()
            after = hashing.intern_stats()
            self.counts["model.hashing.intern_hits"] += after["hits"] - interned["hits"]
            self.counts["model.hashing.intern_misses"] += after["misses"] - interned["misses"]
            self.checks.append(
                {"id": check_id, "first": first, "last": self.span_count(), "counts": Counter(self.counts)}
            )

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's cost per span on a no-op method.

        Without this, a layer of many small calls (tens of thousands of
        hashing calls in one explore_opt check) is charged for the tracer's
        own work.  The
        cost inside the span is its mean recorded duration less the plain
        call; the rest of the added time is charged outside it.  Medians
        over ``repeats`` trials.
        """
        clock = time.perf_counter

        class Probe:
            def hook(self, value: Any) -> Any:
                return value

        probe, plain = Probe(), Probe.hook
        inside, outside = [], []
        for _ in range(repeats):
            started = clock()
            for _ in range(calls):
                probe.hook(1)
            plain_s = (clock() - started) / calls
            scratch = Tracer()
            Probe.hook = scratch._wrap(scratch.name_id(ROOT_LAYER, "probe"), plain, None)
            try:
                started = clock()
                for _ in range(calls):
                    probe.hook(1)
                traced_s = (clock() - started) / calls
            finally:
                Probe.hook = plain
            recorded_s = sum(scratch.end_col[i] - scratch.start_col[i] for i in range(calls)) / calls
            inside.append(recorded_s - plain_s)
            outside.append(traced_s - recorded_s)
        self.overhead_in = max(0.0, statistics.median(inside))
        self.overhead_out = max(0.0, statistics.median(outside))

    # -- analysis ----------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start_col)

    def parents(self, first: int, last: int) -> array:
        """Parent span index of each span in ``[first, last)`` (-1 for roots).

        Spans are stored in end order, so when a span is read all of its
        children are already read and still unclaimed: exactly the pending
        spans that started no earlier than it did.
        """
        starts = self.start_col
        parent = array("i", [-1]) * (last - first)
        pending: List[int] = []
        for i in range(first, last):
            start = starts[i]
            while pending and starts[pending[-1]] >= start:
                parent[pending.pop() - first] = i
            pending.append(i)
        return parent

    def summarize(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Per span name over spans ``[first, last)``: calls, entries, self seconds.

        The calibrated wrapper cost of every non-root span is taken out of
        its own and its parent's self time and reported as ``trace:overhead``,
        so the rows' self times still sum to the root spans.
        """
        names, starts, ends = self.name_col, self.start_col, self.end_col
        layers = [self.layer_of(name) for name in self.names]
        parents = self.parents(first, last)
        inside, outside = self.overhead_in, self.overhead_out
        self_s = [ends[i] - starts[i] for i in range(first, last)]
        wrapped = 0
        for i in range(first, last):
            parent = parents[i - first]
            if parent >= 0:
                wrapped += 1
                self_s[i - first] -= inside
                self_s[parent - first] -= ends[i] - starts[i] + outside
        out: Dict[str, Dict[str, float]] = {
            "trace:overhead": {"calls": wrapped, "entries": wrapped, "self_s": wrapped * (inside + outside)}
        }
        for i in range(first, last):
            name = names[i]
            row = out.get(self.names[name])
            if row is None:
                row = out[self.names[name]] = {"calls": 0, "entries": 0, "self_s": 0.0}
            parent = parents[i - first]
            row["calls"] += 1
            if parent < 0 or layers[names[parent]] != layers[name]:
                row["entries"] += 1
            row["self_s"] += self_s[i - first]
        return out

    def root_seconds(self, first: int, last: int) -> float:
        """Total duration of the root spans among ``[first, last)``."""
        starts, ends = self.start_col, self.end_col
        parents = self.parents(first, last)
        return sum(ends[i] - starts[i] for i in range(first, last) if parents[i - first] < 0)

    def write_spans(self, path: str) -> Dict[str, Any]:
        """Write every recorded span; return the manifest describing the file.

        The file holds the columns back to back as native arrays, in the
        manifest's ``columns`` order, one element per span in end order;
        ``names`` maps ``name`` values to ``"layer:entry"`` strings, ``parent``
        is a span index (-1 for a check's root) and ``check`` the check id.
        """
        parent_col, check_col = array("i"), array("i")
        for check in self.checks:
            parent_col.extend(self.parents(check["first"], check["last"]))
            check_col.extend(array("i", [check["id"]]) * (check["last"] - check["first"]))
        columns = (
            ("name", self.name_col),
            ("parent", parent_col),
            ("check", check_col),
            ("start", self.start_col),
            ("end", self.end_col),
        )
        with open(path, "wb") as handle:
            for _label, column in columns:
                column.tofile(handle)
        return {
            "file": os.path.basename(path),
            "count": self.span_count(),
            "byteorder": sys.byteorder,
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "names": list(self.names),
        }


def layer_metrics(rows: Dict[str, Dict[str, float]], counts: Counter) -> Dict[str, float]:
    """The per-layer metrics of one span summary (see ``lmcbench/README.md``)."""

    def stat(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    def layer_sum(layer: str, field: str) -> float:
        return sum(row[field] for name, row in rows.items() if Tracer.layer_of(name) == layer)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    handlers = stat("protocols:handle_message", "calls") + stat("protocols:handle_action", "calls")
    checks = stat("invariants:check", "entries") + stat("invariants:check_local", "entries")
    intern = counts["model.hashing.intern_hits"] + counts["model.hashing.intern_misses"]
    soundness_calls = stat("core.soundness:is_state_sound", "calls")
    metrics: Dict[str, float] = {}
    for layer in ("protocols", "model.hashing", "network.monotonic", "core.records", "obs.registry"):
        metrics[f"{layer}.calls"] = layer_sum(layer, "entries")
        metrics[f"{layer}.self_s"] = layer_sum(layer, "self_s")
    metrics.update(
        {
            "protocols.noop_ratio": ratio(counts["protocols.noops"], handlers),
            "model.hashing.intern_hit_ratio": ratio(counts["model.hashing.intern_hits"], intern),
            "network.monotonic.suppressed_ratio": ratio(
                counts["network.monotonic.suppressed"], stat("network.monotonic:add_hashed", "calls")
            ),
            "core.records.new_state_ratio": ratio(
                counts["core.records.lookup_misses"], stat("core.records:lookup", "calls")
            ),
            "core.system_states.combos": counts["core.system_states.combos"],
            "core.system_states.self_s": layer_sum("core.system_states", "self_s"),
            "invariants.checks": checks,
            "invariants.self_s": layer_sum("invariants", "self_s"),
            "invariants.violation_ratio": ratio(counts["invariants.violations"], checks),
            "core.soundness.calls": soundness_calls,
            "core.soundness.enumerate_s": stat("core.soundness:is_state_sound", "self_s"),
            "core.soundness.replay_s": layer_sum("core.soundness", "self_s")
            - stat("core.soundness:is_state_sound", "self_s"),
            "core.soundness.confirm_ratio": ratio(counts["core.soundness.confirmed"], soundness_calls),
            "core.checkpoint.snapshot_s": stat("core.checkpoint:snapshot_pass", "self_s"),
            "core.checkpoint.save_s": stat("core.checkpoint:save_checkpoint", "self_s"),
            "core.checkpoint.load_s": stat("core.checkpoint:load_checkpoint", "self_s"),
            "core.checkpoint.restore_s": stat("core.checkpoint:restore_pass", "self_s"),
            "core.checkpoint.bytes": counts["core.checkpoint.bytes"],
            "core.checker.self_s": layer_sum(ROOT_LAYER, "self_s"),
            "trace.overhead_s": stat("trace:overhead", "self_s"),
        }
    )
    return metrics


def layer_table(rows: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Entries and self seconds per layer, in :data:`LAYERS` order."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, row in rows.items():
        totals = table[Tracer.layer_of(name)]
        totals["calls"] += row["entries"]
        totals["self_s"] += row["self_s"]
    return table


def dump_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
