"""Structured trace emitters: JSONL spans, events, and metric samples.

A trace is a flat stream of JSON records, one per line.  Three kinds:

``span``
    A named, timed region — an exploration round, a system-state
    materialisation batch, one soundness call.
    Spans carry ``id``/``parent`` so nested regions reconstruct into a
    tree; a span record is written when the region *ends* and its ``ts``
    is the region's start, so sorting by ``ts`` yields causal order.
``event``
    A point-in-time occurrence (a bug confirmation, a run ending).
``metric``
    A counter snapshot (:meth:`repro.stats.counters.ExplorationStats.snapshot`
    plus memory figures), emitted by :class:`repro.obs.metrics.RunMetrics`.

Every record has ``ts`` (seconds since the emitter was created), ``pid``,
and ``kind``.  The full field-by-field schema is docs/OBSERVABILITY.md.

The default sink is :data:`NULL_EMITTER`, whose hooks are no-ops and whose
``span()`` returns a shared singleton — instrumented hot paths cost one
no-op ``with`` statement when tracing is off.  Emitters are single-threaded
by design (one per checker run).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

#: Schema version stamped on the trace header event.
SCHEMA_VERSION = 1


class _Span:
    """Context manager for one timed region; emits its record on exit."""

    __slots__ = ("_emitter", "name", "span_id", "parent", "fields", "_start")

    def __init__(
        self,
        emitter: "TraceEmitter",
        name: str,
        span_id: int,
        parent: Optional[int],
        fields: Dict[str, Any],
    ):
        self._emitter = emitter
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.fields = fields
        self._start = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields discovered mid-region (counts, outcomes)."""
        self.fields.update(fields)

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._emitter._stack.append(self.span_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        stack = self._emitter._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._emitter._write_record(
            {
                "ts": self._start - self._emitter._origin,
                "pid": os.getpid(),
                "kind": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent,
                "dur_s": duration,
                "fields": self.fields,
            }
        )


class _NullSpan:
    """Shared no-op span: the entire cost of a disabled instrumentation point."""

    __slots__ = ()

    def add(self, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceEmitter:
    """Base emitter: span/event/metric construction over an abstract sink.

    Subclasses implement :meth:`_write`; everything else — ids, the span
    nesting stack, the trace-relative clock — lives here.
    """

    #: Hot paths may consult this to skip field computation entirely.
    enabled: bool = True

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        self._next_id = 1
        self._closed = False
        self.event("trace_start", schema=SCHEMA_VERSION)

    # -- record construction ---------------------------------------------------

    def span(self, name: str, **fields: Any) -> Union[_Span, _NullSpan]:
        """A context manager timing a named region nested under the current span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return _Span(self, name, span_id, parent, fields)

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point-in-time event record."""
        self._write_record(
            {
                "ts": time.perf_counter() - self._origin,
                "pid": os.getpid(),
                "kind": "event",
                "name": name,
                "fields": fields,
            }
        )

    def metric(self, **fields: Any) -> None:
        """Emit a counter-snapshot record (see :class:`repro.obs.metrics.RunMetrics`)."""
        self._write_record(
            {
                "ts": time.perf_counter() - self._origin,
                "pid": os.getpid(),
                "kind": "metric",
                "fields": fields,
            }
        )

    # -- sink ------------------------------------------------------------------

    def _write_record(self, record: Dict[str, Any]) -> None:
        if not self._closed:
            self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink; further records are dropped."""
        self._closed = True

    def __enter__(self) -> "TraceEmitter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullEmitter(TraceEmitter):
    """The zero-overhead default: every hook is a no-op."""

    enabled = False

    def __init__(self) -> None:  # deliberately skips TraceEmitter.__init__
        self._stack = []
        self._closed = False

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        pass

    def metric(self, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


#: Process-wide shared no-op emitter; the default for every instrumented API.
NULL_EMITTER = NullEmitter()


class MemoryEmitter(TraceEmitter):
    """Collects records in a list — the test and notebook sink."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        super().__init__()

    def _write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class CallbackEmitter(TraceEmitter):
    """Hands each record dict to a callable (bridges to foreign tracers)."""

    def __init__(self, callback: Callable[[Dict[str, Any]], None]):
        self._callback = callback
        super().__init__()

    def _write(self, record: Dict[str, Any]) -> None:
        self._callback(record)


class JsonlEmitter(TraceEmitter):
    """Streams records to a JSONL file (one compact JSON object per line)."""

    def __init__(self, path_or_file: Union[str, "os.PathLike[str]", TextIO]):
        if hasattr(path_or_file, "write"):
            self._file: TextIO = path_or_file  # type: ignore[assignment]
            self._owns_file = False
            self.path: Optional[str] = getattr(path_or_file, "name", None)
        else:
            self.path = os.fspath(path_or_file)
            # Line buffering: each record reaches the OS as one whole line,
            # so a killed run truncates at most the final record — which the
            # trace readers tolerate (see repro.obs.report.load_trace).
            self._file = open(self.path, "w", encoding="utf-8", buffering=1)
            self._owns_file = True
        super().__init__()

    def _write(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":"), default=str))
        self._file.write("\n")

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._file.flush()
        if self._owns_file:
            self._file.close()
