"""Span recorder for the traced run: timing wrappers installed from the
benchmark's side around the public methods at each layer boundary.

Nothing in ``src/`` knows about this file.  :meth:`Recorder.install`
replaces the named public methods with wrappers that record one span per
call — ``(name, start, end, parent, session, age)`` — into a per-thread
list (no lock on the hot path); the parent is whatever span was open on
the same thread, so a span's *self time* is its duration minus its
children's.  Worker processes of the ``processes`` backend fork with the
wrappers in place but call none of the wrapped methods (they read
shared-memory views directly); what happens there is taken from the
``kernel_time`` / ``ipc_time`` the backend already reports.

Spans stay in memory until :meth:`Recorder.write_chrome_trace`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.core.analyzer import DependencyAnalyzer
from repro.core.backends import ProcessBackend, ThreadBackend
from repro.core.fields import Field
from repro.core.runtime import ReadyQueue
from repro.core import vectorize
from repro.stream import CreditGate, Retirer

#: The Chrome-trace file keeps the earliest spans up to this many; the
#: aggregates always cover every span.
MAX_TRACE_EVENTS = 100_000

#: Spans whose duration is mostly a blocked wait, not work: they are
#: reported as waiting and never counted as a layer's busy time.
WAIT_SPANS = frozenset({"core.runtime.pop_wait", "stream.gate.admit"})


def session_of(name: str) -> str:
    """Session prefix of a namespaced field/kernel name ("" if none)."""
    i = name.find(".")
    return name[:i] if i > 0 else ""


class Recorder:
    """Collects spans and a few counts taken at the same boundaries."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: thread name -> that thread's ``(spans, counts)``; a span is
        #: ``[name, t0, t1, parent_index, session, age]`` (parent indexes
        #: the same list, -1 for a root).  Counts are per thread too, so
        #: no increment is ever shared between threads.
        self.threads: dict[str, tuple[list, dict]] = {}
        #: id(object) -> session, for objects that do not carry their
        #: session in a name (credit gates, retirers); the harness fills
        #: it after it builds a run.
        self.labels: dict[int, str] = {}

    # ------------------------------------------------------------------
    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            spans: list = []
            counts: dict = defaultdict(int)
            st = self._tls.st = (spans, [], counts)
            with self._lock:
                name = threading.current_thread().name
                while name in self.threads:
                    name += "'"
                self.threads[name] = (spans, counts)
        return st

    def counts(self) -> dict[str, int]:
        """The boundary counts, summed over threads."""
        out: dict[str, int] = defaultdict(int)
        for _spans, counts in self._thread_items():
            for k, v in list(counts.items()):
                out[k] += v
        return out

    def _thread_items(self) -> list[tuple[list, dict]]:
        with self._lock:
            return list(self.threads.values())

    def wrap(self, owner, attr: str, name: str, key=None, post=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(*args)`` gives the span's ``(session, age)``;
        ``post(counts, args, result)`` counts at the same boundary.
        """
        orig = getattr(owner, attr)
        setattr(owner, attr, self.wrapped(orig, name, key, post))

    def wrapped(self, orig, name: str, key=None, post=None):
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack, counts = state()
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, "", None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if key is not None:
                    span[4], span[5] = key(*args)
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layer boundaries (class-level: every instance built
        afterwards — and before — goes through the wrappers)."""
        labels = self.labels

        def inst_key(_self, inst, *_a):
            return session_of(inst.kernel.name), inst.age

        def event_useful(counts, _args, out):
            counts["analyzer.events"] += 1
            if out:
                counts["analyzer.useful"] += 1

        self.wrap(
            DependencyAnalyzer, "on_store", "core.analyzer.on_store",
            lambda _s, ev: (session_of(ev.field), ev.age), event_useful,
        )
        self.wrap(
            DependencyAnalyzer, "on_done", "core.analyzer.on_done",
            lambda _s, ev: inst_key(_s, ev.instance), event_useful,
        )
        self.wrap(
            DependencyAnalyzer, "on_resize", "core.analyzer.on_resize",
            lambda _s, ev: (session_of(ev.field), None), event_useful,
        )
        self.wrap(ReadyQueue, "push", "core.runtime.push", inst_key)
        self.wrap(ReadyQueue, "pop_timed", "core.runtime.pop_wait")
        self.wrap(ReadyQueue, "pop_batch", "core.runtime.pop_wait")

        def field_key(self_, age, *_a):
            return session_of(self_.name), age

        self.wrap(Field, "store", "core.fields.store", field_key)
        self.wrap(Field, "fetch", "core.fields.fetch", field_key)
        self.wrap(Field, "mark_written_many",
                  "core.fields.mark_written_many", field_key)

        def batch_post(counts, args, _out):
            batch = args[1]
            if len(batch) > 1 and batch[0].kernel.batch_body is not None:
                counts["instances.batch_body"] += len(batch)

        for backend in (ThreadBackend, ProcessBackend):
            self.wrap(backend, "execute", "core.backends.execute",
                      inst_key)
            self.wrap(
                backend, "execute_batch", "core.backends.execute_batch",
                lambda _s, batch, *_a: inst_key(_s, batch[0]), batch_post,
            )

        # Parent-side vectorize fallbacks: a batch with no uniform fetch
        # plan.  (A ``VectorizeFallback`` raised inside a worker process
        # is not visible from here.)  The runtime imports the function
        # at call time, so the module attribute is what it resolves.
        def plan_post(counts, args, out):
            if out is None:
                counts["vectorize.fallbacks"] += 1
                counts["vectorize.fallback_instances"] += len(args[2])

        vectorize.batch_fetch_plan = self.wrapped(
            vectorize.batch_fetch_plan, "core.vectorize.fetch_plan",
            None, plan_post,
        )

        def labelled(self_, *args):
            return labels.get(id(self_), ""), (args[0] if args else None)

        self.wrap(CreditGate, "admit", "stream.gate.admit", labelled)
        self.wrap(CreditGate, "grant", "stream.gate.grant", labelled)
        self.wrap(Retirer, "sweep", "stream.retire.sweep", labelled)

    # ------------------------------------------------------------------
    def all_spans(self):
        """Every finished span as ``(thread, index, span)``."""
        with self._lock:
            threads = dict(self.threads)
        for tname, (spans, _counts) in threads.items():
            for i, span in enumerate(list(spans)):
                if span[2]:
                    yield tname, i, span

    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s`` and ``self_s`` (total
        minus the time covered by child spans)."""
        out: dict[str, dict] = {}
        for spans, _counts in self._thread_items():
            spans = list(spans)
            child = [0.0] * len(spans)
            for s in spans:
                if s[2] and s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                if not s[2]:
                    continue
                agg = out.setdefault(
                    s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0}
                )
                dur = s[2] - s[1]
                agg["count"] += 1
                agg["total_s"] += dur
                agg["self_s"] += max(0.0, dur - child[i])
        return out

    def starts(self, name: str) -> dict[tuple, float]:
        """``(session, age) -> start time`` of the first span ``name``."""
        out: dict[tuple, float] = {}
        for _t, _i, s in self.all_spans():
            if s[0] == name:
                out.setdefault((s[4], s[5]), s[1])
        return out

    def write_chrome_trace(self, path: Path, meta: dict) -> int:
        """Write the spans as a Chrome-trace (``chrome://tracing`` /
        Perfetto) JSON object; returns the number of events written."""
        rows = sorted(self.all_spans(), key=lambda r: r[2][1])
        total = len(rows)
        rows = rows[:MAX_TRACE_EVENTS]
        base = rows[0][2][1] if rows else 0.0
        tids = {}
        events = []
        for tname, i, s in rows:
            tid = tids.setdefault(tname, len(tids) + 1)
            events.append({
                "name": s[0],
                "cat": s[0].rsplit(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((s[1] - base) * 1e6, 3),
                "dur": round((s[2] - s[1]) * 1e6, 3),
                "args": {
                    "id": f"{tid}:{i}",
                    "parent": f"{tid}:{s[3]}" if s[3] >= 0 else None,
                    "session": s[4],
                    "age": s[5],
                },
            })
        for tname, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": tname},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": dict(meta, spans_total=total,
                                      spans_written=len(rows)),
                },
                fh,
            )
        return len(rows)
