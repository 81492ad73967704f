"""In-memory span recorder that instruments INDICE's layers from outside.

Nothing inside ``repro`` is edited: :meth:`Tracer.wrap` replaces a public
function or method with a wrapper that records one span per call (name,
start, end, parent span, run or request id, rows handled, and the
process's RSS high-water mark at the span's end).  Spans stay in memory
and are written once, when the process ends its run.

Pool workers are forked from the instrumented process, so they inherit
the wrappers.  The first span recorded in a worker re-roots that worker's
span list and registers a ``multiprocessing`` exit finalizer that writes
the worker's spans to ``<spill_dir>/worker-<pid>.json`` when the worker
exits; the parent reads them back after the run.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "rss_highwater_mb", "reset_rss_highwater"]


def rss_highwater_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_rss_highwater() -> bool:
    """Reset ``VmHWM`` to the current RSS; False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
        return True
    except OSError:
        return False


class Tracer:
    """Spans and counters of one process, kept in memory.

    A span is the tuple ``(id, name, start, end, parent, tag, rows,
    rss_mb, pid)``; *tag* is the run id, or the request id for serving
    spans.  Untraced runs build no tracer and install no wrapper at all.
    """

    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_worker(self) -> None:
        """Re-root the recorder the first time a forked worker records."""
        from multiprocessing import util

        # the forking thread's span stack is inherited, so the worker's
        # spans hang under the parent's open perf.map_table span; ids are
        # offset by the pid so they never collide with the parent's
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._lock = threading.Lock()
        self._next_id = self.pid * 10_000_000
        util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = self.spill_dir / f"worker-{self.pid}.json"
        path.write_text(
            json.dumps({"spans": self.spans, "counters": self.counters})
        )

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name*."""
        if os.getpid() != self.pid:
            self._enter_worker()
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self) -> tuple[int, int | None, float]:
        """Open a span; returns the token :meth:`end` needs."""
        if os.getpid() != self.pid:
            self._enter_worker()
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token, name: str, tag: str | None = None,
            rows: int | None = None, rss: bool = True) -> float:
        """Close the span opened by :meth:`begin`; returns its duration.

        *rss* False skips reading the RSS high-water mark, for the
        per-address and per-request spans where the read would cost more
        than the call.
        """
        span_id, parent, start = token
        stop = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, stop, parent, tag or self.run_id, rows,
             rss_highwater_mb() if rss else None, self.pid)
        )
        return stop - start

    # -- instrumentation -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, rows=None, after=None,
             rss: bool = True) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *rows* maps the call's arguments to the number of rows it handles;
        *after* receives ``(result, args, kwargs)`` to update counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}.raised")
                raise
            finally:
                n_rows = rows(*args, **kwargs) if rows is not None else None
                tracer.end(token, name, rows=n_rows, rss=rss)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def read_workers(self) -> int:
        """Merge the span files pool workers wrote; returns how many."""
        merged = 0
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(tuple(span) for span in data["spans"])
            for key, value in data["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            path.unlink()
            merged += 1
        return merged
