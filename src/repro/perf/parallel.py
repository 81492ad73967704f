"""A chunked process-pool executor with a serial fallback.

:class:`ParallelMap` is the one place in the codebase that decides *how* a
row-wise computation is spread across cores.  Callers hand
:meth:`ParallelMap.map_table` a picklable per-chunk function, a
:class:`~repro.dataset.table.Table` and an optional worker initializer
(for expensive per-worker state such as a gazetteer index, built once per
process instead of once per row), and get one result per row back in row
order.  Its one production caller is address resolution in
:class:`~repro.preprocessing.address_cleaner.AddressCleaner`: each worker
resolves its slice of distinct addresses with one batched gazetteer
lookup.  Whole-table NumPy work (``Table.to_matrix``, ``Table.aggregate``)
takes under a millisecond and runs inline: encoding the table into shared
memory and starting a pool would cost hundreds of times more.

Design points:

* **columnar dispatch** — the whole table is encoded once into one
  shared-memory block (see :mod:`repro.perf.shm`) and workers receive
  only ``(shm_name, col_specs, row_range)`` descriptors, so the per-chunk
  IPC payload is a few hundred bytes regardless of row count;
* **chunked sharding** — rows are split into contiguous ranges
  (:meth:`ParallelMap.shard_ranges`), so the output order is trivially
  the input order;
* **serial fallback** — with ``n_jobs <= 1`` or fewer rows than
  ``min_parallel_items`` the map runs inline (after calling the
  initializer locally), so small inputs never pay process start-up costs
  and single-job configurations stay exactly as debuggable as before;
* **crash resilience** — a worker process dying (a broken pool, or an
  injected :class:`~repro.faults.plan.WorkerCrashError`) does not fail the
  map: the whole table is recomputed serially and the degradation is
  counted in ``fallbacks`` for the caller to log.  Exceptions raised by
  the *mapped function itself* still propagate unchanged — a crash of the
  infrastructure is recoverable, a bug in the computation is not;
* **determinism** — the parallel path computes the same function on the
  same rows; only scheduling changes, never results.  The serial
  fallback therefore returns bit-identical output.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..faults.plan import PARALLEL_WORKER, FaultInjector, FaultKind, WorkerCrashError
from .shm import SharedTable, TableSlice, attach_slice

__all__ = ["ParallelMap"]

#: Below this many items the process pool costs more than it saves.
DEFAULT_MIN_PARALLEL_ITEMS = 512

#: Chunks per worker: >1 so uneven chunks still balance across the pool.
_CHUNKS_PER_JOB = 4

#: Seconds an injected straggler chunk sleeps before doing its work.
_INJECTED_STRAGGLER_S = 0.05


def _run_table_chunk(
    payload: tuple[Callable[[Any], Iterable[Any]], TableSlice, str | None]
) -> list:
    """Decode one shared-memory slice and apply ``chunk_func`` to it.

    *fault* is the injected behaviour decided (deterministically) in the
    parent before dispatch: ``"crash"`` kills the chunk, ``"delay"`` makes
    it a straggler.  Keeping the decision in the parent means the injector
    never has to cross the process boundary.  Injected crashes fire
    *before* the worker attaches, so a crashed worker never holds a
    mapping — segment cleanup stays entirely with the creating parent.
    """
    chunk_func, table_slice, fault = payload
    if fault == "crash":
        raise WorkerCrashError("injected worker crash")
    if fault == "delay":
        time.sleep(_INJECTED_STRAGGLER_S)
    return list(chunk_func(attach_slice(table_slice)))


@dataclass
class ParallelMap:
    """Map a function over table rows with an optional process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (the default) runs serially; ``0`` or a
        negative value resolves to ``os.cpu_count()``.
    min_parallel_items:
        Inputs smaller than this run serially even when ``n_jobs > 1``.
    injector:
        Optional fault injector watching the ``parallel.worker`` site
        (one arrival per dispatched chunk).
    """

    n_jobs: int = 1
    min_parallel_items: int = DEFAULT_MIN_PARALLEL_ITEMS
    injector: FaultInjector | None = None

    def __post_init__(self):
        #: Times the parallel path crashed and was recomputed serially.
        self.fallbacks = 0
        #: Human-readable reason of the most recent fallback (or None).
        self.last_fallback_reason: str | None = None
        #: Seconds spent encoding tables into shared memory (map_table).
        self.encode_seconds = 0.0
        #: Bytes placed in shared-memory blocks (map_table).
        self.shm_bytes = 0
        #: Pickled bytes actually shipped to workers as descriptors.
        self.descriptor_bytes = 0

    def resolve_jobs(self) -> int:
        """The effective worker count (``0``/negative -> all cores)."""
        if self.n_jobs <= 0:
            return os.cpu_count() or 1
        return self.n_jobs

    def should_parallelize(self, n_items: int) -> bool:
        """Whether *n_items* would actually be fanned out to a pool."""
        return self.resolve_jobs() > 1 and n_items >= self.min_parallel_items

    def shard_ranges(self, n_rows: int) -> list[tuple[int, int]]:
        """Contiguous, order-preserving ``[lo, hi)`` row ranges.

        Sized so each worker receives about ``_CHUNKS_PER_JOB`` of them;
        one ``parallel.worker`` fault arrival is announced per range.
        """
        if n_rows == 0:
            return []
        size = max(1, -(-n_rows // (self.resolve_jobs() * _CHUNKS_PER_JOB)))
        return [
            (lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)
        ]

    def _check_fork_safety(self) -> None:
        """Fail fast if this thread forks a pool while holding a lock.

        Only active when the lock sanitizer is armed (explicitly or via
        ``REPRO_SANITIZE_LOCKS``): a worker forked while the parent holds
        a sanitized lock inherits it locked forever.  The dynamic twin of
        the PAR001/PAR002 fork-safety rules.
        """
        from ..checks import lockdep as _lockdep

        dep = _lockdep.resolve(None)
        if dep is not None:
            dep.check_fork("ParallelMap pool spawn")

    def _chunk_fault(self) -> str | None:
        """The injected behaviour of the next dispatched chunk, if any."""
        if self.injector is None:
            return None
        kind = self.injector.arrive(PARALLEL_WORKER)
        if kind is FaultKind.CRASH:
            return "crash"
        if kind is FaultKind.DELAY:
            return "delay"
        return None

    def _serial_table(self, chunk_func, table, initializer, initargs) -> list:
        """The inline path: one call over the whole table."""
        if initializer is not None:
            initializer(*initargs)
        return list(chunk_func(table))

    def map_table(
        self,
        chunk_func: Callable[[Any], Iterable[Any]],
        table,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> list:
        """Fan *table* rows out through shared memory, one slice per chunk.

        *chunk_func* receives a :class:`~repro.dataset.table.Table` holding
        a contiguous row slice and must return one result per row, in row
        order; ``map_table`` returns the concatenation across slices — for
        a row-wise *chunk_func* this is exactly ``list(chunk_func(table))``.

        The rows are never pickled: the whole table is encoded once into a
        shared-memory block and workers receive only slice descriptors.
        *initializer* runs once per worker before any chunk (and once
        inline on the serial path), so it is the place to build expensive
        shared state.  A pool failure recomputes the whole table inline
        (bit-identical) and counts in ``fallbacks``; exceptions raised by
        *chunk_func* propagate unchanged.  The shared block is always
        closed and unlinked in a ``finally``, so no segment outlives the
        call even when workers crash.
        """
        n = table.n_rows
        if n == 0 or not self.should_parallelize(n):
            return self._serial_table(chunk_func, table, initializer, initargs)
        self._check_fork_safety()
        started = time.perf_counter()
        try:
            shared = SharedTable.create(table)
        except (OSError, ValueError) as exc:
            # /dev/shm full or unavailable: degrade to the serial path
            self.fallbacks += 1
            self.last_fallback_reason = f"{type(exc).__name__}: {exc}"
            return self._serial_table(chunk_func, table, initializer, initargs)
        self.encode_seconds += time.perf_counter() - started
        self.shm_bytes += shared.nbytes
        try:
            payloads = [
                (chunk_func, shared.descriptor(rng), self._chunk_fault())
                for rng in self.shard_ranges(n)
            ]
            self.descriptor_bytes += sum(
                len(pickle.dumps(slice_)) for __, slice_, __unused in payloads
            )
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.resolve_jobs(), len(payloads)),
                    initializer=initializer,
                    initargs=initargs,
                ) as pool:
                    results = list(pool.map(_run_table_chunk, payloads))
            except (WorkerCrashError, BrokenProcessPool, OSError) as exc:
                self.fallbacks += 1
                self.last_fallback_reason = f"{type(exc).__name__}: {exc}"
                return self._serial_table(
                    chunk_func, table, initializer, initargs
                )
        finally:
            shared.close()
            shared.unlink()
        return [item for chunk in results for item in chunk]
