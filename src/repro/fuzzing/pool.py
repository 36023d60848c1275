"""Sharded harness execution across a pool of worker processes.

Each worker owns one process-local :class:`~repro.soc.harness.DutHarness`
(DUT core + golden ISS), built **once** by the pool initializer from a
pickled factory — construction cost (condition-coverage elaboration) is paid
per worker, not per test.  Batches are split into contiguous chunks, chunks
are simulated concurrently, and the parent stitches the chunk results back
together in submission order, so downstream consumers cannot tell the
difference from serial execution (see ``repro.fuzzing.executor``).

Design notes
------------
- The factory must be a picklable zero-arg callable, e.g.
  :class:`~repro.soc.harness.HarnessFactory`; live harness objects are
  rejected because shipping one per task would swamp the IPC channel and
  resurrect the per-test construction cost this module exists to remove.
- Workers are reused across batches: the pool spins up lazily on the first
  ``run_batch`` and lives until :meth:`ShardedExecutor.close`.
- Result transfer is bitset-packed: each chunk's coverage reports cross the
  pipe as packed bitmaps (one small bytes payload per report) rather than
  pickled per-arm frozensets, which shrinks the result pickle and lifts the
  sharded speedup ceiling on IPC-bound machines (``BENCH_harness.json``).
- A worker raising mid-chunk fails only that batch: remaining chunk futures
  are cancelled, the original exception propagates to the caller, and the
  pool stays usable for the next batch.
- A worker *dying* (hard crash) surfaces as ``BrokenProcessPool`` — and the
  executor **self-heals**: the dead pool is discarded, a fresh one is
  spawned, and the batch's chunks are resubmitted whole (a batch mutates
  nothing until its results are folded, so resubmission is idempotent), up
  to ``max_retries`` rebuilds per batch before the error propagates.
  ``close()`` is safe and idempotent even when the pool died first — a
  broken pool is discarded, never re-raised from shutdown.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.fuzzing.executor import (
    DifferentialResult,
    HarnessExecutor,
    run_chunk,
)

#: Process-local harness, installed by :func:`_init_worker` in each worker.
_WORKER_HARNESS = None


def _init_worker(factory) -> None:
    global _WORKER_HARNESS
    _WORKER_HARNESS = factory()


def _run_chunk(bodies: list[list[int]]) -> list[DifferentialResult]:
    """Worker-side task: differentially simulate one contiguous chunk.

    A chunk is also the batched engines' lane group (see
    :func:`~repro.fuzzing.executor.run_chunk`), so pool chunking and
    laning compose (see the ROADMAP's "Choosing lane widths (golden +
    DUT)" guidance).
    """
    return run_chunk(_WORKER_HARNESS, bodies)


def default_workers() -> int:
    """A sensible worker count for this machine (physical parallelism)."""
    return max(1, os.cpu_count() or 1)


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`ShardedExecutor`."""

    batches: int = 0
    tests: int = 0
    chunks: int = 0
    #: Pools discarded and respawned after worker death (self-healing).
    rebuilds: int = 0


class ShardedExecutor(HarnessExecutor):
    """Process-pool harness executor (see module docstring).

    Parameters
    ----------
    harness_factory:
        Picklable zero-arg callable building a ``DutHarness``
        (:class:`~repro.soc.harness.HarnessFactory` is the canonical one);
        each worker builds its own harness from it.
    n_workers:
        Pool size.  Defaults to the machine's CPU count.
    chunk_size:
        Bodies per worker task.  Defaults to an even split of the batch over
        the workers (one task per worker), which minimises IPC; set it lower
        to improve load balance when per-test simulation cost is very skewed.
    max_retries:
        Pool rebuilds allowed per batch after worker death
        (``BrokenProcessPool``): the dead pool is replaced and the batch's
        chunks resubmitted whole.  ``0`` restores the old fail-fast
        behaviour (the breakage propagates on first occurrence).
    """

    def __init__(self, harness_factory, n_workers: int | None = None,
                 chunk_size: int | None = None, max_retries: int = 1) -> None:
        if not callable(harness_factory):
            raise TypeError(
                "ShardedExecutor needs a picklable zero-arg factory (e.g. "
                "repro.soc.harness.HarnessFactory), not a live harness; "
                "workers build their own harness from it"
            )
        self._factory = harness_factory
        self.n_workers = n_workers if n_workers is not None else default_workers()
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.chunk_size = chunk_size
        self.max_retries = max_retries
        self.stats = PoolStats()
        self._pool: ProcessPoolExecutor | None = None
        self._total_arms: int | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ShardedExecutor is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_init_worker,
                initargs=(self._factory,),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the current pool (dead or alive) without propagating its
        shutdown errors; the next ``_ensure_pool`` spawns a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self) -> None:
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                # A pool whose workers died can raise from shutdown; close()
                # must stay safe and idempotent regardless.
                pass

    # -- interface -------------------------------------------------------------

    @property
    def total_arms(self) -> int:
        if self._total_arms is None:
            # One throwaway parent-side harness for the static metadata; only
            # the int is kept — per-test simulation happens in the workers.
            self._total_arms = self._factory().total_arms
        return self._total_arms

    def _lane_width(self) -> int:
        """Largest lane-group width the factory's harnesses use.

        Factories without lane knobs (custom callables, stubs) report 0.
        """
        factory = self._factory
        return max(int(getattr(factory, "golden_lanes", 0) or 0),
                   int(getattr(factory, "dut_lanes", 0) or 0))

    def _chunks(self, bodies: list[list[int]]) -> list[list[list[int]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(bodies) // self.n_workers))  # ceil division
            # A chunk is also the lane group (see _run_chunk): splitting a
            # batch below the configured lane width would leave the batched
            # engines running partially-filled groups, so the even split
            # only shrinks chunks down to that width, never below it.
            size = max(size, self._lane_width())
        return [bodies[i:i + size] for i in range(0, len(bodies), size)]

    def run_batch(self, bodies: list[list[int]]) -> list[DifferentialResult]:
        if not bodies:
            return []
        chunks = self._chunks(bodies)
        rebuilds = 0
        while True:
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            try:
                # Gather in submission order: chunks are contiguous slices,
                # so concatenating their results reconstructs the batch order
                # even though the chunks *executed* concurrently.
                results: list[DifferentialResult] = []
                for future in futures:
                    results.extend(future.result())
                break
            except BrokenProcessPool:
                # Worker death.  Self-heal: discard the dead pool, spawn a
                # fresh one, resubmit this batch's chunks whole (a batch
                # mutates nothing until folded, so resubmission is
                # idempotent).
                if rebuilds >= self.max_retries:
                    raise
                rebuilds += 1
                self._discard_pool()
                self.stats.rebuilds += 1
                if self.sink.enabled:
                    self.sink.emit("pool_rebuilt", layer="executor",
                                   reason="worker death during a batch")
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        self.stats.batches += 1
        self.stats.tests += len(bodies)
        self.stats.chunks += len(chunks)
        return results
