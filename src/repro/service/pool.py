"""Worker-pool execution: real wall-clock Map-Reduce for the prover.

:class:`~repro.distributed.sharded.DistributedF2Prover` demonstrates the
paper's Section 7 observation — each round message is an inner product
computable shard-by-shard — with deterministic *simulated* workers.
This module runs the same workers on a :class:`concurrent.futures
.ThreadPoolExecutor`: NumPy's array kernels (the limb inner products and
folds that dominate each round) release the GIL, so the map step
genuinely overlaps on multi-core hosts while the reduce step stays the
coordinator's 3-word sum.

Everything about the proof is unchanged: the map step preserves worker
order, each worker owns a disjoint shard, and the coordinator reduces in
worker order — so the transcript is byte-identical to the sequential
coordinator's (asserted in the tests), only the wall-clock differs.

The map step is also the prover's failure domain: a pool can die
mid-round (via interpreter shutdown or an injected broken executor).
Because every per-worker task is a deterministic function of that
worker's shard state, a lost task is simply re-executed: the coordinator
tracks which workers completed, rebuilds the pool, and re-runs only the
unfinished ones — falling back to inline (in-process) execution if pools
keep dying.  Shard state is mutated only *after* a task function's
NumPy work completes per worker, and each worker is owned by exactly one
task, so re-running an unfinished worker's task never double-applies.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ThreadPoolExecutor,
)
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.distributed.sharded import DistributedF2Prover
from repro.field.modular import PrimeField
from repro.field.vectorized import canonical_table

_log = obs.get_logger("service.pool")


class PoolConfigError(ValueError):
    """A worker-pool configuration that cannot run."""


class PooledDistributedF2Prover(DistributedF2Prover):
    """The sharded F2 prover with its map step on a thread pool.

    A drop-in replacement for :class:`DistributedF2Prover` (same
    messages, same verifier): ``begin_proof``, the per-round partial
    messages and the folds fan out across ``max_threads`` OS threads.
    Use as a context manager, or call :meth:`shutdown` when done.

    ``executor_factory`` is a fault-tolerance test hook: any zero-arg
    callable returning an Executor.  The chaos tests inject executors
    that break mid-map and assert the prover recovers with the same
    transcript bytes.
    """

    #: Pool rebuilds tolerated per map step before degrading to inline
    #: execution for the rest of this prover's life.
    MAX_POOL_RESTARTS = 2

    def __init__(self, field: PrimeField, u: int, num_workers: int = 4,
                 backend=None, max_threads: Optional[int] = None,
                 executor_factory: Optional[Callable[[], object]] = None):
        super().__init__(field, u, num_workers=num_workers, backend=backend)
        if max_threads is not None:
            if max_threads < 1:
                raise PoolConfigError(
                    "max_threads must be >= 1, got %d" % max_threads
                )
            if max_threads > num_workers:
                raise PoolConfigError(
                    "max_threads=%d exceeds num_workers=%d: each thread "
                    "maps over whole workers, extra threads would idle — "
                    "raise num_workers or lower max_threads"
                    % (max_threads, num_workers)
                )
        self.max_threads = max_threads or min(
            num_workers, os.cpu_count() or 1
        )
        self._executor_factory = executor_factory
        self._executor = None
        #: Recovery counters (monotone; read by tests and loadgen).
        self.pool_failures = 0
        self.pool_restarts = 0
        self._degraded = False

    # -- pool lifecycle ------------------------------------------------------

    @property
    def effective_mode(self) -> str:
        """Where the map step currently runs: thread or inline."""
        return "inline" if self._degraded else "thread"

    def _make_executor(self):
        if self._executor_factory is not None:
            return self._executor_factory()
        return ThreadPoolExecutor(
            max_workers=self.max_threads,
            thread_name_prefix="repro-shard",
        )

    @property
    def executor(self):
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=True)
            except Exception:
                pass
            self._executor = None

    def __enter__(self) -> "PooledDistributedF2Prover":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- fault-tolerant map --------------------------------------------------

    def _discard_executor(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            try:
                executor.shutdown(wait=False)
            except Exception:
                pass

    def _run_tasks(self, fn: Callable, items: Sequence) -> List:
        """``map(fn, items)`` surviving executor death.

        Submits one future per item; on :class:`BrokenExecutor` (a dead
        pool — ``BrokenThreadPool`` is its subclass) or on submission
        refusal, discards the pool, counts the failure, and re-runs only
        the items whose futures never completed — on a fresh pool, or
        inline once :attr:`MAX_POOL_RESTARTS` rebuilds have been spent.
        Results come back in item order regardless of which attempt
        produced them, preserving the deterministic reduce order.
        """
        items = list(items)
        results: List = [None] * len(items)
        done = [False] * len(items)
        tracer = obs.get_tracer()
        if tracer.enabled and obs.current() is not None:
            map_span = tracer.span("pool.map", tasks=len(items),
                                   mode=self.effective_mode)
        else:
            map_span = obs.NOOP_SPAN
        with map_span:
            while not all(done):
                if self._degraded:
                    for i, item in enumerate(items):
                        if not done[i]:
                            results[i] = fn(item)
                            done[i] = True
                    break
                pending = [i for i in range(len(items)) if not done[i]]
                futures = []
                broke = False
                for i in pending:
                    try:
                        futures.append(
                            (i, self.executor.submit(fn, items[i]))
                        )
                    except (BrokenExecutor, RuntimeError):
                        broke = True
                        break
                # Harvest whatever was accepted before declaring the pool
                # dead: a completed task's result must not be thrown away,
                # or its (possibly stateful) work would run twice.
                for i, future in futures:
                    try:
                        results[i] = future.result()
                        done[i] = True
                    except (BrokenExecutor, RuntimeError, CancelledError):
                        broke = True
                if broke:
                    self._note_pool_failure()
                    rerun = sum(1 for flag in done if not flag)
                    if rerun:
                        obs.counter(
                            "repro_pool_task_reruns_total").inc(rerun)
        return results

    def _note_pool_failure(self) -> None:
        self.pool_failures += 1
        obs.counter("repro_pool_failures_total").inc()
        self._discard_executor()
        if self.pool_restarts >= self.MAX_POOL_RESTARTS:
            # Graceful degradation: the proof continues in-process.
            # Slower, never wrong — the tasks are deterministic, so the
            # transcript bytes do not change.
            self._degraded = True
            obs.counter("repro_pool_degradations_total", to="inline").inc()
            _log.warning("pool.degraded", to="inline",
                         failures=self.pool_failures)
        else:
            self.pool_restarts += 1
            obs.counter("repro_pool_restarts_total").inc()
            _log.info("pool.rebuilt", restarts=self.pool_restarts)

    # -- parallel map steps --------------------------------------------------

    def begin_proof(self) -> None:
        self._run_tasks(lambda w: w.begin_proof(), self.workers)
        self._coordinator_table = None
        self._rounds_done = 0

    def round_message(self) -> List[int]:
        if self._coordinator_table is not None:
            return super().round_message()
        # Map in parallel; _run_tasks preserves worker order, so the
        # reduce below sums partials exactly as the sequential
        # coordinator does — byte-identical messages.
        partials = self._run_tasks(
            lambda w: w.partial_message(), self.workers
        )
        be = self.backend
        p = self.field.p
        if getattr(be, "vectorized", False):
            return be.row_sums(
                be.stack([[g[c] for g in partials] for c in range(3)])
            )
        return [sum(g[c] for g in partials) % p for c in range(3)]

    def receive_challenge(self, r: int) -> None:
        if self._coordinator_table is not None:
            super().receive_challenge(r)
            return
        self._run_tasks(lambda w: w.fold(r), self.workers)
        self._rounds_done += 1
        if self._rounds_done == self._shard_bits:
            self._coordinator_table = canonical_table(
                self.backend,
                self.field,
                [worker.residual[0] for worker in self.workers],
            )

    def process_stream(self, updates) -> None:
        """Bucket updates per shard, then ingest shards in parallel."""
        buckets: List[List] = [[] for _ in self.workers]
        shard_bits = self._shard_bits
        u = self.u
        for i, delta in updates:
            if not 0 <= i < u:
                raise ValueError("key %d outside universe [0, %d)" % (i, u))
            buckets[i >> shard_bits].append((i, delta))

        def ingest(pair):
            worker, bucket = pair
            for i, delta in bucket:
                worker.process(i, delta)

        self._run_tasks(ingest, list(zip(self.workers, buckets)))
