"""The process-pool supervisor behind the parallel executor and the sweep.

Both callers hand :meth:`PoolSupervisor.run` a list of picklable jobs and
get back, per job, its result or a :class:`Lost`.  One fault contract:

- each attempt of a job gets ``timeout_s`` from when the driver starts
  waiting on it; a timeout or worker death charges one attempt to that job,
  banks every job that already finished, recycles the pool and resubmits
  only the unresolved jobs, after a seeded, capped equal-jitter backoff;
- a job out of its ``retries`` is :class:`Lost`.  A job's fate depends on
  its own attempts only, so a stage recycles at most
  ``len(jobs) * (retries + 1)`` times and no job costs a sibling its result;
- any other exception raised by a job propagates.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs import NULL_OBS

__all__ = ["Lost", "PoolSupervisor"]

_PENDING = object()
#: Seconds between ``on_poll`` calls while waiting on a job.
_POLL_S = 0.5


@dataclass(frozen=True)
class Lost:
    """A job that used up its attempts without delivering a result."""

    reason: str  # "timeout" | "worker_death"
    attempts: int
    detail: str


class PoolSupervisor:
    """Runs job lists on a ``ProcessPoolExecutor`` built lazily from
    ``max_workers``/``initializer``/``initargs``.

    ``timeout_s`` (``None``: wait forever) bounds each attempt and
    ``retries`` counts extra attempts.  Before a resubmission the
    supervisor sleeps ``min(cap, retry_backoff_s * 2**(k-1))`` for attempt
    ``k``, scaled into ``[50%, 100%]`` by a draw from a stream seeded with
    ``backoff_seed``; 0 resubmits at once.  Recycles and backoffs are
    traced through ``obs``.  ``prefix`` names the caller's options in
    validation errors (``"task"`` → ``task_timeout_s``).
    """

    # ceiling on a single backoff sleep, however many retries accumulate
    BACKOFF_CAP_S = 30.0

    def __init__(
        self,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        timeout_s: Optional[float] = None,
        retries: int = 1,
        retry_backoff_s: float = 0.0,
        backoff_seed: int = 0,
        obs=NULL_OBS,
        prefix: str = "task",
    ) -> None:
        if retries < 0:
            raise ValueError(f"{prefix}_retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"{prefix}_timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.obs = obs
        self._backoff_rng = np.random.default_rng(backoff_seed)
        self._pool: Optional[ProcessPoolExecutor] = None

    def run(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        label: str = "",
        on_poll: Optional[Callable[[List[int]], None]] = None,
    ) -> List[Any]:
        """``fn(job)`` for every job, in job order: each entry is the
        result or a :class:`Lost`.

        ``label`` tags trace events.  With ``on_poll``, waiting happens in
        ``_POLL_S`` slices and ``on_poll`` receives the indices of the jobs
        still unresolved after each slice.
        """
        results: List[Any] = [_PENDING] * len(jobs)
        attempts = [0] * len(jobs)
        futures: Dict[int, Any] = {}

        def unresolved() -> List[int]:
            return [j for j, r in enumerate(results) if r is _PENDING]

        def poll() -> None:
            on_poll(unresolved())

        self._submit(fn, jobs, unresolved(), futures)
        recycles = 0
        for i in range(len(jobs)):
            while results[i] is _PENDING:
                try:
                    results[i] = self._wait(futures[i], on_poll and poll)
                    break
                except FuturesTimeout:
                    reason = "timeout"
                except BrokenExecutor:
                    reason = "worker_death"
                attempts[i] += 1
                self._bank(futures, results)
                if results[i] is _PENDING and attempts[i] > self.retries:
                    detail = self._detail(reason, attempts[i])
                    results[i] = Lost(reason, attempts[i], detail)
                recycles += 1
                self._emit("pool_recycle", {"stage": label, "recycles": recycles})
                self.close(wait=False)
                if unresolved():
                    self._backoff_sleep(attempts[i], label)
                    self._submit(fn, jobs, unresolved(), futures)
        return results

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; a worker stuck in a hung job is abandoned
        (it exits once the job returns)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # the loop's steps
    # ------------------------------------------------------------------
    def _submit(self, fn, jobs, indices, futures) -> None:
        if self._pool is None and indices:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        for j in indices:
            futures[j] = self._pool.submit(fn, jobs[j])

    def _wait(self, future, poll):
        """The future's result within one attempt's deadline; raises
        ``FuturesTimeout`` once the deadline passes."""
        deadline = time.perf_counter() + (self.timeout_s or math.inf)
        while True:
            wait = min(deadline - time.perf_counter(), _POLL_S if poll else math.inf)
            try:
                return future.result(timeout=None if wait == math.inf else max(wait, 0))
            except FuturesTimeout:
                if poll is not None:
                    poll()
                if time.perf_counter() >= deadline:
                    raise

    @staticmethod
    def _bank(futures, results) -> None:
        """Keep the results of jobs that already finished before a recycle."""
        for j, fut in futures.items():
            done = fut.done() and not fut.cancelled()
            if results[j] is _PENDING and done and fut.exception() is None:
                results[j] = fut.result()

    def _detail(self, reason: str, attempts: int) -> str:
        if reason == "timeout":
            return f"no result within {self.timeout_s}s after {attempts} attempt(s)"
        return f"kept crashing its worker process ({attempts} attempt(s))"

    def _emit(self, event: str, attrs: dict) -> None:
        """A stage-scoped trace event plus its ``runtime/<event>s`` counter."""
        if self.obs.enabled:
            self.obs.tracer.event(event, scope="stage", attrs=attrs)
            if self.obs.metrics.enabled:
                self.obs.metrics.counter(f"runtime/{event}s").inc()

    def _backoff_sleep(self, attempt: int, label: str) -> float:
        """Sleep the backoff before a resubmission; returns the seconds
        slept (0.0 when backoff is disabled)."""
        if self.retry_backoff_s <= 0:
            return 0.0
        base = min(
            self.BACKOFF_CAP_S, self.retry_backoff_s * (2.0 ** (attempt - 1))
        )
        # "equal jitter": half the delay is deterministic, half scaled by a
        # seeded uniform draw — spreads retries without collapsing to zero
        delay = base * (0.5 + 0.5 * float(self._backoff_rng.random()))
        self._emit(
            "retry_backoff", {"stage": label, "attempt": attempt, "backoff_s": delay}
        )
        time.sleep(delay)
        return delay

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass
