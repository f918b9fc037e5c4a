"""Client-execution runtime: serial and process-parallel executors.

The round engine expresses per-client work as *stages* — "run this client
method with these kwargs across these participants".  An :class:`Executor`
runs one stage and reports per-stage wall time plus any irrecoverable task
failures.  Two implementations:

- :class:`SerialExecutor` — inline, in participant order; exactly the
  behaviour of the historical per-client ``for`` loops.
- :class:`ParallelExecutor` — fans tasks out to a process pool.  Model
  state and RNG state travel with each task (see :mod:`repro.runtime.task`),
  so results are bit-identical to serial execution; the driver folds the
  returned state back into its clients in participant order.

Fault tolerance (parallel only): each task gets ``task_timeout_s`` to
deliver a result and ``task_retries`` extra attempts, enforced by the
:class:`~repro.runtime.pool.PoolSupervisor` the sweep scheduler uses too.
A task that keeps killing its worker is re-executed inline; a task that
exhausts its timeout budget becomes a :class:`TaskFailure` — the round
engine records the client as a runtime dropout and the round goes on.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..nn.serialize import deserialize_state, serialize_state
from ..obs import NULL_OBS
from ..obs.metrics import DEFAULT_TIME_BUCKETS
from .pool import Lost, PoolSupervisor
from .task import ClientSpec, ClientTask, TaskFailure, TaskResult
from .worker import init_worker, resolve_kwargs, run_task

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "make_executor"]

Outcome = Union[TaskResult, TaskFailure]


class Executor:
    """Runs per-client stages and accounts per-stage wall time."""

    name = "base"

    def __init__(self) -> None:
        self._federation = None
        self._stage_times: Dict[str, float] = {}
        self._obs = NULL_OBS

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, federation) -> "Executor":
        """Attach the federation whose clients this executor will drive.

        Also adopts the federation's observability bundle, so stages are
        traced and task metrics published when the run is instrumented.
        """
        self._federation = federation
        self._obs = getattr(federation, "obs", None) or NULL_OBS
        return self

    def close(self) -> None:
        """Release worker resources (no-op for inline executors)."""

    # ------------------------------------------------------------------
    # the stage contract
    # ------------------------------------------------------------------
    def run_stage(
        self,
        clients: Sequence,
        method: str,
        kwargs: Optional[dict] = None,
        stage: Optional[str] = None,
    ) -> Tuple[List[Any], List[TaskFailure]]:
        """Run ``method(**kwargs)`` on every client.

        Returns ``(values, failures)``: ``values`` holds the return values
        of the clients whose task succeeded, in input order; ``failures``
        lists the clients that irrecoverably failed (always empty for
        inline execution).  The stage is traced, attributed to the
        profiler, published and timed here, once for every executor.
        """
        stage = stage or method
        clients = list(clients)
        span = self._obs.tracer.span(
            "stage",
            scope="stage",
            attrs={"stage": stage, "clients": len(clients), "executor": self.name},
        )
        profiler = self._obs.profiler
        profile = nullcontext() if profiler is None else profiler.stage(stage)
        start = time.perf_counter()
        with span, profile:
            outcomes = self._execute(clients, method, kwargs, stage)
            self._publish_outcomes(stage, outcomes)
        seconds = time.perf_counter() - start
        self._stage_times[stage] = self._stage_times.get(stage, 0.0) + seconds
        values = [o.value for o in outcomes if isinstance(o, TaskResult)]
        failures = [o for o in outcomes if isinstance(o, TaskFailure)]
        return values, failures

    def _execute(self, clients, method, kwargs, stage) -> List[Outcome]:
        """One outcome per client, in input order; inline by default."""
        return [self._run_inline(c, method, kwargs) for c in clients]

    # ------------------------------------------------------------------
    # observability hooks (all no-ops unless the run is instrumented)
    # ------------------------------------------------------------------
    def _publish_outcomes(self, stage: str, outcomes: Sequence[Outcome]) -> None:
        """Emit one client-scoped trace event per task outcome, plus the
        ``runtime/client_task_seconds`` histogram and failure counters."""
        obs = self._obs
        if not obs.enabled:
            return
        metrics = obs.metrics
        hist = (
            metrics.histogram(
                "runtime/client_task_seconds", buckets=DEFAULT_TIME_BUCKETS
            )
            if metrics.enabled
            else None
        )
        for outcome in outcomes:
            if isinstance(outcome, TaskFailure):
                obs.tracer.event(
                    "task_failure",
                    scope="client",
                    attrs={
                        "stage": stage,
                        "client_id": outcome.client_id,
                        "reason": outcome.reason,
                        "detail": outcome.detail,
                    },
                )
                if metrics.enabled:
                    metrics.counter("runtime/task_failures").inc()
            else:
                obs.tracer.event(
                    "client_task",
                    scope="client",
                    attrs={
                        "stage": stage,
                        "client_id": outcome.client_id,
                        "dur_s": outcome.duration_s,
                    },
                )
                if hist is not None:
                    hist.observe(outcome.duration_s)

    def pop_stage_times(self) -> Dict[str, float]:
        """Return accumulated per-stage seconds and reset the ledger."""
        times, self._stage_times = self._stage_times, {}
        return times

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _resolve_inline_kwargs(self, kwargs: Optional[dict]) -> dict:
        shared = {}
        if self._federation is not None:
            shared["public_x"] = self._federation.public_x
        return resolve_kwargs(dict(kwargs or {}), shared)

    def _run_inline(self, client, method: str, kwargs: Optional[dict]) -> TaskResult:
        """Execute one stage entry directly on the driver's client object."""
        start = time.perf_counter()
        with self._obs.profile_model(getattr(client, "model_name", None)):
            value = getattr(client, method)(**self._resolve_inline_kwargs(kwargs))
        return TaskResult(
            client_id=client.client_id,
            value=value,
            duration_s=time.perf_counter() - start,
        )


class SerialExecutor(Executor):
    """Inline execution in participant order — the historical behaviour."""

    name = "serial"


class ParallelExecutor(Executor):
    """Process-pool execution with fault-tolerant workers.

    ``max_workers`` defaults to ``min(num_clients, os.cpu_count())``.
    ``task_timeout_s``, ``task_retries``, ``retry_backoff_s`` and
    ``backoff_seed`` (the federation seed via :func:`make_executor`) are
    the :class:`~repro.runtime.pool.PoolSupervisor`'s timeout, retries and
    seeded backoff.  This class builds tasks and applies results; a task
    lost to timeouts becomes a :class:`TaskFailure` (a runtime dropout),
    one that keeps killing its workers reruns inline.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout_s: Optional[float] = None,
        task_retries: int = 1,
        retry_backoff_s: float = 0.0,
        backoff_seed: int = 0,
    ) -> None:
        super().__init__()
        self._supervisor = PoolSupervisor(
            timeout_s=task_timeout_s,
            retries=task_retries,
            retry_backoff_s=retry_backoff_s,
            backoff_seed=backoff_seed,
        )
        self.max_workers = max_workers
        self.task_timeout_s = task_timeout_s
        self.task_retries = task_retries
        self.retry_backoff_s = retry_backoff_s
        self._warned_inline = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, federation) -> "ParallelExecutor":
        """Also shapes the worker pool: size, obs, and the per-client
        specs every worker installs at start-up."""
        super().bind(federation)
        supervisor = self._supervisor
        supervisor.obs = self._obs
        supervisor.max_workers = max(
            1, self.max_workers or min(len(federation.clients), os.cpu_count() or 1)
        )
        supervisor.initializer = init_worker
        supervisor.initargs = self._build_specs()
        return self

    def _build_specs(self) -> Tuple[Dict[int, ClientSpec], Dict[str, Any]]:
        specs: Dict[int, ClientSpec] = {}
        for client in self._federation.clients:
            if client.model_name is None:
                continue
            specs[client.client_id] = ClientSpec(
                client_id=client.client_id,
                model_name=client.model_name,
                num_classes=client.num_classes,
                image_shape=tuple(client.x_train.shape[1:]),
                feature_dim=client.model.feature_dim,
                x_train=client.x_train,
                y_train=client.y_train,
                x_test=client.x_test,
                y_test=client.y_test,
            )
        shared = {"public_x": self._federation.public_x}
        return specs, shared

    def close(self) -> None:
        self._supervisor.close()

    # ------------------------------------------------------------------
    # task construction / result application
    # ------------------------------------------------------------------
    def _make_task(self, client, method: str, kwargs: dict, stage: str) -> ClientTask:
        return ClientTask(
            client_id=client.client_id,
            method=method,
            kwargs=kwargs,
            state_blob=serialize_state(client.model.state_dict(), dtype=None),
            rng_state=client.rng_state(),
            stage=stage,
            profile=self._obs.profiler is not None,
        )

    def _apply_result(self, client, result: TaskResult) -> None:
        """Fold a worker's state (and profile aggregate) back into the driver."""
        if result.state_blob is not None:
            client.model.load_state_dict(
                deserialize_state(result.state_blob, dtype=None)
            )
        if result.rng_state is not None:
            client.set_rng_state(result.rng_state)
        if result.profile and self._obs.profiler is not None:
            self._obs.profiler.merge(result.profile)

    # ------------------------------------------------------------------
    # the stage
    # ------------------------------------------------------------------
    def _execute(self, clients, method, kwargs, stage) -> List[Outcome]:
        if any(c.model_name is None for c in clients):
            # hand-built clients without a registry spec cannot be shipped
            if not self._warned_inline:
                warnings.warn(
                    "ParallelExecutor: client(s) without model_name; "
                    "running stages inline",
                    RuntimeWarning,
                )
                self._warned_inline = True
            return super()._execute(clients, method, kwargs, stage)

        tasks = [
            self._make_task(c, method, dict(kwargs or {}), stage) for c in clients
        ]
        outcomes: List[Outcome] = []
        for client, got in zip(clients, self._supervisor.run(run_task, tasks, stage)):
            if not isinstance(got, Lost):
                self._apply_result(client, got)
            elif got.reason == "timeout":
                got = TaskFailure(client.client_id, stage, "timeout", got.detail)
            else:
                # this task keeps killing workers — run it inline
                got = self._run_inline(client, method, kwargs)
            outcomes.append(got)
        if all(isinstance(o, TaskFailure) for o in outcomes):
            # a stage must not lose every participant: rerun inline (the
            # driver clients are untouched, so this is exactly serial
            # semantics).  A deterministic task exception still propagates.
            return super()._execute(clients, method, kwargs, stage)
        return outcomes


def make_executor(config) -> Executor:
    """Build the executor a :class:`~repro.fl.config.FederationConfig` asks for."""
    kind = getattr(config, "executor", "serial")
    if kind == "parallel":
        return ParallelExecutor(
            max_workers=getattr(config, "max_workers", None),
            task_timeout_s=getattr(config, "task_timeout_s", None),
            task_retries=getattr(config, "task_retries", 1),
            retry_backoff_s=getattr(config, "retry_backoff_s", 0.0),
            backoff_seed=getattr(config, "seed", 0),
        )
    if kind == "serial":
        return SerialExecutor()
    raise ValueError(f"unknown executor kind '{kind}'")
