"""Configuration dataclasses shared by all FL algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["TrainingConfig", "FederationConfig"]


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training phase (paper Sec. V-A defaults).

    ``optimizer`` is ``"adam"`` (the paper's choice) or ``"sgd"``.
    """

    epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 0.0
    max_grad_norm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")


@dataclass
class FederationConfig:
    """Describes how to build the federation for an experiment.

    Attributes
    ----------
    num_clients:
        Number of participating clients (the paper's :math:`C`).
    partition:
        ``("iid", {})``, ``("dirichlet", {"alpha": 0.5})`` or
        ``("shards", {"classes_per_client": 3, "shard_size": 20})``.
    client_models:
        One registry name for homogeneous settings, or a list cycled across
        clients for heterogeneous settings (paper: ResNet-11/20/29).
    server_model:
        Registry name for the server model, or ``None`` for algorithms
        without one (FedMD, DS-FL).
    feature_dim:
        Shared prototype dimensionality.
    local_test_fraction:
        Fraction of each client's local data carved out as its personal
        test set (drives the ``C_acc`` metric).
    dropout_prob:
        Per-round probability that a client is unavailable (failure
        injection; 0 reproduces the paper's full-participation setting).
    clients_per_round:
        Sample this many clients as the round's cohort before dropout is
        applied (cross-device participation at scale; see docs/SCALE.md).
        ``None`` (default) keeps the paper's full-participation setting.
    max_live_clients:
        Carry at most this many materialised clients across rounds; the
        rest live as lazy registry entries, with mutated state spilled to
        a raw shard store (:mod:`repro.fl.registry`).  ``None`` (default)
        never evicts — bit-identical to the historical eager path.
        Incompatible with ``executor="parallel"``, whose worker pool
        materialises every client at startup.
    eval_clients:
        Evaluate the personalised ``C_acc`` metric on a seeded sample of
        this many clients per evaluation instead of the whole population
        (keeps ``_record_if_due`` O(sample) at large N).  ``None``
        evaluates everyone.
    spill_dir:
        Directory for the registry's spill store (``None`` = a private
        temporary directory removed on ``Federation.close()``).
    executor:
        Client-execution runtime: ``"serial"`` (inline, the default) or
        ``"parallel"`` (process pool; see :mod:`repro.runtime`).  For a
        fixed seed both produce bit-identical run histories.
    max_workers:
        Worker-process count for the parallel executor (``None`` sizes the
        pool to ``min(num_clients, cpu_count)``).
    task_timeout_s:
        Per-task result deadline under the parallel executor; a client
        whose task exhausts its timeout budget is recorded as a runtime
        dropout for that round.  ``None`` disables the deadline.
    task_retries:
        Extra attempts granted to a task after a timeout or worker death.
    retry_backoff_s:
        Base seconds of the capped exponential backoff the parallel
        executor sleeps between retry attempts (seeded jitter included);
        0 retries immediately (the historical behaviour).
    engine:
        Round engine: ``"sync"`` (the barrier engine, bit-identical
        reference) or ``"async"`` (event-driven streaming aggregation with
        staleness discounts; see :mod:`repro.fl.async_engine` and
        docs/ASYNC.md).  Async with ``max_staleness=0``, a full buffer and
        no faults reproduces the sync history bit-for-bit.
    max_staleness:
        Async engine: contributions older than this many server versions
        at arrival are discarded (and counted) instead of aggregated.
    staleness_alpha:
        Async engine: staleness discount base — a contribution that is
        ``s`` versions old is folded in with weight ``alpha ** s``.
    buffer_size:
        Async engine: aggregate as soon as this many contributions have
        arrived.  ``None`` (default) waits for every in-flight dispatch —
        the full-barrier degenerate mode.
    fault_plan:
        Deterministic chaos schedule for the async engine: a JSON file
        path, an inline dict, or a :class:`~repro.fl.failures.FaultPlan`
        (stragglers, crashes, flaky clients, churn).  ``None`` injects
        nothing.
    checkpoint_every:
        Autosave cadence in rounds for exact-resume checkpoints (0 = off).
        Saves also fire on the final round, so an interrupted run can always
        restart from its last completed multiple.
    checkpoint_path:
        Destination file for autosaved checkpoints (atomic writes; see
        :mod:`repro.fl.checkpoint`).  Required when ``checkpoint_every`` is
        set.
    trace_path:
        Destination for the structured JSONL event trace (run → round →
        stage → client spans; see :mod:`repro.obs` and
        ``docs/OBSERVABILITY.md``).  ``None`` (the default) installs the
        no-op tracer at near-zero overhead.
    metrics_path:
        Destination for the metrics-registry export (``.jsonl``/``.json``
        or ``.csv``).  Setting either this or ``trace_path`` enables the
        metrics registry, whose snapshot is merged into each
        ``RoundRecord.extras``.
    profile:
        Enable the op-level substrate profiler (:mod:`repro.obs.profile`):
        per-op wall time / estimated FLOPs / bytes, attributed per stage
        and model architecture, exported as ``profile/*`` metric gauges
        and ``profile``-scope trace events.  Profiling never perturbs
        numerics — a profiled run's history matches the unprofiled one —
        and the default (off) adds a single predicate check per op.
    """

    num_clients: int = 8
    partition: Tuple[str, Dict] = ("dirichlet", {"alpha": 0.5})
    client_models: Union[str, Sequence[str]] = "resnet20"
    server_model: Optional[str] = "resnet56"
    feature_dim: int = 32
    local_test_fraction: float = 0.2
    dropout_prob: float = 0.0
    clients_per_round: Optional[int] = None
    max_live_clients: Optional[int] = None
    eval_clients: Optional[int] = None
    spill_dir: Optional[str] = None
    seed: int = 0
    executor: str = "serial"
    max_workers: Optional[int] = None
    task_timeout_s: Optional[float] = None
    task_retries: int = 1
    retry_backoff_s: float = 0.0
    engine: str = "sync"
    max_staleness: int = 0
    staleness_alpha: float = 0.5
    buffer_size: Optional[int] = None
    fault_plan: Optional[Union[str, Dict, object]] = None
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        kind = self.partition[0]
        if kind not in ("iid", "dirichlet", "shards", "by_classes"):
            raise ValueError(f"unknown partition kind '{kind}'")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if self.clients_per_round is not None and not (
            1 <= self.clients_per_round <= self.num_clients
        ):
            raise ValueError(
                f"clients_per_round must be in [1, num_clients], got "
                f"{self.clients_per_round}"
            )
        if self.max_live_clients is not None and self.max_live_clients < 1:
            raise ValueError(
                f"max_live_clients must be >= 1, got {self.max_live_clients}"
            )
        if self.eval_clients is not None and self.eval_clients < 1:
            raise ValueError(
                f"eval_clients must be >= 1, got {self.eval_clients}"
            )
        if self.executor not in ("serial", "parallel"):
            raise ValueError(f"unknown executor '{self.executor}'")
        if self.max_live_clients is not None and self.executor == "parallel":
            raise ValueError(
                "max_live_clients is incompatible with executor='parallel': "
                "the worker pool materialises every client at startup, "
                "defeating the bounded registry"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.engine not in ("sync", "async"):
            raise ValueError(f"unknown engine '{self.engine}'")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if not 0.0 < self.staleness_alpha <= 1.0:
            raise ValueError(
                f"staleness_alpha must be in (0, 1], got {self.staleness_alpha}"
            )
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires a checkpoint_path")
        if self.metrics_path and not self.metrics_path.endswith(
            (".jsonl", ".json", ".csv")
        ):
            raise ValueError(
                f"metrics_path '{self.metrics_path}' must end in .jsonl, "
                ".json or .csv"
            )

    def client_model_names(self) -> List[str]:
        """Resolve per-client model names (cycling a heterogeneous list)."""
        if isinstance(self.client_models, str):
            return [self.client_models] * self.num_clients
        names = list(self.client_models)
        if not names:
            raise ValueError("client_models list is empty")
        return [names[i % len(names)] for i in range(self.num_clients)]
