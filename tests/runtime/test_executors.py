"""Serial/parallel equivalence and fault tolerance of the runtime.

The headline guarantee of :mod:`repro.runtime` is that a parallel run is
*bit-identical* to a serial one: accuracies, per-client accuracies, and
communication bytes must match exactly (only the ``time/*`` extras may
differ); the invariance matrix (``tests/fl/test_invariance_matrix.py``)
checks it for every algorithm.  The second guarantee is that a stalled or
killed worker degrades to a per-round dropout instead of aborting the run.
"""

import os
import time

import pytest

import repro.runtime.worker as worker_mod
from repro.algorithms import build_algorithm
from repro.runtime import (
    ClientTask,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.fl import FederationConfig

from ..conftest import make_tiny_federation


def _run(bundle, algorithm, executor, server_model, rounds=2, **cfg_kwargs):
    fed = make_tiny_federation(
        bundle,
        num_clients=3,
        server_model=server_model,
        executor=executor,
        **cfg_kwargs,
    )
    algo = build_algorithm(algorithm, fed, seed=0, epoch_scale=0.2)
    try:
        history = algo.run(rounds, eval_every=1)
    finally:
        fed.close()
    return history, algo


@pytest.fixture
def fault_hook():
    """Install a worker fault hook; always uninstalled afterwards."""

    def install(hook):
        worker_mod.FAULT_HOOK = hook

    yield install
    worker_mod.FAULT_HOOK = None


class TestFactory:
    def test_default_is_serial(self):
        config = FederationConfig(num_clients=2)
        assert isinstance(make_executor(config), SerialExecutor)

    def test_parallel_from_config(self):
        config = FederationConfig(
            num_clients=2, executor="parallel", max_workers=2, task_timeout_s=5.0
        )
        executor = make_executor(config)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 2
        assert executor.task_timeout_s == 5.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig(num_clients=2, executor="threads")

    def test_task_method_whitelist(self):
        with pytest.raises(ValueError):
            ClientTask(client_id=0, method="__reduce__", kwargs={})


class TestEquivalence:
    # parallel == serial histories, for every algorithm, are pinned by the
    # invariance matrix (tests/fl/test_invariance_matrix.py)

    def test_stage_timings_recorded(self, tiny_bundle):
        history, _ = _run(
            tiny_bundle, "fedavg", "parallel", "mlp_small", rounds=1, max_workers=2
        )
        times = [k for k in history.records[0].extras if k.startswith("time/")]
        assert "time/local_train" in times
        assert all(history.records[0].extras[k] >= 0.0 for k in times)


class TestFaultTolerance:
    def test_timeout_degrades_to_dropout(self, tiny_bundle, fault_hook):
        def stall_client_zero(task):
            if task.client_id == 0 and task.method == "train_local":
                time.sleep(30.0)

        fault_hook(stall_client_zero)
        fed = make_tiny_federation(
            tiny_bundle,
            num_clients=3,
            server_model="mlp_small",
            executor="parallel",
            max_workers=2,
            task_timeout_s=1.0,
            task_retries=0,
        )
        algo = build_algorithm("fedavg", fed, seed=0, epoch_scale=0.2)
        try:
            history = algo.run(1, eval_every=1)
        finally:
            fed.close()
        # the run completed; client 0 merely missed the round
        assert len(history.records) == 1
        assert [(e.client_id, e.stage, e.reason) for e in algo.dropout_log.events] == [
            (0, "local_train", "timeout")
        ]
        assert history.records[0].extras["runtime_dropouts"] == 1.0
        assert history.records[0].extras["participants"] == 2.0

    def test_worker_death_never_aborts_run(self, tiny_bundle, fault_hook):
        def kill_client_zero(task):
            if task.client_id == 0 and task.method == "train_local":
                os._exit(1)

        fault_hook(kill_client_zero)
        fed = make_tiny_federation(
            tiny_bundle,
            num_clients=3,
            server_model="mlp_small",
            executor="parallel",
            max_workers=2,
            task_timeout_s=30.0,
            task_retries=0,
        )
        algo = build_algorithm("fedavg", fed, seed=0, epoch_scale=0.2)
        try:
            history = algo.run(1, eval_every=1)
        finally:
            fed.close()
        # the poisoned task falls back to inline execution (the hook only
        # fires inside workers), so nobody drops and the round completes
        assert len(history.records) == 1
        assert history.records[0].extras["participants"] == 3.0


class TestRetryBackoff:
    """Capped exponential backoff with seeded jitter between retries."""

    def test_disabled_by_default(self, monkeypatch):
        ex = ParallelExecutor()
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        assert ex._backoff_sleep(1, "local_train") == 0.0
        assert slept == []

    def test_delay_schedule_is_capped_exponential(self, monkeypatch):
        ex = ParallelExecutor(retry_backoff_s=2.0, backoff_seed=0)
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        for attempt in (1, 2, 3, 10):
            delay = ex._backoff_sleep(attempt, "local_train")
            assert delay == slept[-1]
            base = min(ex._BACKOFF_CAP_S, 2.0 * 2.0 ** (attempt - 1))
            # equal jitter keeps the delay within [base/2, base]
            assert base * 0.5 <= delay <= base
        # attempt 10 would be 1024s uncapped; the cap bounds it
        assert slept[-1] <= ex._BACKOFF_CAP_S

    def test_jitter_is_seeded_and_reproducible(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)

        def delays(seed):
            ex = ParallelExecutor(retry_backoff_s=1.0, backoff_seed=seed)
            return [ex._backoff_sleep(k, "stage") for k in (1, 1, 2, 3)]

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_validation(self):
        with pytest.raises(ValueError, match="retry_backoff_s"):
            ParallelExecutor(retry_backoff_s=-1.0)

    def test_make_executor_wires_config(self):
        class _Cfg:
            executor = "parallel"
            max_workers = 2
            task_timeout_s = None
            task_retries = 1
            retry_backoff_s = 0.25
            seed = 42

        ex = make_executor(_Cfg())
        assert isinstance(ex, ParallelExecutor)
        assert ex.retry_backoff_s == 0.25
        # same seed, same jitter stream
        twin = ParallelExecutor(retry_backoff_s=0.25, backoff_seed=42)
        assert float(ex._backoff_rng.random()) == float(twin._backoff_rng.random())
