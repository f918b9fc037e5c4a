"""Tests for the sweep scheduler: execution, isolation, caching, resume."""

import os
import time

import pytest

import repro.sweep.scheduler as scheduler_mod
from repro.baselines.fedavg import FedAvg
from repro.experiments.harness import ExperimentSetting, run_algorithm
from repro.sweep import SweepScheduler, SweepSpec

# keeps every scheduler test at a few seconds total
FAST_OVERRIDES = {
    "n_train": 240, "n_test": 80, "n_public": 60,
    "num_clients": 3, "rounds": 2, "epoch_scale": 0.05,
}


def make_spec(algorithms=("fedavg",), seeds=(0,), rounds=1, name="t"):
    return SweepSpec.from_dict({
        "name": name,
        "base": {
            "scale": "tiny",
            "scale_overrides": FAST_OVERRIDES,
            "rounds": rounds,
        },
        "axes": {"algorithm": list(algorithms), "seed": list(seeds)},
    })


def make_scheduler(spec, tmp_path, **kwargs):
    return SweepScheduler(spec, out_root=str(tmp_path / "out"), **kwargs)


def patch_worker_runs(monkeypatch, log_path, in_worker):
    """Log every execution's seed to ``log_path``; pool workers (which
    inherit the patch through fork) also call ``in_worker(seed)`` first."""
    driver = os.getpid()
    original = scheduler_mod.execute_run

    def execute(payload):
        seed = payload["run"]["setting_fields"]["seed"]
        with open(log_path, "a") as fh:
            fh.write(f"{seed}\n")
        if os.getpid() != driver:
            in_worker(seed)
        return original(payload)

    monkeypatch.setattr(scheduler_mod, "execute_run", execute)


def executions(log_path):
    return sorted(int(seed) for seed in log_path.read_text().split())


class TestInlineExecution:
    def test_sweep_completes_all_runs(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        result = make_scheduler(spec, tmp_path).run()
        assert result.counts() == {
            "completed": 2, "resumed": 0, "cached": 0, "failed": 0
        }
        assert result.ok
        for outcome in result.outcomes:
            assert outcome.rounds_done == 1

    def test_histories_match_plain_run_algorithm(self, tmp_path):
        spec = make_spec()
        result = make_scheduler(spec, tmp_path).run()
        swept = result.outcomes[0].history
        direct = run_algorithm(
            ExperimentSetting(
                scale="tiny", seed=0, scale_overrides=FAST_OVERRIDES
            ),
            "fedavg",
            rounds=1,
        )
        for a, b in zip(swept.records, direct.records):
            assert a.server_acc == b.server_acc
            assert a.client_accs == b.client_accs
            assert a.comm_uplink_bytes == b.comm_uplink_bytes
            assert a.comm_downlink_bytes == b.comm_downlink_bytes

    def test_registry_records_completed_runs(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        scheduler = make_scheduler(spec, tmp_path)
        scheduler.run()
        runs = scheduler.registry.runs()
        assert len(runs) == 2
        assert all(r["status"] == "completed" for r in runs.values())
        assert all("final_server_acc" in r for r in runs.values())
        sweeps = scheduler.registry.sweeps()
        assert len(sweeps) == 1 and sweeps[0]["completed"] == 2


class TestFailureIsolation:
    def test_mid_round_crash_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        # fedavg dies inside its second round; its fedmd sibling completes
        original = FedAvg.run_round
        rounds_seen = {"n": 0}

        def boom(self, participants):
            rounds_seen["n"] += 1
            if rounds_seen["n"] >= 2:
                raise RuntimeError("nan loss at round 2")
            return original(self, participants)

        monkeypatch.setattr(FedAvg, "run_round", boom)
        spec = make_spec(algorithms=("fedavg", "fedmd"), rounds=2)
        scheduler = make_scheduler(spec, tmp_path)
        result = scheduler.run()

        by_algo = {o.spec.algorithm: o for o in result.outcomes}
        assert by_algo["fedavg"].status == "failed"
        assert "nan loss" in by_algo["fedavg"].error
        assert by_algo["fedmd"].status == "completed"
        assert not result.ok

        failed = scheduler.registry.get(by_algo["fedavg"].run_key)
        assert failed["status"] == "failed"
        assert "nan loss" in failed["error"]

    def test_failed_run_succeeds_on_clean_resubmission(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = scheduler_mod.execute_run

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return original(payload)

        monkeypatch.setattr(scheduler_mod, "execute_run", flaky)
        spec = make_spec()
        assert not make_scheduler(spec, tmp_path).run().ok

        scheduler = make_scheduler(spec, tmp_path)
        result = scheduler.run()
        assert result.ok
        # the later success supersedes the failed record in place
        key = result.outcomes[0].run_key
        assert scheduler.registry.get(key)["status"] != "failed"


class TestResultCaching:
    def test_identical_resubmission_is_all_cache_hits(self, tmp_path, monkeypatch):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        scheduler = make_scheduler(spec, tmp_path)
        scheduler.run()
        runs_before = open(scheduler.registry.runs_path).read()

        # any training attempt on resubmission is a bug
        monkeypatch.setattr(
            scheduler_mod, "execute_run",
            lambda payload: pytest.fail("cache hit must not execute"),
        )
        rerun = make_scheduler(spec, tmp_path)
        result = rerun.run()
        assert result.counts() == {
            "completed": 0, "resumed": 0, "cached": 2, "failed": 0
        }
        # registry: runs.jsonl untouched, one extra sweep record
        assert open(rerun.registry.runs_path).read() == runs_before
        assert len(rerun.registry.sweeps()) == 2

    def test_cached_history_round_trips(self, tmp_path):
        spec = make_spec()
        first = make_scheduler(spec, tmp_path).run()
        second = make_scheduler(spec, tmp_path).run()
        a = first.outcomes[0].history
        b = second.outcomes[0].history
        assert [r.server_acc for r in a.records] == [r.server_acc for r in b.records]

    def test_overlapping_grid_runs_only_new_cells(self, tmp_path):
        make_scheduler(make_spec(seeds=(0,)), tmp_path).run()
        result = make_scheduler(make_spec(seeds=(0, 1)), tmp_path).run()
        statuses = {o.spec.setting_fields["seed"]: o.status for o in result.outcomes}
        assert statuses == {0: "cached", 1: "completed"}


class TestResume:
    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        spec = make_spec(rounds=2)
        scheduler = make_scheduler(spec, tmp_path)
        uninterrupted = scheduler.run().outcomes[0]
        assert uninterrupted.status == "completed"

        # simulate a crash after the round-1 autosave: the history never
        # landed but the exact-resume checkpoint did
        key = uninterrupted.run_key
        os.remove(scheduler.cache.history_path(key))
        assert scheduler.cache.has_checkpoint(key)

        resumed = make_scheduler(spec, tmp_path).run().outcomes[0]
        assert resumed.status == "resumed"
        assert len(resumed.history) == len(uninterrupted.history)
        for a, b in zip(resumed.history.records, uninterrupted.history.records):
            assert a.server_acc == b.server_acc
            assert a.client_accs == b.client_accs


class TestValidation:
    def test_bad_constructor_args(self, tmp_path):
        spec = make_spec()
        with pytest.raises(ValueError, match="run_workers"):
            make_scheduler(spec, tmp_path, run_workers=0)
        with pytest.raises(ValueError, match="run_timeout_s"):
            make_scheduler(spec, tmp_path, run_timeout_s=-1)
        with pytest.raises(ValueError, match="run_retries"):
            make_scheduler(spec, tmp_path, run_retries=-1)


@pytest.mark.slow
class TestPoolExecution:
    def test_pool_matches_inline(self, tmp_path):
        spec = make_spec(algorithms=("fedavg", "fedmd"))
        inline = make_scheduler(spec, tmp_path / "a").run()
        pooled = make_scheduler(spec, tmp_path / "b", run_workers=2).run()
        assert pooled.counts()["completed"] == 2
        for key, history in inline.histories().items():
            other = pooled.histories()[key]
            for a, b in zip(history.records, other.records):
                # nan-safe: fedmd has no server model, so server_acc is NaN
                assert (a.server_acc == b.server_acc) or (
                    a.server_acc != a.server_acc and b.server_acc != b.server_acc
                )
                assert a.client_accs == b.client_accs

    def test_timed_out_run_is_not_resubmitted(self, tmp_path, monkeypatch):
        # seed 0 hangs in its worker; seed 1 finishes inside the deadline.
        # The recycle after seed 0's only attempt must bank seed 1 rather
        # than run it again, and must not resubmit seed 0, which has no
        # retries left
        def hang_seed_zero(seed):
            if seed == 0:
                time.sleep(6.0)
                raise RuntimeError("hung run woke up")

        log = tmp_path / "executions.log"
        patch_worker_runs(monkeypatch, log, hang_seed_zero)
        scheduler = make_scheduler(
            make_spec(seeds=(0, 1)), tmp_path,
            run_workers=2, run_timeout_s=2, run_retries=0,
        )
        result = scheduler.run()
        statuses = {o.spec.setting_fields["seed"]: o.status for o in result.outcomes}
        assert statuses == {0: "failed", 1: "completed"}
        assert executions(log) == [0, 1]

    def test_worker_death_fails_the_run_not_its_sibling(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed"

        def crash_seed_zero_once(seed):
            if seed == 0 and not marker.exists():
                marker.touch()
                os._exit(1)

        patch_worker_runs(monkeypatch, tmp_path / "executions.log",
                          crash_seed_zero_once)
        scheduler = make_scheduler(
            make_spec(seeds=(0, 1)), tmp_path, run_workers=2, run_retries=0,
        )
        result = scheduler.run()
        by_seed = {o.spec.setting_fields["seed"]: o for o in result.outcomes}
        assert by_seed[0].status == "failed"
        assert by_seed[0].error.startswith(
            "worker death: the run kept crashing its worker process"
        )
        assert by_seed[1].status == "completed"

    def test_timed_out_run_is_recorded_with_its_error(self, tmp_path, monkeypatch):
        def hang(seed):
            time.sleep(4.0)
            raise RuntimeError("hung run woke up")

        patch_worker_runs(monkeypatch, tmp_path / "executions.log", hang)
        scheduler = make_scheduler(
            make_spec(), tmp_path, run_workers=2, run_timeout_s=1, run_retries=0,
        )
        outcome = scheduler.run().outcomes[0]
        assert outcome.status == "failed"
        record = scheduler.registry.get(outcome.run_key)
        assert record["status"] == "failed"
        assert record["error"] == "timeout: no result within 1s after 1 attempt(s)"
