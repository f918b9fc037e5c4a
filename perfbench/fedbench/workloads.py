"""The three workloads, driven through the public ``repro`` API.

Each workload is run as a sequence of *units* from one driver process in
a closed loop: a unit is one complete federated run (set-up, a fixed
number of rounds, tear-down) or, for ``zoo-sweep``, one cold sweep plus
its resubmission.  The driver starts the next unit only after the last
one returned.  Every input is generated from the workload seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.algorithms import algorithm_supports, build_algorithm
from repro.data import SyntheticImageTask, make_task
from repro.experiments import harness
from repro.fl import (
    AsyncRoundEngine,
    FederationConfig,
    ParticipationSampler,
    RunHistory,
    simulation,
)
from repro.sweep import SweepScheduler, SweepSpec

from . import catalog
from .checks import finite_accuracy, history_digest, nan_mean
from .spans import Rebinding, SpanRecorder, inclusive_times

#: Rounds per unit.  Three rounds put the steady rounds in the majority,
#: so the pooled median is a steady round and not the first, heavier one.
PKD_ROUNDS = 3
#: Cohort rounds per unit; autosave every COHORT_CHECKPOINT_EVERY rounds.
#: The target is reached in round 25; the rounds after it keep the later,
#: costlier autosaves in the tail, and a 35-round unit leaves room for
#: about eight units in a run, over which each round's median is taken.
COHORT_ROUNDS = 35
COHORT_CHECKPOINT_EVERY = 5
#: Sweep runs execute inline.  On a 2-core host a 2-worker sweep pool
#: (two processes, each with default BLAS threads) spread its cold-sweep
#: wall time by 0.4-0.9 of the median over ten seeds, beyond any usable
#: bound (see perfbench/README.md).
SWEEP_WORKERS = 1


class TimedHistory(RunHistory):
    """A :class:`RunHistory` that stamps each append with the clock, so
    round time includes evaluation, checkpointing and settling.

    In a traced unit it also moves the recorder to the next round and
    keeps the registry's counters as they stood at the latest append, so
    that per-round figures cover the recorded rounds and nothing after
    the last one (the final settle, save, export and evaluation).
    """

    def __init__(self, algorithm: str, recorder: Optional[SpanRecorder] = None,
                 registry=None):
        super().__init__(algorithm)
        self.stamps: List[float] = []
        self.registry_stats: Dict[str, int] = {}
        self._recorder = recorder
        self._registry = registry

    def append(self, record) -> None:
        super().append(record)
        self.stamps.append(time.perf_counter())
        if self._recorder is not None:
            self._recorder.round = len(self.stamps)
            self.registry_stats = self._registry.stats()


@dataclass
class Unit:
    """What one unit measured and checked."""

    setup_s: float
    run_s: float
    round_s: List[float]
    records: list
    target_s: Optional[float]
    server_acc: float
    client_acc: float
    comm_mb_per_round: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Leading rounds up to the one that reached the target (federation
    #: workloads; the seed fixes it, so every unit of a run agrees).
    target_rounds: Optional[int] = None


def peak_rss_mb() -> float:
    """Driver peak RSS plus the largest reaped child's, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _intervals(start: float, stamps: List[float]) -> List[float]:
    edges = [start] + list(stamps)
    return [b - a for a, b in zip(edges, edges[1:])]


def _comm_mb_per_round(records) -> float:
    last = records[-1]
    return last.comm_total_mb / len(records)


# ----------------------------------------------------------------------
# federation workloads: pkd-hetero, proto-cohort-async
# ----------------------------------------------------------------------
@dataclass
class FedPlan:
    """Everything one federated unit needs, generated from the seed."""

    algorithm: str
    epoch_scale: float
    rounds: int
    make_bundle: Callable
    config: FederationConfig
    chance: float
    target: float


def pkd_plan(seed: int, profile: bool) -> FedPlan:
    """FedPKD, paper defaults, at the ``small`` scale's data, client count
    and epoch scale, heterogeneous MLP roles, ``dir0.5``, sync engine,
    serial executor."""
    scale = harness.SCALES["small"]
    roles = harness.model_roles("mlp", heterogeneous=True)

    def make_bundle():
        task = make_task("cifar10", seed=seed)
        return task.make_bundle(
            scale.n_train, scale.n_test, scale.n_public, seed=seed + 1
        )

    config = FederationConfig(
        num_clients=scale.num_clients,
        partition=harness.PARTITIONS["dir0.5"],
        client_models=roles["client_models"],
        server_model=roles["big_server"],
        seed=seed,
        profile=profile,
    )
    return FedPlan(
        "fedpkd", scale.epoch_scale, PKD_ROUNDS, make_bundle, config,
        chance=0.1, target=catalog.PKD_TARGET_ACC,
    )


COHORT_CLIENTS = 100_000
COHORT_TRAIN = 120_000
COHORT_PER_ROUND = 16
COHORT_MAX_LIVE = 32
COHORT_EVAL = 64


def cohort_fault_plan(seed: int) -> dict:
    """One 10x straggler, one flaky client and delay jitter, placed on
    clients of the first sampled cohort so the faults actually fire."""
    first = ParticipationSampler(
        COHORT_CLIENTS, seed=seed + 6000, clients_per_round=COHORT_PER_ROUND
    ).sample()
    return {
        "seed": seed,
        "delay_jitter": 0.3,
        "faults": [
            {"kind": "straggler", "client_id": int(first[0]), "factor": 10.0},
            {"kind": "flaky", "client_id": int(first[1]), "fail_prob": 0.5},
        ],
    }


def cohort_plan(seed: int, workdir: str, profile: bool) -> FedPlan:
    """FedProto on a 100k-client lazy registry under the async engine."""

    def make_bundle():
        task = SyntheticImageTask(
            num_classes=4, image_shape=(1, 4, 4), latent_dim=4,
            class_separation=2.0, seed=seed, name="cohort",
        )
        return task.make_bundle(
            n_train=COHORT_TRAIN, n_test=400, n_public=100, seed=seed + 1
        )

    os.makedirs(workdir, exist_ok=True)
    config = FederationConfig(
        num_clients=COHORT_CLIENTS,
        partition=("iid", {}),
        client_models="mlp_small",
        server_model=None,
        feature_dim=8,
        seed=seed,
        clients_per_round=COHORT_PER_ROUND,
        max_live_clients=COHORT_MAX_LIVE,
        eval_clients=COHORT_EVAL,
        spill_dir=os.path.join(workdir, "spill"),
        engine="async",
        max_staleness=2,
        buffer_size=8,
        fault_plan=cohort_fault_plan(seed),
        checkpoint_every=COHORT_CHECKPOINT_EVERY,
        checkpoint_path=os.path.join(workdir, "autosave.npz"),
        trace_path=os.path.join(workdir, "trace.jsonl"),
        metrics_path=os.path.join(workdir, "metrics.jsonl"),
        profile=profile,
    )
    return FedPlan(
        "fedproto", 0.1, COHORT_ROUNDS, make_bundle, config,
        chance=0.25, target=float(catalog.COHORT_TARGET_CONTRIBUTIONS),
    )


def fed_setup(plan: FedPlan):
    """Bundle, federation, algorithm and (async) engine: the set-up phase."""
    bundle = plan.make_bundle()
    federation = simulation.build_federation(bundle, plan.config)
    try:
        algo = build_algorithm(
            plan.algorithm, federation, seed=plan.config.seed,
            epoch_scale=plan.epoch_scale,
        )
        runner = algo
        if plan.config.engine == "async":
            runner = AsyncRoundEngine.from_config(algo, plan.config)
    except Exception:
        federation.close()
        raise
    return bundle, federation, algo, runner


def time_setup(plan: FedPlan) -> float:
    start = time.perf_counter()
    _, federation, _, _ = fed_setup(plan)
    elapsed = time.perf_counter() - start
    federation.close()
    return elapsed


def _trace_counts(path: str) -> Dict[str, float]:
    """Record counts by name in the program's own JSONL trace."""
    counts: Dict[str, float] = {"_records": 0.0}
    if not path or not os.path.exists(path):
        return counts
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            counts["_records"] += 1
            name = json.loads(line).get("name")
            counts[name] = counts.get(name, 0.0) + 1
    counts["_bytes"] = float(os.path.getsize(path))
    return counts


def _program_failures(algo) -> int:
    """Runtime dropouts the program caused (injected faults excluded)."""
    return sum(
        1
        for e in algo.dropout_log.events
        if not e.reason.startswith("injected_") and e.reason != "empty_shard"
    )


def run_fed_unit(plan: FedPlan, recorder: Optional[SpanRecorder] = None) -> Unit:
    start = time.perf_counter()
    bundle, federation, algo, runner = fed_setup(plan)
    setup_s = time.perf_counter() - start
    problems: List[str] = []
    extra: Dict[str, float] = {}
    try:
        registry = federation.registry
        history = TimedHistory(algo.name, recorder, registry)
        if recorder is not None:
            recorder.round = 0
        start = time.perf_counter()
        runner.run(plan.rounds, history=history)
        run_s = time.perf_counter() - start
        records = list(history.records)
        round_s = _intervals(start, history.stamps)
        extra.update(
            {f"registry.{k}": float(v) for k, v in history.registry_stats.items()}
        )
        if registry.bounded and registry.stats()["live"] > plan.config.max_live_clients:
            problems.append("live registry above max_live_clients after settle")
        profiler = federation.obs.profiler
        if profiler is not None:
            extra["_profile_rows"] = profiler.rows()
        asynchronous = plan.config.engine == "async"
        if asynchronous:
            # the cohort task learns nothing per client (about one sample
            # each), so its accuracies are chance-level canaries: pooled
            # over every evaluated client of the unit
            client_acc = nan_mean(a for r in records for a in r.client_accs)
            trained = registry.dirty_ids()[:COHORT_EVAL]
            server_acc = nan_mean(
                federation.peek_client(cid).evaluate_on(bundle.test.x, bundle.test.y)
                for cid in trained
            )
        else:
            client_acc = records[-1].mean_client_acc
            server_acc = records[-1].server_acc
    finally:
        federation.close()

    trace = _trace_counts(plan.config.trace_path)
    extra.update({f"trace.{k}": v for k, v in trace.items()})
    if asynchronous:
        attempted = int(trace.get("engine/dispatch", 0))
        # time until COHORT_TARGET_CONTRIBUTIONS contributions aggregated
        needed, target_rounds = plan.target, None
        for index, record in enumerate(records):
            needed -= record.extras.get("participants", 0.0)
            if needed <= 0:
                target_rounds = index + 1
                break
    else:
        stages = len([k for k in records[0].extras if k.startswith("time/")])
        attempted = len(records) * plan.config.num_clients * max(stages, 1)
        target_rounds = None
        for index, record in enumerate(records):
            if not math.isnan(record.server_acc) and record.server_acc >= plan.target:
                target_rounds = index + 1
                break
    target_s = None if target_rounds is None else sum(round_s[:target_rounds])
    if target_s is None:
        problems.append(f"target {plan.target} not reached in {len(records)} rounds")
    for label, acc in (("server", server_acc), ("client", client_acc)):
        if not finite_accuracy(acc):
            problems.append(f"{label} accuracy {acc!r} is not finite in [0, 1]")
        elif not asynchronous and acc <= plan.chance:
            problems.append(f"{label} accuracy {acc:.3f} not above chance")
    failed = _program_failures(algo) + len(problems)
    return Unit(
        setup_s=setup_s,
        run_s=run_s,
        round_s=round_s,
        records=records,
        target_s=target_s,
        server_acc=server_acc,
        client_acc=client_acc,
        comm_mb_per_round=_comm_mb_per_round(records),
        attempted=max(attempted, 1),
        failed=failed,
        problems=problems,
        extra=extra,
        target_rounds=target_rounds,
    )


# ----------------------------------------------------------------------
# zoo-sweep
# ----------------------------------------------------------------------
#: The zoo sweeps every algorithm over two data seeds derived from the
#: workload seed.  Each seed draws its own synthetic task, whose
#: difficulty varies; with one seed, the mean final S_acc of the zoo
#: spread by 0.18-0.27 of its median over ten workload seeds.
ZOO_DATA_SEED_OFFSETS = (0, 1000)


def zoo_spec(seed: int) -> SweepSpec:
    return SweepSpec.from_dict(
        {
            "name": "zoo",
            "base": {
                "scale": "tiny",
                "partition": "dir0.5",
                "heterogeneous": False,
            },
            "axes": {
                "algorithm": list(catalog.ALGORITHMS),
                "seed": [seed + offset for offset in ZOO_DATA_SEED_OFFSETS],
            },
        }
    )


#: The calls through which each sweep run sets itself up (bundle,
#: federation, algorithm); ``run_algorithm`` looks them up in
#: ``repro.experiments.harness``.  Timing them there gives the set-up the
#: sweep itself performs.
ZOO_SETUP_CALLS = ("federation_for", "build_algorithm")


def zoo_warm_up(spec: SweepSpec) -> None:
    """One untimed set-up of the sweep's first run, as the sweep makes it."""
    run = spec.expand()[0]
    harness.federation_for(run.to_setting(), run.algorithm).close()


def _primary_acc(algorithm: str, record) -> float:
    if algorithm_supports(algorithm, "server_model"):
        return record.server_acc
    return record.mean_client_acc


def run_zoo_unit(seed: int, out_root: str, recorder: Optional[SpanRecorder] = None) -> Unit:
    spec = zoo_spec(seed)
    shutil.rmtree(out_root, ignore_errors=True)
    if recorder is not None:
        recorder.round = 0
    setup = SpanRecorder()
    timers = [(harness, name, "setup", None) for name in ZOO_SETUP_CALLS]
    start = time.perf_counter()
    with Rebinding(setup, timers):
        cold = SweepScheduler(spec, out_root=out_root, run_workers=SWEEP_WORKERS).run()
    run_s = time.perf_counter() - start
    setup_s = inclusive_times(setup.spans).get("setup", 0.0)
    if recorder is not None:
        recorder.round = 1
    start = time.perf_counter()
    warm = SweepScheduler(spec, out_root=out_root, run_workers=SWEEP_WORKERS).run()
    resubmit_s = time.perf_counter() - start

    problems = [
        f"sweep run {o.label} failed: {o.error}"
        for o in cold.outcomes
        if o.status == "failed"
    ]
    hits = warm.counts().get("cached", 0)
    problems += [
        f"resubmitted run {o.label} was {o.status}, not cached"
        for o in warm.outcomes
        if o.status != "cached"
    ]
    cold_by_key = {o.run_key: o for o in cold.outcomes}
    for outcome in warm.outcomes:
        first = cold_by_key.get(outcome.run_key)
        if (
            first is None
            or first.history is None
            or outcome.history is None
            or history_digest(first.history.records)
            != history_digest(outcome.history.records)
        ):
            problems.append(f"resubmitted history differs for {outcome.label}")

    records, round_s, per_algo = [], [], {}
    target_s, server_accs, client_accs, comm = 0.0, [], [], []
    for outcome in cold.outcomes:
        if outcome.history is None:
            continue
        algo = outcome.spec.algorithm
        history = outcome.history
        walls = [r.wall_time_s for r in history.records]
        records.extend(history.records)
        round_s.extend(walls)
        per_algo.setdefault(algo, []).extend(walls)
        elapsed, reached = 0.0, False
        for record, seconds in zip(history.records, walls):
            elapsed += seconds
            acc = _primary_acc(algo, record)
            if not math.isnan(acc) and acc >= catalog.ZOO_TARGET_ACC:
                reached = True
                break
        target_s += elapsed
        if not reached:
            problems.append(f"{algo} never reached {catalog.ZOO_TARGET_ACC}")
        if algorithm_supports(algo, "server_model"):
            server_accs.append(history.final_server_acc)
        client_accs.append(history.final_client_acc)
        comm.append(_comm_mb_per_round(history.records))
        if not finite_accuracy(_primary_acc(algo, history.records[-1])):
            problems.append(f"{algo} final accuracy is not finite")
        elif _primary_acc(algo, history.records[-1]) <= 0.1:
            problems.append(f"{algo} final accuracy not above chance")
    extra: Dict[str, float] = {
        "sweep.resubmit_s": resubmit_s,
        "sweep.resubmit_hit_ratio": hits / max(len(warm.outcomes), 1),
        "sweep.runs_failed": float(cold.counts().get("failed", 0)),
        "_per_algo": per_algo,
    }
    return Unit(
        setup_s=setup_s,
        run_s=run_s,
        round_s=round_s,
        records=records,
        target_s=target_s,
        server_acc=nan_mean(server_accs),
        client_acc=nan_mean(client_accs),
        comm_mb_per_round=sum(comm) / max(len(comm), 1),
        attempted=len(cold.outcomes) + len(warm.outcomes),
        failed=len(problems),
        problems=problems,
        extra=extra,
    )
