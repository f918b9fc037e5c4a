"""The traced run's rebinding targets and its per-layer metrics.

Spans are named ``<layer>.<call>``; the prefix maps to a repository module
(:data:`fedbench.spans.MODULES`).  Counts the spans cannot see come from
what the program already publishes: its own trace (the cohort's
dispatches, stale drops and faults), ``ClientRegistry.stats()`` and run
histories.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from repro import baselines
from repro.core import fedpkd
from repro.data import SyntheticImageTask
from repro.experiments import harness
from repro.fl import CommChannel, FLClient, checkpoint, registry, simulation
from repro.obs import Observability
from repro.runtime import SerialExecutor
from repro.sweep import ResultCache, RunRegistry, scheduler

from . import catalog, workloads
from .spans import (
    SETUP_ROUND,
    Span,
    SpanRecorder,
    covered_time,
    inclusive_times,
    self_times,
)


# ----------------------------------------------------------------------
# counters taken from call arguments and results
# ----------------------------------------------------------------------
def _arg(args, kwargs, name, position):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _count_local(rec, args, kwargs, result):
    config = _arg(args, kwargs, "config", 1)
    rec.add("client.samples", len(args[0].x_train) * config.epochs)


def _count_public(rec, args, kwargs, result):
    x_public = _arg(args, kwargs, "x_public", 1)
    config = _arg(args, kwargs, "config", 3)
    rec.add("client.samples", len(x_public) * config.epochs)


def _count_filter(rec, args, kwargs, result):
    rec.add("core.filter_selected", float(result.num_selected))
    rec.add("core.filter_public", float(len(_arg(args, kwargs, "logits", 1))))


def _count_upload(rec, args, kwargs, result):
    rec.add("channel.uplink_bytes", result)
    rec.add("channel.calls")


def _count_download(rec, args, kwargs, result):
    rec.add("channel.downlink_bytes", result)
    rec.add("channel.calls")


def _count_get(rec, args, kwargs, result):
    rec.add("registry.gets")


def _count_settle(rec, args, kwargs, result):
    reg = args[0]
    if reg.bounded and reg.stats()["live"] > reg.max_live:
        rec.add("registry.live_over_cap")


def _count_server_update(rec, args, kwargs, result):
    rec.add("async.aggregated", len(_arg(args, kwargs, "contributions", 1)))


def _count_save(rec, args, kwargs, result):
    path = _arg(args, kwargs, "path", 1)
    rec.add("checkpoint.saves")
    rec.add("checkpoint.bytes", float(os.path.getsize(path)))


def targets(algorithm_class=None) -> List[tuple]:
    """Public entry points, rebound where the program looks them up."""
    found = [
        (FLClient, "train_local", "client.train_local", _count_local),
        (FLClient, "train_public_distill", "client.train_public", _count_public),
        (FLClient, "public_knowledge", "client.public_knowledge", None),
        (FLClient, "compute_prototypes", "client.prototypes", None),
        (FLClient, "evaluate", "client.evaluate", None),
        (fedpkd, "prototype_ensemble_distill", "core.server_distill", None),
        (fedpkd, "variance_weighted_aggregate", "core.aggregate", None),
        (fedpkd, "aggregate_prototypes", "core.aggregate", None),
        (baselines.fedproto, "aggregate_prototypes", "core.aggregate", None),
        (fedpkd, "prototype_filter", "core.filter", _count_filter),
        (CommChannel, "upload", "channel.upload", _count_upload),
        (CommChannel, "download", "channel.download", _count_download),
        (CommChannel, "broadcast", "channel.broadcast", None),
        (SerialExecutor, "run_stage", "runtime.run_stage", None),
        (registry.ClientRegistry, "__getitem__", "registry.get", _count_get),
        (registry.ClientRegistry, "peek", "registry.get", _count_get),
        (registry.ClientRegistry, "settle", "registry.settle", _count_settle),
        (checkpoint, "save_checkpoint", "checkpoint.save", _count_save),
        (Observability, "export_metrics", "obs.export", None),
        (SyntheticImageTask, "make_bundle", "data.bundle", None),
        (simulation, "build_federation", "fl.build_federation", None),
        (harness, "build_federation", "fl.build_federation", None),
        (scheduler, "execute_run", "baselines.run", None),
        (ResultCache, "store_history", "sweep.cache", None),
        (RunRegistry, "record_run", "sweep.registry", None),
    ]
    found += [
        (simulation, name, "data.partition", None)
        for name in (
            "partition_iid", "partition_dirichlet",
            "partition_shards", "partition_by_classes",
        )
    ]
    if algorithm_class is not None:
        found += [
            (algorithm_class, "async_client_work", "async.client_work", None),
            (algorithm_class, "async_server_update", "async.server_update",
             _count_server_update),
        ]
    return found


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def empty_metrics() -> Dict[str, float]:
    return {row["name"]: 0.0 for row in catalog.PER_LAYER}


def _setup_metrics(spans: Sequence[Span], setup: set, setups: int,
                   out: Dict[str, float]) -> None:
    incl = inclusive_times(spans, setup)
    out["data.bundle_s"] = incl.get("data.bundle", 0.0) / setups
    out["data.partition_s"] = incl.get("data.partition", 0.0) / setups
    out["fl.build_federation_s"] = incl.get("fl.build_federation", 0.0) / setups


def _nn_metrics(rows: Sequence[dict], n: int, out: Dict[str, float]) -> None:
    by_op: Dict[str, List[float]] = {}
    calls = 0
    for row in rows:
        cell = by_op.setdefault(row["op"], [0.0, 0.0])
        cell[0] += row["seconds"]
        cell[1] += row["flops"]
        calls += row["calls"]
    mm, mm_bwd = by_op.get("matmul", [0.0, 0.0]), by_op.get("matmul.bwd", [0.0, 0.0])
    out["nn.matmul_s"] = mm[0] / n
    out["nn.matmul_bwd_s"] = mm_bwd[0] / n
    seconds = mm[0] + mm_bwd[0]
    out["nn.matmul_gflops"] = (mm[1] + mm_bwd[1]) / seconds / 1e9 if seconds else 0.0
    out["nn.adam_step_s"] = by_op.get("adam.step", [0.0])[0] / n
    out["nn.backward_overhead_s"] = by_op.get("backward.overhead", [0.0])[0] / n
    out["nn.op_calls"] = calls / n


def span_layers(unit, recorder: SpanRecorder, base_run_s: float, rounds: set,
                wall: float, n: int, setup: set = frozenset({SETUP_ROUND}),
                setups: int = 1) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts recorded in ``rounds``.

    ``wall`` is the wall time those rounds took and ``n`` the number of
    recorded rounds it is spread over; ``setups`` counts the set-ups
    recorded in the ``setup`` rounds.
    """
    out = empty_metrics()
    spans = recorder.spans

    def counted(key: str) -> float:
        return recorder.count(key, rounds)

    own = self_times(spans, rounds)
    incl = inclusive_times(spans, rounds)
    extra = unit.extra
    _setup_metrics(spans, setup, setups, out)
    _nn_metrics(extra.get("_profile_rows", []), n, out)

    out["client.train_local_s"] = own.get("client.train_local", 0.0) / n
    out["client.train_public_s"] = own.get("client.train_public", 0.0) / n
    out["client.public_knowledge_s"] = own.get("client.public_knowledge", 0.0) / n
    out["client.samples"] = counted("client.samples") / n
    out["client.evaluate_s"] = own.get("client.evaluate", 0.0) / n

    out["core.server_distill_s"] = own.get("core.server_distill", 0.0) / n
    out["core.aggregate_s"] = own.get("core.aggregate", 0.0) / n
    out["core.filter_s"] = own.get("core.filter", 0.0) / n
    if counted("core.filter_public"):
        out["core.filter_accept_ratio"] = (
            counted("core.filter_selected") / counted("core.filter_public")
        )

    out["channel.uplink_bytes"] = counted("channel.uplink_bytes") / n
    out["channel.downlink_bytes"] = counted("channel.downlink_bytes") / n
    out["channel.calls"] = counted("channel.calls") / n

    stage_s = incl.get("runtime.run_stage", 0.0)
    out["runtime.stage_s"] = stage_s / n
    out["runtime.driver_serial_s"] = (wall - stage_s) / n

    out["registry.get_s"] = own.get("registry.get", 0.0) / n
    out["registry.settle_s"] = own.get("registry.settle", 0.0) / n
    for key in ("materialisations", "spills", "hydrations", "evictions"):
        out[f"registry.{key}"] = extra.get(f"registry.{key}", 0.0) / n
    gets = counted("registry.gets")
    if gets and "registry.materialisations" in extra:
        out["registry.live_hit_ratio"] = max(
            0.0, 1.0 - extra["registry.materialisations"] / gets
        )

    out["async.client_work_s"] = incl.get("async.client_work", 0.0) / n
    out["async.server_update_s"] = incl.get("async.server_update", 0.0) / n
    dispatched = extra.get("trace.engine/dispatch", 0.0)
    out["async.dispatched"] = dispatched / n
    out["async.aggregated"] = counted("async.aggregated") / n
    if dispatched:
        out["async.useful_frac"] = counted("async.aggregated") / dispatched
    out["async.stale_dropped"] = extra.get("trace.engine/stale_drop", 0.0) / n
    out["async.injected_faults"] = (
        extra.get("trace.engine/fault", 0.0) + extra.get("trace.engine/churn", 0.0)
    ) / n

    saves = counted("checkpoint.saves")
    if saves:
        out["checkpoint.save_s"] = incl.get("checkpoint.save", 0.0) / saves
        out["checkpoint.bytes"] = counted("checkpoint.bytes") / saves
    out["checkpoint.saves"] = saves

    out["obs.export_s"] = incl.get("obs.export", 0.0) / n
    out["obs.trace_events"] = extra.get("trace._records", 0.0) / n
    out["obs.trace_bytes"] = extra.get("trace._bytes", 0.0) / n

    out["trace.overhead_frac"] = unit.run_s / base_run_s - 1.0
    out["trace.residual_s"] = (wall - covered_time(spans, rounds)) / n
    return out


def fed_layers(unit, recorder: SpanRecorder, base_run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced federated unit, per round."""
    n = len(unit.round_s)
    return span_layers(unit, recorder, base_run_s, set(range(n)), sum(unit.round_s), n)


def zoo_layers(unit, recorder: SpanRecorder, base_run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep unit, per recorded round.

    The cold sweep's spans carry round 0 (its wall is ``unit.run_s``),
    the set-ups of its runs among them.
    """
    n = len(unit.records)
    runs = len(catalog.ALGORITHMS) * len(workloads.ZOO_DATA_SEED_OFFSETS)
    out = span_layers(unit, recorder, base_run_s, {0}, unit.run_s, n,
                      setup={0}, setups=runs)
    run_wall = inclusive_times(recorder.spans, {0}).get("baselines.run", 0.0)
    out["sweep.worker_idle_frac"] = 1.0 - run_wall / unit.run_s
    for key in ("sweep.resubmit_s", "sweep.resubmit_hit_ratio", "sweep.runs_failed"):
        out[key] = float(unit.extra[key])
    for algo, walls in unit.extra["_per_algo"].items():
        out[f"baselines.{algo}.round_s"] = statistics.median(walls)
    return out
