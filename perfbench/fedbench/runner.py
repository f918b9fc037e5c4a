"""Run one workload for one seed and print the result line.

Untraced (``--trace 0``): units run back to back until ``--seconds`` is
used up (and at least the workload's minimum), and the end-to-end metrics
are printed.  Traced (``--trace 1``): one untraced unit and one traced
unit of identical work; the per-layer metrics come from the traced one
and ``trace.overhead_frac`` from the pair.

Every run checks its outputs; a failed check is counted in ``failed``,
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import catalog, layers, workloads
from .checks import first_mismatch, history_digest, percentile, summary
from .host import finish_host_block, host_block
from .spans import Rebinding, SpanRecorder, amdahl_table, format_amdahl

#: Set-up-only repetitions besides the units' own set-ups (set-up is
#: short and noisy, so its metric is a median over all of them).  A
#: zoo unit's set-up is the one its cold sweep performs, 18 runs summed.
SETUP_REPEATS = {"pkd-hetero": 20, "proto-cohort-async": 4}
#: Untimed set-up work before the timed set-ups.  On a 2-core VM host,
#: set-up ran 4-6x slower for about the first second of CPU work after
#: the machine idled, then settled.
WARM_UP_S = 1.5
#: Units each untraced run makes at the least: repeated runs of one seed
#: are compared, and per-unit figures are medians over at least three.
MIN_UNITS = 3
#: Rounds that must lie beyond a pooled 90th percentile for it to be the
#: tail metric; with fewer, it is the median of each unit's own p90.
MIN_TAIL_ROUNDS = 10


class Outcome:
    """Metrics, checks and details of one workload run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.amdahl: List[dict] = []

    def absorb(self, unit: workloads.Unit) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)

    def check(self, ok: bool, message: str) -> None:
        """One output check: counts as an operation, and as failed if not ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def _digests(units, ignore_metrics=False) -> List[str]:
    return [history_digest(u.records, ignore_metrics) for u in units]


def _check_same(outcome: Outcome, digests: List[str], what: str) -> None:
    bad = first_mismatch(digests)
    outcome.check(bad is None, f"{what}: history digest of unit {bad} differs from unit 0")


def _end_to_end(outcome: Outcome, units, setups: List[float]) -> None:
    pooled = [s for u in units for s in u.round_s]
    targets = [u.target_s for u in units if u.target_s is not None]
    samples = {
        "setup_s": setups + [u.setup_s for u in units],
        "run_s": [u.run_s for u in units],
        "round_s_p50": pooled,
        "time_to_target_s": targets or [math.nan],
        "final_server_acc": [u.server_acc for u in units],
        "final_client_acc": [u.client_acc for u in units],
        "comm_mb_per_round": [u.comm_mb_per_round for u in units],
        "round_s_p90": [percentile(u.round_s, 90) for u in units],
    }
    outcome.samples = samples
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    if len(pooled) * 0.1 >= MIN_TAIL_ROUNDS:
        metrics["round_s_p90"] = percentile(pooled, 90)
    typical = _typical_unit(units)
    if typical is not None:
        metrics["run_s"], metrics["time_to_target_s"] = typical
    metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    outcome.metrics = metrics


def _typical_unit(units) -> Optional[Tuple[float, float]]:
    """``run_s`` and ``time_to_target_s`` of a unit whose every round
    takes its median time over the units.

    The seed fixes a federated unit's rounds and the round that reaches
    the target, so every unit of a run repeats the same rounds.  The
    host's speed drifts over seconds, and a median of per-unit sums over
    a handful of units follows a slow stretch that a per-round median
    leaves out.  The time after the last round (final save, settle and
    export) is added as its own median.  None for units that do not
    repeat one round sequence (a zoo unit's figures are sweep-wide).
    """
    if any(u.target_rounds is None for u in units):
        return None
    if len({len(u.round_s) for u in units}) != 1:
        return None
    rounds = [statistics.median(u.round_s[i] for u in units)
              for i in range(len(units[0].round_s))]
    after = statistics.median(u.run_s - sum(u.round_s) for u in units)
    return sum(rounds) + after, sum(rounds[:units[0].target_rounds])


def _release_memory() -> None:
    """Collect a finished set-up's or unit's garbage before the next one.

    Units run back to back in one process, while a user runs one
    federation per process: without this, cyclic garbage left by earlier
    set-ups raises the process's peak RSS by an amount that depends on
    when the collector happens to run.
    """
    gc.collect()


def _warm_up(fn: Callable[[], object]) -> None:
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        fn()


def _timed_loop(run_unit: Callable[[int], workloads.Unit], deadline: float,
                minimum: int) -> List[workloads.Unit]:
    """Closed loop: the next unit starts only after the last returned,
    and only if a unit of the median length still fits the window."""
    units: List[workloads.Unit] = []
    lengths: List[float] = []
    while True:
        now = time.perf_counter()
        if len(units) >= minimum and now + statistics.median(lengths) > deadline:
            return units
        units.append(run_unit(len(units)))
        lengths.append(time.perf_counter() - now)


# ----------------------------------------------------------------------
# federation workloads
# ----------------------------------------------------------------------
def _plan_factory(workload: str, seed: int, work: str):
    def plan(index, profile=False):
        if workload == "proto-cohort-async":
            return workloads.cohort_plan(seed, os.path.join(work, f"unit{index}"), profile)
        return workloads.pkd_plan(seed, profile)

    return plan


def _clean(work: str, index) -> None:
    shutil.rmtree(os.path.join(work, f"unit{index}"), ignore_errors=True)


def run_federation(workload: str, seed: int, seconds: float, traced: bool,
                   work: str) -> Outcome:
    outcome = Outcome()
    plan = _plan_factory(workload, seed, work)
    deadline = time.perf_counter() + seconds

    def unit(index, profile=False, recorder=None):
        try:
            return workloads.run_fed_unit(plan(index, profile), recorder)
        finally:
            _clean(work, index)
            _release_memory()

    if traced:
        base = unit("base")
        recorder = SpanRecorder()
        algo_class = None
        if workload == "proto-cohort-async":
            from repro.baselines import FedProto

            algo_class = FedProto
        with Rebinding(recorder, layers.targets(algo_class)):
            traced_unit = unit("traced", profile=True, recorder=recorder)
        for u in (base, traced_unit):
            outcome.absorb(u)
        _check_same(outcome, _digests([base, traced_unit], ignore_metrics=True),
                    "traced vs untraced")
        outcome.check(recorder.count("registry.live_over_cap") == 0,
                      "live registry above max_live_clients after a settle")
        outcome.metrics = layers.fed_layers(traced_unit, recorder, base.run_s)
        n = len(traced_unit.round_s)
        outcome.amdahl = amdahl_table(recorder.spans, set(range(n)),
                                      sum(traced_unit.round_s), n)
        return outcome

    def setup(index):
        try:
            return workloads.time_setup(plan(index))
        finally:
            _clean(work, index)
            _release_memory()

    _warm_up(lambda: setup("warm-up"))
    setups = [setup(f"setup{i}") for i in range(SETUP_REPEATS[workload])]
    units = _timed_loop(unit, deadline, MIN_UNITS)
    for u in units:
        outcome.absorb(u)
    _check_same(outcome, _digests(units), f"{workload} repeated runs of seed {seed}")
    _end_to_end(outcome, units, setups)
    return outcome


# ----------------------------------------------------------------------
# zoo-sweep
# ----------------------------------------------------------------------
def run_zoo(seed: int, seconds: float, traced: bool, work: str) -> Outcome:
    outcome = Outcome()
    deadline = time.perf_counter() + seconds

    def unit(index, recorder=None):
        out_root = os.path.join(work, f"sweep{index}")
        try:
            return workloads.run_zoo_unit(seed, out_root, recorder)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
            _release_memory()

    if traced:
        base = unit("base")
        recorder = SpanRecorder()
        with Rebinding(recorder, layers.targets()):
            traced_unit = unit("traced", recorder)
        for u in (base, traced_unit):
            outcome.absorb(u)
        _check_same(outcome, _digests([base, traced_unit]), "traced vs untraced sweep")
        outcome.metrics = layers.zoo_layers(traced_unit, recorder, base.run_s)
        outcome.amdahl = amdahl_table(recorder.spans, {0}, traced_unit.run_s,
                                      len(traced_unit.records))
        return outcome

    spec = workloads.zoo_spec(seed)
    _warm_up(lambda: workloads.zoo_warm_up(spec))
    units = _timed_loop(unit, deadline, MIN_UNITS)
    for u in units:
        outcome.absorb(u)
    _check_same(outcome, _digests(units), f"zoo-sweep repeated cold sweeps of seed {seed}")
    _end_to_end(outcome, units, [])
    return outcome


#: How each workload declared in BENCHMARK.json is run.
RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "pkd-hetero": functools.partial(run_federation, "pkd-hetero"),
    "proto-cohort-async": functools.partial(run_federation, "proto-cohort-async"),
    "zoo-sweep": run_zoo,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def result_line(outcome: Outcome, traced: bool) -> dict:
    """The final stdout line; exactly the declared metrics, with units."""
    declared = catalog.units("per_layer" if traced else "end_to_end")
    missing = sorted(set(declared) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(declared))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing={missing} undeclared={extra}")
    metrics = {}
    for name, unit in declared.items():
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            outcome.check(False, f"metric {name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    if traced:
        metrics["failed_frac"]["value"] = outcome.failed / max(outcome.attempted, 1)
    return {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="PATH",
                        help="also write samples, checks, host block and the "
                        "Amdahl table as JSON")
    return parser.parse_args(argv)


def main(root: str, argv=None) -> int:
    args = parse_args(argv)
    traced = bool(args.trace)
    host = host_block(root)
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        outcome = RUNNERS[args.workload](args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    line = result_line(outcome, traced)
    finish_host_block(host)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if traced:
        print(format_amdahl(args.workload, outcome.amdahl,
                            outcome.metrics["trace.overhead_frac"]))
    if args.detail:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host": host,
            "problems": outcome.problems,
            "samples": outcome.samples,
            "summary": {k: summary(v) for k, v in outcome.samples.items()
                        if not any(math.isnan(x) for x in v)},
            "amdahl": outcome.amdahl,
            "result": line,
        }
        with open(args.detail, "w", encoding="utf-8") as f:
            json.dump(detail, f, indent=1)
    print(json.dumps({"host": host}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1
