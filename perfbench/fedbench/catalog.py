"""Every workload and metric the benchmark emits, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one declaration of the
workloads, metrics, units, bounds and run length.  Only what that file
cannot hold lives here: the algorithms of the zoo and the
``time_to_target_s`` targets.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

with open(BENCHMARK_PATH, "r", encoding="utf-8") as _f:
    _BENCHMARK = json.load(_f)

RUN_SECONDS: int = _BENCHMARK["run_seconds"]
WORKLOADS: List[Dict[str, str]] = _BENCHMARK["workloads"]
END_TO_END: List[Dict[str, object]] = _BENCHMARK["end_to_end"]
PER_LAYER: List[Dict[str, str]] = _BENCHMARK["per_layer"]

ALGORITHMS = (
    "dsfl", "fedavg", "feddf", "fedet", "fedmd",
    "fedpkd", "fedproto", "fedprox", "naive_kd",
)

# time_to_target_s targets.  pkd-hetero needs S_acc >= 0.30 and
# zoo-sweep each algorithm's primary accuracy >= 0.12 (chance is 0.1).
# Both are met in the first round on every seed tried (round-one S_acc
# was 0.385-0.613 over seeds 31-50; the lowest zoo primary accuracy
# 0.143 over seeds 31-40), so the metric does not jump by whole rounds
# from seed to seed.  By construction it is therefore the first round's
# wall time (summed over the zoo's runs): it tracks the cost of a round,
# not how many rounds convergence takes.
# Cohort clients hold about one sample each and learn nothing, so that
# workload's target is work done: aggregated client contributions.
PKD_TARGET_ACC = 0.30
ZOO_TARGET_ACC = 0.12
COHORT_TARGET_CONTRIBUTIONS = 200


def workload_names() -> List[str]:
    return [w["name"] for w in WORKLOADS]


def units(kind: str) -> Dict[str, str]:
    """``{metric name: unit}`` for ``"end_to_end"`` or ``"per_layer"``."""
    rows = END_TO_END if kind == "end_to_end" else PER_LAYER
    return {str(r["name"]): str(r["unit"]) for r in rows}
