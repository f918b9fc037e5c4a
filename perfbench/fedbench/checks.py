"""Output checks: history digests, accuracy sanity, summary statistics."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import asdict
from typing import Dict, Iterable, Optional, Sequence

#: Histogram summaries the program's metrics registry merges into
#: ``RoundRecord.extras``; the ``*_seconds`` ones are wall-clock timings.
_TIMED_HISTOGRAM_SUFFIXES = ("_seconds/sum", "_seconds/max")


def is_timing_field(key: str) -> bool:
    """Whether an extras key carries a wall-clock measurement."""
    return key.startswith("time/") or key.endswith(_TIMED_HISTOGRAM_SUFFIXES)


def _canonical(value):
    """JSON-safe form in which NaN compares equal to NaN."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def record_fields(record, ignore_metrics: bool = False) -> dict:
    """A record's fields minus its timing fields.

    ``ignore_metrics`` also drops every ``scope/name`` extra the
    program's metrics registry contributes, so an instrumented run can be
    compared with an uninstrumented one.
    """
    fields = asdict(record)
    fields.pop("wall_time_s")
    fields["extras"] = {
        key: value
        for key, value in fields["extras"].items()
        if not is_timing_field(key) and not (ignore_metrics and "/" in key)
    }
    return fields


def history_digest(records: Iterable, ignore_metrics: bool = False) -> str:
    payload = [_canonical(record_fields(r, ignore_metrics)) for r in records]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def finite_accuracy(value: float) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def nan_mean(values: Iterable[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


# ----------------------------------------------------------------------
# statistics over samples
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count."""
    data = [float(v) for v in values]
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = data[0]
    return {
        "median": statistics.median(data),
        "q1": q1,
        "q3": q3,
        "n": len(data),
    }


def first_mismatch(digests: Sequence[str]) -> Optional[int]:
    """Index of the first digest that differs from the first one."""
    for i, digest in enumerate(digests):
        if digest != digests[0]:
            return i
    return None
