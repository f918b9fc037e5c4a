"""In-memory spans recorded around calls into the program's public API.

For the duration of a traced run only, :class:`Rebinding` replaces public
functions and methods at the places the program looks them up with thin
wrappers that record a :class:`Span` (name, start, end, parent, round)
and, optionally, a count taken from the call's arguments or result.
Nothing under ``src/`` is changed; leaving the ``with`` block restores
every original.

A span's *self time* is its duration minus the time its child spans
cover.  Whatever round time no top-level span covers is the *residual*,
reported rather than hidden.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span-name prefix -> the repository module the span times.
MODULES: Dict[str, str] = {
    "data": "repro.data",
    "fl": "repro.fl.simulation",
    "client": "repro.fl.client",
    "core": "repro.core",
    "channel": "repro.fl.channel",
    "runtime": "repro.runtime",
    "registry": "repro.fl.registry",
    "async": "repro.fl.async_engine",
    "checkpoint": "repro.fl.checkpoint",
    "obs": "repro.obs",
    "sweep": "repro.sweep",
    "baselines": "repro.baselines (rest of each run)",
}

#: Round index given to spans recorded before the first round starts.
SETUP_ROUND = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at top level
    round: int

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[["SpanRecorder", tuple, dict, object], None]


class SpanRecorder:
    """Collects spans and counts in memory; nothing is written while a
    run is in progress.  Counts carry the round they were made in, like
    spans, so a ratio of a count and a span time covers one window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.round = SETUP_ROUND
        self._counts: Dict[Tuple[str, int], float] = defaultdict(float)
        self._stack: List[int] = []

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counts[(key, self.round)] += amount

    def count(self, key: str, rounds: Optional[set] = None) -> float:
        """Summed count of ``key`` (optionally only for ``rounds``)."""
        return sum(
            amount
            for (name, rnd), amount in self._counts.items()
            if name == key and (rounds is None or rnd in rounds)
        )

    def wrap(self, name: str, fn: Callable, count: Optional[Counter] = None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, recorder.round)
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if count is not None:
                count(recorder, args, kwargs, result)
            return result

        return traced


_MISSING = object()

# (owner, attribute, span name, counter)
Target = Tuple[object, str, str, Optional[Counter]]


class Rebinding:
    """Context manager installing recorder wrappers on ``targets``.

    Class attributes inherited from a base class are deleted again on
    exit rather than re-set, so the class dictionary ends up exactly as
    it started.
    """

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        for owner, attr, name, count in self.targets:
            own = vars(owner).get(attr, _MISSING)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self.recorder.wrap(name, getattr(owner, attr), count))
        return self.recorder

    def __exit__(self, *exc) -> bool:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()
        return False


# ----------------------------------------------------------------------
# arithmetic on recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span], rounds: Optional[set] = None) -> Dict[str, float]:
    """Summed self time per span name (optionally only for ``rounds``)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if rounds is None or span.round in rounds:
            totals[span.name] += span.duration - covered[i]
    return dict(totals)


def inclusive_times(spans: Sequence[Span], rounds: Optional[set] = None) -> Dict[str, float]:
    """Summed duration per span name, counting only outermost occurrences
    (a span nested in one of the same name is not counted twice)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if rounds is not None and span.round not in rounds:
            continue
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            totals[span.name] += span.duration
    return dict(totals)


def covered_time(spans: Sequence[Span], rounds: Optional[set] = None) -> float:
    """Time covered by top-level spans."""
    return sum(
        s.duration
        for s in spans
        if s.parent is None and (rounds is None or s.round in rounds)
    )


def module_of(span_name: str) -> str:
    return MODULES.get(span_name.split(".", 1)[0], span_name)


def amdahl_table(
    spans: Sequence[Span], rounds: set, wall: float, n: int
) -> List[Dict[str, object]]:
    """Each module's self time in ``rounds`` as a share of their summed
    wall time ``wall``, per round over ``n`` rounds.  The final row is the
    residual the spans do not cover; shares sum to 1."""
    per_module: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans, rounds).items():
        per_module[module_of(name)] += seconds
    rows = sorted(per_module.items(), key=lambda kv: -kv[1])
    rows.append(("residual", wall - covered_time(spans, rounds)))
    return [
        {
            "module": module,
            "self_s_per_round": seconds / n,
            "share": seconds / wall if wall > 0 else 0.0,
        }
        for module, seconds in rows
    ]


def format_amdahl(workload: str, rows: Sequence[Dict[str, object]], overhead: float) -> str:
    lines = [
        f"{workload}: self time per round by module (trace overhead {overhead:+.1%})",
        f"  {'module':36} {'s/round':>10} {'share':>7}",
    ]
    for row in rows:
        lines.append(
            f"  {row['module']:36} {row['self_s_per_round']:10.4f} {row['share']:7.1%}"
        )
    return "\n".join(lines)
