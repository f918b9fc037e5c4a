"""The history digest ignores exactly the timing fields."""

import math

import pytest

from fedbench.checks import (
    first_mismatch,
    history_digest,
    is_timing_field,
    percentile,
    summary,
)
from repro.fl.metrics import RoundRecord


def _record(**changes):
    fields = dict(
        round_index=1,
        server_acc=0.5,
        client_accs=[0.4, float("nan")],
        comm_uplink_bytes=100,
        comm_downlink_bytes=50,
        wall_time_s=1.25,
        extras={
            "server_loss": 0.7,
            "time/local_train": 0.3,
            "runtime/client_task_seconds/sum": 0.9,
            "runtime/client_task_seconds/max": 0.2,
            "runtime/client_task_seconds/count": 6.0,
            "channel/uplink_bytes": 100.0,
        },
    )
    fields.update(changes)
    return RoundRecord(**fields)


def _with_extra(key, value):
    record = _record()
    record.extras[key] = value
    return record


def test_timing_fields():
    assert is_timing_field("time/public_train")
    assert is_timing_field("checkpoint/save_seconds/sum")
    assert is_timing_field("checkpoint/save_seconds/max")
    assert not is_timing_field("checkpoint/save_seconds/count")
    assert not is_timing_field("server_loss")
    assert not is_timing_field("channel/uplink_bytes")


@pytest.mark.parametrize(
    "changed",
    [
        _record(wall_time_s=99.0),
        _with_extra("time/local_train", 42.0),
        _with_extra("time/new_stage", 1.0),
        _with_extra("runtime/client_task_seconds/sum", 7.0),
        _with_extra("runtime/client_task_seconds/max", 7.0),
    ],
)
def test_digest_ignores_timing(changed):
    assert history_digest([changed]) == history_digest([_record()])


@pytest.mark.parametrize(
    "changed",
    [
        _record(server_acc=0.51),
        _record(client_accs=[0.4, 0.0]),
        _record(comm_uplink_bytes=101),
        _record(comm_downlink_bytes=51),
        _record(round_index=2),
        _with_extra("server_loss", 0.71),
        _with_extra("runtime/client_task_seconds/count", 7.0),
        _with_extra("channel/uplink_bytes", 1.0),
        _with_extra("new_field", 1.0),
    ],
)
def test_digest_sees_everything_else(changed):
    assert history_digest([changed]) != history_digest([_record()])


def test_digest_is_order_and_length_sensitive():
    a, b = _record(), _record(round_index=2)
    assert history_digest([a, b]) != history_digest([b, a])
    assert history_digest([a]) != history_digest([a, a])


def test_ignore_metrics_drops_registry_extras_only():
    plain = _record(extras={"server_loss": 0.7})
    assert history_digest([_record()], ignore_metrics=True) == history_digest(
        [plain], ignore_metrics=True
    )
    other = _record(extras={"server_loss": 0.8})
    assert history_digest([other], ignore_metrics=True) != history_digest(
        [plain], ignore_metrics=True
    )


def test_first_mismatch():
    assert first_mismatch(["a", "a", "a"]) is None
    assert first_mismatch(["a", "a", "b"]) == 2


def test_summary_and_percentile():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    stats = summary(values)
    assert stats["median"] == 3.0 and stats["n"] == 5
    assert stats["q1"] <= 2.0 and stats["q3"] >= 4.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 100.0
    assert percentile([5.0], 90) == 5.0
    assert math.isclose(percentile([0.0, 10.0], 90), 9.0)
