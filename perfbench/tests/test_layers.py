"""Per-layer ratios take both their parts from the same rounds."""

import itertools
import types

import pytest

from fedbench import layers, workloads
from fedbench.spans import SpanRecorder
from repro.fl.metrics import RoundRecord


def _record(index):
    return RoundRecord(
        round_index=index, server_acc=0.5, client_accs=[0.5],
        comm_uplink_bytes=10, comm_downlink_bytes=10, wall_time_s=1.0,
    )


def test_work_after_the_final_append_is_outside_the_rounds():
    recorder = SpanRecorder()
    materialised = itertools.count(8, 8)
    registry = types.SimpleNamespace(
        stats=lambda: {"materialisations": next(materialised)}
    )
    history = workloads.TimedHistory("fedproto", recorder, registry)

    def count_save(rec, args, kwargs, result):
        rec.add("checkpoint.saves")
        rec.add("checkpoint.bytes", 100.0)

    save = recorder.wrap("checkpoint.save", lambda: None, count_save)
    get = recorder.wrap("registry.get", lambda: None,
                        lambda rec, *_: rec.add("registry.gets"))
    recorder.round = 0
    for index in range(2):
        for _ in range(16):
            get()
        save()
        history.append(_record(index + 1))
    # what a unit does after the last append: a final save and 64 peeks
    save()
    for _ in range(64):
        get()
    registry.stats()

    rounds = {0, 1}
    unit = types.SimpleNamespace(
        extra={f"registry.{k}": float(v) for k, v in history.registry_stats.items()},
        run_s=1.0,
    )
    out = layers.span_layers(unit, recorder, base_run_s=1.0, rounds=rounds,
                             wall=1.0, n=2)
    saves = [s for s in recorder.spans if s.name == "checkpoint.save"]
    assert [s.round for s in saves] == [0, 1, 2]
    assert out["checkpoint.saves"] == 2
    assert out["checkpoint.bytes"] == pytest.approx(100.0)
    assert out["checkpoint.save_s"] == pytest.approx(
        sum(s.duration for s in saves[:2]) / 2
    )
    # 16 of 32 gets materialised a client, as stats() read at the last append
    assert history.registry_stats == {"materialisations": 16}
    assert out["registry.live_hit_ratio"] == pytest.approx(0.5)
