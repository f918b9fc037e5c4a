"""Span arithmetic on synthetic spans, and rebinding hygiene."""

import math
import types

import pytest

from fedbench.spans import (
    SETUP_ROUND,
    Rebinding,
    Span,
    SpanRecorder,
    amdahl_table,
    covered_time,
    inclusive_times,
    self_times,
)


def _spans():
    # round 0: stage [0, 10) holds client [1, 4) and client [5, 9);
    #          client [5, 9) holds channel [6, 7); evaluate [11, 12)
    # round 1: distill [20, 23)
    # set-up:  bundle [-5, -4)
    return [
        Span("data.bundle", -5.0, -4.0, None, SETUP_ROUND),
        Span("runtime.run_stage", 0.0, 10.0, None, 0),
        Span("client.train_local", 1.0, 4.0, 1, 0),
        Span("client.train_local", 5.0, 9.0, 1, 0),
        Span("channel.upload", 6.0, 7.0, 3, 0),
        Span("client.evaluate", 11.0, 12.0, None, 0),
        Span("core.server_distill", 20.0, 23.0, None, 1),
    ]


def test_self_time_subtracts_children():
    own = self_times(_spans(), {0, 1})
    assert own["runtime.run_stage"] == pytest.approx(10 - 3 - 4)
    assert own["client.train_local"] == pytest.approx(3 + (4 - 1))
    assert own["channel.upload"] == pytest.approx(1)
    assert own["core.server_distill"] == pytest.approx(3)
    assert "data.bundle" not in own


def test_self_times_partition_covered_time():
    spans = _spans()
    rounds = {0, 1}
    assert sum(self_times(spans, rounds).values()) == pytest.approx(
        covered_time(spans, rounds)
    )


def test_inclusive_counts_outermost_only():
    spans = [
        Span("registry.get", 0.0, 4.0, None, 0),
        Span("registry.get", 1.0, 2.0, 0, 0),
        Span("registry.get", 5.0, 6.0, None, 0),
    ]
    assert inclusive_times(spans)["registry.get"] == pytest.approx(5.0)
    assert self_times(spans)["registry.get"] == pytest.approx(5.0)


def test_residual_and_shares():
    spans = _spans()
    # rounds 0 and 1 took 20 s; spans cover 14 s of it
    rows = amdahl_table(spans, {0, 1}, wall=20.0, n=2)
    by_module = {row["module"]: row for row in rows}
    assert by_module["residual"]["self_s_per_round"] == pytest.approx((20 - 14) / 2)
    assert by_module["repro.runtime"]["share"] == pytest.approx(3 / 20)
    assert by_module["repro.fl.client"]["share"] == pytest.approx(7 / 20)
    assert "repro.data" not in by_module  # set-up is not round time
    assert math.isclose(sum(row["share"] for row in rows), 1.0)


def test_recorder_nests_and_counts():
    rec = SpanRecorder()
    rec.round = 3

    def inner(x):
        return x + 1

    wrapped_inner = rec.wrap("b.inner", inner, lambda r, a, k, res: r.add("hits", res))
    wrapped_outer = rec.wrap("a.outer", lambda x: wrapped_inner(x) * 2)
    assert wrapped_outer(1) == 4
    outer, inner_span = sorted(rec.spans, key=lambda s: s.name)
    assert inner_span.parent == rec.spans.index(outer)
    assert outer.parent is None and outer.round == 3
    assert rec.count("hits") == 2 and rec.count("hits", {3}) == 2
    assert rec.count("hits", {0}) == 0


def test_rebinding_restores_own_and_inherited_attributes():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    module = types.SimpleNamespace(function=lambda: "module")
    original = module.function
    rec = SpanRecorder()
    with Rebinding(rec, [(Child, "method", "x.method", None),
                         (module, "function", "x.function", None)]):
        assert Child().method() == "base"
        assert module.function() == "module"
        assert "method" in vars(Child)
    assert "method" not in vars(Child)
    assert module.function is original
    assert [s.name for s in rec.spans] == ["x.method", "x.function"]


def test_rebinding_restores_on_error():
    holder = types.SimpleNamespace(function=lambda: 1)
    original = holder.function
    with pytest.raises(RuntimeError):
        with Rebinding(SpanRecorder(), [(holder, "function", "x.f", None)]):
            raise RuntimeError("boom")
    assert holder.function is original
