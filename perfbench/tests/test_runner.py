"""The runner's checks decide its exit code (fake units; no workload runs)."""

import json

import pytest

from fedbench import runner, workloads
from repro.fl.metrics import RoundRecord

from conftest import ROOT


def _unit(server_acc):
    record = RoundRecord(
        round_index=1, server_acc=server_acc, client_accs=[0.5],
        comm_uplink_bytes=10, comm_downlink_bytes=10, wall_time_s=1.0,
    )
    return workloads.Unit(
        setup_s=0.01, run_s=1.0, round_s=[1.0], records=[record], target_s=1.0,
        server_acc=server_acc, client_acc=0.5, comm_mb_per_round=0.1,
        attempted=3, failed=0,
    )


@pytest.fixture
def fake_units(monkeypatch):
    """Units whose histories are given per call, instead of real runs."""
    accs = []

    def fake_run(plan, recorder=None):
        return _unit(accs.pop(0) if len(accs) > 1 else accs[0])

    monkeypatch.setattr(workloads, "time_setup", lambda plan: 0.01)
    monkeypatch.setattr(workloads, "run_fed_unit", fake_run)
    return accs


def _main(capsys, *extra):
    argv = ["--workload", "pkd-hetero", "--seed", "3", "--seconds", "0", *extra]
    code = runner.main(ROOT, argv)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, line


def test_identical_histories_pass(fake_units, capsys):
    fake_units.extend([0.6])
    code, line = _main(capsys)
    assert code == 0 and line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(runner.catalog.units("end_to_end"))


def test_perturbed_digest_exits_nonzero(fake_units, capsys):
    fake_units.extend([0.6, 0.61])  # the second unit's history differs
    code, line = _main(capsys)
    assert code == 1 and line["correct"] is False and line["failed"] == 1


def _timed(round_s, run_s, target_rounds=1):
    unit = _unit(0.6)
    unit.round_s, unit.run_s, unit.target_rounds = round_s, run_s, target_rounds
    return unit


def test_typical_unit_times_each_round_by_its_median():
    units = [
        _timed([1.0, 2.0, 9.0], 12.5, 2),  # a slow last round
        _timed([5.0, 2.0, 3.0], 10.5, 2),  # a slow first round
        _timed([1.0, 2.0, 3.0], 6.5, 2),
    ]
    run_s, target_s = runner._typical_unit(units)
    assert target_s == 3.0  # round medians 1 + 2
    assert run_s == 6.5  # 1 + 2 + 3, plus the median 0.5 after the last round


def test_typical_unit_needs_one_round_sequence():
    assert runner._typical_unit([_timed([1.0], 1.0), _timed([1.0], 1.0, None)]) is None
    assert runner._typical_unit([_timed([1.0], 1.0), _timed([1.0, 1.0], 2.0)]) is None


def test_pooled_p90_only_with_ten_rounds_beyond_it():
    few = [_timed([1.0, 1.0, float(i)], 3.0) for i in (2, 3, 4)]
    outcome = runner.Outcome()
    runner._end_to_end(outcome, few, [])
    assert outcome.metrics["round_s_p90"] == 2.6  # median of per-unit p90s
    many = [_timed([1.0] * 27 + [2.0] * 3, 33.0) for _ in range(4)]
    outcome = runner.Outcome()
    runner._end_to_end(outcome, many, [])
    assert outcome.metrics["round_s_p90"] == runner.percentile(
        [s for u in many for s in u.round_s], 90)
