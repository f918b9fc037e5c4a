#!/usr/bin/env python3
"""Run every workload (or one) for a seed, untraced then traced, and report.

    python3 perfbench/report.py --seed 1 [--workload pkd-hetero] [--out report.json]

For each workload it runs ``run.py --trace 0`` and ``run.py --trace 1``
one after the other, then prints every end-to-end and per-layer metric
with its unit, median, quartiles and sample count, and the traced run's
per-module Amdahl table.  Everything is also written as JSON (default
``perfbench-report.json``).  Exits 1 if any run failed a check.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from fedbench import catalog  # noqa: E402


def run_one(workload: str, seed: int, trace: int) -> dict:
    fd, detail = tempfile.mkstemp(prefix=".perfbench-detail-", suffix=".json", dir=ROOT)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(catalog.RUN_SECONDS),
             "--trace", str(trace),
             "--detail", detail],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        try:
            with open(detail, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, ValueError):
            payload = {"result": None, "problems": [proc.stderr.strip()[-500:]]}
    finally:
        os.remove(detail)
    payload["exit_code"] = proc.returncode
    return payload


def _row(name, unit, stats, value):
    if stats:
        return (f"  {name:30} {unit:8} median={stats['median']:<12.5g} "
                f"q1={stats['q1']:<12.5g} q3={stats['q3']:<12.5g} n={stats['n']}")
    return f"  {name:30} {unit:8} value={value:<12.5g} n=1"


def print_report(workload: str, untraced: dict, traced: dict) -> None:
    for label, payload in (("end-to-end", untraced), ("per-layer", traced)):
        result = payload.get("result")
        print(f"{workload} [{label}] exit={payload['exit_code']}"
              + (f" attempted={result['attempted']} failed={result['failed']}"
                 if result else ""))
        for problem in payload.get("problems", []):
            print(f"  CHECK FAILED: {problem}")
        if not result:
            continue
        for name, metric in result["metrics"].items():
            stats = payload.get("summary", {}).get(name)
            print(_row(name, metric["unit"], stats, metric["value"]))
    rows = traced.get("amdahl") or []
    if rows:
        overhead = traced["result"]["metrics"]["trace.overhead_frac"]["value"]
        from fedbench.spans import format_amdahl

        print(format_amdahl(workload, rows, overhead))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=catalog.workload_names())
    parser.add_argument("--out", default="perfbench-report.json")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else catalog.workload_names()
    report = {}
    ok = True
    for name in names:
        untraced = run_one(name, args.seed, 0)
        traced = run_one(name, args.seed, 1)
        print_report(name, untraced, traced)
        report[name] = {"untraced": untraced, "traced": traced}
        ok = ok and untraced["exit_code"] == 0 and traced["exit_code"] == 0
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
