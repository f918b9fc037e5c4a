#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload pkd-hetero --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output check passed, 1 when one failed and 2 when the program under test
is not there (the ``repro`` package must come from ``src/`` beside this
directory, never from an installed copy).  See ``perfbench/README.md``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not _import_program():
        sys.exit(2)
    sys.path.insert(0, HERE)
    from fedbench.runner import main

    sys.exit(main(ROOT))
