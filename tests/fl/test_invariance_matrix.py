"""The invariance matrix: every algorithm × every equivalence the repo promises.

Each of the nine registered algorithms runs a tiny 3-round federation
(``invariance_fixture.py``) under every variant below, and each variant's
per-round history digests must equal the golden digests committed in
``data/invariance_digests.json``.  Those were written by the sync serial
run of the build that predates the three-phase round protocol, so the
matrix also pins the protocol port to the pre-port arithmetic.

- ``sync_serial`` — the reference run itself;
- ``sync_parallel`` — the parallel executor with two workers;
- ``async_degenerate`` — the async engine with ``max_staleness=0``, a
  full buffer and no fault plan;
- ``resume_at_2`` — autosave after round 2, resume in a fresh federation;
- ``bounded_registry`` — at most one live client, the rest spilled;
- ``profile_trace`` — op profiler and JSONL tracing on.

Uninstrumented variants are also compared record by record with the
reference run, for a readable failure.
"""

import pytest

from repro.fl.checkpoint import load_checkpoint, load_history

from ..conftest import assert_histories_identical
from . import invariance_fixture as fixture

VARIANTS = {
    "sync_serial": lambda tmp_path: {},
    "sync_parallel": lambda tmp_path: {"executor": "parallel", "max_workers": 2},
    "async_degenerate": lambda tmp_path: {"engine": "async"},
    "resume_at_2": None,
    "bounded_registry": lambda tmp_path: {"max_live_clients": 1},
    "profile_trace": lambda tmp_path: {
        "profile": True,
        "trace_path": str(tmp_path / "run.trace.jsonl"),
    },
}

#: variants whose records carry metrics-registry extras the reference lacks
INSTRUMENTED = {"profile_trace"}


@pytest.fixture(scope="module")
def golden():
    return fixture.load_digests()


@pytest.fixture(scope="module")
def bundle():
    return fixture.make_bundle()


@pytest.fixture(scope="module")
def references(bundle):
    """Sync serial histories, run once per algorithm on first use."""
    cache = {}

    def get(algorithm):
        if algorithm not in cache:
            runner, federation = fixture.build(algorithm, bundle)
            try:
                cache[algorithm] = runner.run(fixture.ROUNDS, eval_every=1)
            finally:
                federation.close()
        return cache[algorithm]

    return get


def _resumed(algorithm, bundle, tmp_path):
    path = str(tmp_path / "resume.ckpt.npz")
    head = fixture.ROUNDS - 1
    runner, federation = fixture.build(algorithm, bundle)
    try:
        runner.run(head, eval_every=1, checkpoint_every=head, checkpoint_path=path)
    finally:
        federation.close()
    runner, federation = fixture.build(algorithm, bundle)
    try:
        done = load_checkpoint(runner, path)
        assert done == head
        return runner.run(
            fixture.ROUNDS - done, eval_every=1, history=load_history(path)
        )
    finally:
        federation.close()


def _run_variant(algorithm, variant, bundle, tmp_path):
    if variant == "resume_at_2":
        return _resumed(algorithm, bundle, tmp_path)
    runner, federation = fixture.build(
        algorithm, bundle, **VARIANTS[variant](tmp_path)
    )
    try:
        return runner.run(fixture.ROUNDS, eval_every=1)
    finally:
        federation.close()


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("algorithm", fixture.ALGORITHMS)
def test_invariance(algorithm, variant, golden, bundle, references, tmp_path):
    if variant == "sync_serial":
        history = references(algorithm)
    else:
        history = _run_variant(algorithm, variant, bundle, tmp_path)
        if variant not in INSTRUMENTED:
            assert_histories_identical(references(algorithm), history)
    assert fixture.history_digests(history) == golden[algorithm]
