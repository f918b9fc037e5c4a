"""A round whose every sampled client has an empty shard still counts.

``by_classes`` can hand a client a class group the task does not have;
``active_clients()`` logs that client as an ``empty_shard`` dropout, so a
round that sampled only it has no participants.  The round protocol must
then skip the server update — there is nothing to fold in — and record
the round as ``{"participants": 0.0}`` instead of failing to aggregate.
"""

import pytest

from repro.algorithms import build_algorithm

from ..conftest import make_tiny_federation
from .invariance_fixture import ALGORITHMS, SERVER_MODELS

ROUNDS = 6


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_empty_sync_round_counts_without_server_update(tiny_bundle, algorithm):
    fed = make_tiny_federation(
        tiny_bundle,
        num_clients=2,
        server_model=SERVER_MODELS[algorithm],
        # the 6-class task has no class 9: client 1's shard is empty
        partition=("by_classes", {"class_groups": [[0, 1, 2, 3, 4, 5], [9]]}),
        clients_per_round=1,
    )
    try:
        algo = build_algorithm(algorithm, fed, seed=0, epoch_scale=0.05)
        history = algo.run(ROUNDS, eval_every=1)
    finally:
        fed.close()

    empty_rounds = {
        e.round_index for e in algo.dropout_log.events if e.reason == "empty_shard"
    }
    assert empty_rounds and len(empty_rounds) < ROUNDS
    assert [r.round_index for r in history.records] == list(range(1, ROUNDS + 1))
    for record in history.records:
        if record.round_index in empty_rounds:
            # the empty-shard dropout is the round's one runtime dropout
            assert record.extras == {"participants": 0.0, "runtime_dropouts": 1.0}
        else:
            assert record.extras.get("participants", 1.0) == 1.0
