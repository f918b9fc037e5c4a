"""Golden per-round history digests for every registered algorithm.

``data/invariance_digests.json`` holds, for each of the nine algorithms,
one digest per round of a tiny synchronous serial run.  The file was
written by the build *before* every algorithm was ported to the
three-phase round protocol, so ``tests/fl/test_invariance_matrix.py``
pins the port (and every later change) to the pre-port arithmetic: each
feature variant of the matrix — parallel executor, degenerate async
engine, resume, bounded registry, profiling and tracing — must
reproduce these digests exactly.

A digest covers everything deterministic in a
:class:`~repro.fl.metrics.RoundRecord`: round index, server accuracy
(NaN-aware), per-client accuracies, comm bytes and the algorithm's own
extras.  Namespaced ``area/name`` extras are left out: ``time/*`` stage
timings are wall clock, and every metrics-registry gauge an instrumented
run merges into ``extras`` is namespaced the same way.

To regenerate the digests (only when the arithmetic is meant to change)::

    PYTHONPATH=src python tests/fl/invariance_fixture.py
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "invariance_digests.json")
ROUNDS = 3

ALGORITHMS = (
    "fedpkd", "fedavg", "fedprox", "fedmd", "fedproto",
    "dsfl", "feddf", "fedet", "naive_kd",
)

#: Server architecture per algorithm: weight averaging needs the clients'
#: own architecture, KD distils into a larger model, and the logit- or
#: prototype-only methods have no server model.
SERVER_MODELS = {
    "fedpkd": "mlp_medium",
    "fedavg": "mlp_small",
    "fedprox": "mlp_small",
    "fedmd": None,
    "fedproto": None,
    "dsfl": None,
    "feddf": "mlp_small",
    "fedet": "mlp_medium",
    "naive_kd": "mlp_medium",
}


def make_bundle():
    from repro.data import SyntheticImageTask

    task = SyntheticImageTask(
        num_classes=4, image_shape=(1, 4, 4), latent_dim=4,
        class_separation=2.0, seed=13, name="invariance",
    )
    return task.make_bundle(n_train=160, n_test=40, n_public=32, seed=14)


def build(algorithm: str, bundle=None, **config_overrides):
    """``(runner, federation)`` for one algorithm at matrix scale.

    ``runner`` is the algorithm itself, or its async engine when the
    overrides ask for ``engine="async"``.
    """
    from repro.algorithms import build_algorithm
    from repro.fl import AsyncRoundEngine, FederationConfig, build_federation

    settings = dict(
        num_clients=4,
        partition=("dirichlet", {"alpha": 1.0}),
        client_models="mlp_small",
        server_model=SERVER_MODELS[algorithm],
        feature_dim=8,
        seed=2,
        clients_per_round=3,
    )
    settings.update(config_overrides)
    config = FederationConfig(**settings)
    federation = build_federation(bundle or make_bundle(), config)
    try:
        algo = build_algorithm(algorithm, federation, seed=2, epoch_scale=0.01)
        runner = algo
        if config.engine == "async":
            runner = AsyncRoundEngine.from_config(algo, config)
    except Exception:
        federation.close()
        raise
    return runner, federation


def record_digest(record) -> str:
    """Hex digest of one record's deterministic content."""
    extras = {k: v for k, v in record.extras.items() if "/" not in k}
    payload = [
        record.round_index,
        record.server_acc,  # json writes NaN as NaN: NaN-aware equality
        list(record.client_accs),
        record.comm_uplink_bytes,
        record.comm_downlink_bytes,
        sorted(extras.items()),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def history_digests(history):
    return [record_digest(r) for r in history.records]


def reference_digests(algorithm: str, bundle=None):
    """Digests of the uninterrupted sync serial run."""
    runner, federation = build(algorithm, bundle)
    try:
        return history_digests(runner.run(ROUNDS, eval_every=1))
    finally:
        federation.close()


def load_digests():
    with open(DIGESTS, "r", encoding="utf-8") as f:
        return json.load(f)


def main() -> None:
    bundle = make_bundle()
    digests = {name: reference_digests(name, bundle) for name in ALGORITHMS}
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
