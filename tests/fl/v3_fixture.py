"""The committed bounded-registry v3 checkpoint and the run that wrote it.

``data/bounded_async_v3.ckpt.npz`` is a FedProto run on a small bounded
client registry under the async engine, autosaved after
``SAVED_ROUNDS`` of ``TOTAL_ROUNDS`` rounds by a build whose
``CHECKPOINT_FORMAT_VERSION`` was 3 (per-client ``client{i}::<param>``
keys).  ``tests/fl/test_checkpoint_compat.py`` resumes it with the
current reader and compares against an uninterrupted run of the same
configuration.

To regenerate it, run this module against a v3 build of ``repro``::

    PYTHONPATH=<v3 checkout>/src python tests/fl/v3_fixture.py
"""

from __future__ import annotations

import os

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "bounded_async_v3.ckpt.npz")
SAVED_ROUNDS = 3
TOTAL_ROUNDS = 5


def build_engine():
    """A fresh algorithm + async engine over the fixture's federation."""
    from repro.algorithms import build_algorithm
    from repro.data import SyntheticImageTask
    from repro.fl import AsyncRoundEngine, FederationConfig, build_federation

    task = SyntheticImageTask(
        num_classes=4, image_shape=(1, 4, 4), latent_dim=4,
        class_separation=2.0, seed=5, name="v3-fixture",
    )
    bundle = task.make_bundle(n_train=96, n_test=40, n_public=20, seed=6)
    config = FederationConfig(
        num_clients=12,
        partition=("iid", {}),
        client_models="mlp_small",
        server_model=None,
        feature_dim=8,
        seed=3,
        clients_per_round=4,
        max_live_clients=3,
        eval_clients=4,
        engine="async",
        max_staleness=1,
        buffer_size=2,
    )
    federation = build_federation(bundle, config)
    algo = build_algorithm("fedproto", federation, seed=3, epoch_scale=0.1)
    return AsyncRoundEngine.from_config(algo, config), federation


def main() -> None:
    from repro.fl.checkpoint import CHECKPOINT_FORMAT_VERSION

    if CHECKPOINT_FORMAT_VERSION != 3:
        raise SystemExit(
            f"this build writes checkpoint v{CHECKPOINT_FORMAT_VERSION}; "
            "the fixture must be written by a v3 build"
        )
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    engine, federation = build_engine()
    try:
        engine.run(
            SAVED_ROUNDS, eval_every=1, checkpoint_every=SAVED_ROUNDS,
            checkpoint_path=FIXTURE,
        )
    finally:
        federation.close()


if __name__ == "__main__":
    main()
