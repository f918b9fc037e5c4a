"""Shared fixtures: tiny data bundles and federations that keep tests fast."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data import SyntheticImageTask
from repro.fl import FederationConfig, TrainingConfig, build_federation


@pytest.fixture(scope="session")
def tiny_task():
    """A small 6-class task shared across the test session."""
    return SyntheticImageTask(
        num_classes=6,
        image_shape=(3, 6, 6),
        latent_dim=8,
        class_separation=1.5,
        noise_scale=1.0,
        seed=7,
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_bundle(tiny_task):
    return tiny_task.make_bundle(n_train=360, n_test=120, n_public=90, seed=11)


@pytest.fixture
def fast_train_cfg():
    return TrainingConfig(epochs=1, batch_size=16, lr=1e-3)


def make_tiny_federation(
    bundle,
    num_clients=3,
    client_models="mlp_small",
    server_model="mlp_small",
    partition=("dirichlet", {"alpha": 0.5}),
    seed=0,
    **kwargs,
):
    config = FederationConfig(
        num_clients=num_clients,
        partition=partition,
        client_models=client_models,
        server_model=server_model,
        feature_dim=16,
        seed=seed,
        **kwargs,
    )
    return build_federation(bundle, config)


@pytest.fixture
def tiny_federation(tiny_bundle):
    return make_tiny_federation(tiny_bundle)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def assert_histories_identical(a, b):
    """Two run histories match bit for bit, except wall-clock extras.

    Compares round indices, server accuracy (NaN-aware: server-model-free
    algorithms report NaN), per-client accuracies, comm bytes and every
    extra but the ``time/*`` stage timings.
    """
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.round_index == rb.round_index
        assert ra.server_acc == rb.server_acc or (
            math.isnan(ra.server_acc) and math.isnan(rb.server_acc)
        )
        assert ra.client_accs == rb.client_accs
        assert ra.comm_uplink_bytes == rb.comm_uplink_bytes
        assert ra.comm_downlink_bytes == rb.comm_downlink_bytes
        assert _deterministic_extras(ra) == _deterministic_extras(rb)


def _deterministic_extras(record):
    return {k: v for k, v in record.extras.items() if not k.startswith("time/")}
