"""Checkpoint layouts across format versions.

- A committed bounded-registry **v3** checkpoint (one archive key per
  client and parameter, written by a v3 build; see ``v3_fixture.py``)
  still loads and resumes bit-identically to an uninterrupted run.
- **v4** packs a bounded registry's dirty clients into one stacked array
  per model and parameter; rows follow the sorted ``dirty`` list
  filtered by model, and a malformed pack is refused before anything
  is mutated.
- Unbounded federations keep the historical per-client key layout.
"""

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.fl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_history,
    read_checkpoint_meta,
    save_checkpoint,
)

from ..conftest import assert_histories_identical, make_tiny_federation
from . import v3_fixture


def test_v3_bounded_fixture_resumes_bit_identically():
    assert read_checkpoint_meta(v3_fixture.FIXTURE)["format_version"] == 3
    engine, fed = v3_fixture.build_engine()
    try:
        full = engine.run(v3_fixture.TOTAL_ROUNDS, eval_every=1)
    finally:
        fed.close()

    engine, fed = v3_fixture.build_engine()
    try:
        done = load_checkpoint(engine.algo, v3_fixture.FIXTURE)
        assert done == v3_fixture.SAVED_ROUNDS
        resumed = engine.run(
            v3_fixture.TOTAL_ROUNDS - done, eval_every=1,
            history=load_history(v3_fixture.FIXTURE),
        )
    finally:
        fed.close()
    assert_histories_identical(full, resumed)


def _bounded_algo(bundle):
    fed = make_tiny_federation(
        bundle, num_clients=5, server_model=None,
        client_models=["mlp_small", "mlp_medium"], max_live_clients=1,
    )
    return build_algorithm("fedproto", fed, seed=0, epoch_scale=0.1), fed


def _archive(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


class TestPackedLayout:
    def test_rows_follow_sorted_dirty_by_model(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "packed.ckpt.npz")
        algo, fed = _bounded_algo(tiny_bundle)
        try:
            algo.run(2, eval_every=1)
            save_checkpoint(algo, path)
            registry = fed.registry
            dirty = registry.dirty_ids()
            states = {cid: registry.client_state(cid)[0] for cid in dirty}
            models = {cid: registry.model_name(cid) for cid in dirty}
        finally:
            fed.close()

        arrays = _archive(path)
        assert read_checkpoint_meta(path)["registry"]["dirty"] == dirty
        assert not any(key.startswith("client") and not key.startswith("clients::")
                       for key in arrays)
        for model in sorted(set(models.values())):
            cids = [cid for cid in dirty if models[cid] == model]
            for param in states[cids[0]]:
                slab = arrays[f"clients::{model}::{param}"]
                assert slab.shape[0] == len(cids)
                for row, cid in enumerate(cids):
                    assert slab[row].dtype == states[cid][param].dtype
                    np.testing.assert_array_equal(slab[row], states[cid][param])

    def test_load_restores_every_dirty_client(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "packed.ckpt.npz")
        algo, fed = _bounded_algo(tiny_bundle)
        try:
            algo.run(2, eval_every=1)
            save_checkpoint(algo, path)
            saved = {
                cid: fed.registry.client_state(cid) for cid in fed.registry.dirty_ids()
            }
        finally:
            fed.close()

        algo, fed = _bounded_algo(tiny_bundle)
        try:
            assert load_checkpoint(algo, path) == 2
            assert fed.registry.dirty_ids() == sorted(saved)
            for cid, (state, rng_state) in saved.items():
                got_state, got_rng = fed.registry.client_state(cid)
                assert got_rng == rng_state
                for key, value in state.items():
                    np.testing.assert_array_equal(got_state[key], value)
        finally:
            fed.close()

    def test_row_count_mismatch_refused_before_mutation(self, tiny_bundle, tmp_path):
        path = str(tmp_path / "packed.ckpt.npz")
        algo, fed = _bounded_algo(tiny_bundle)
        try:
            algo.run(1, eval_every=1)
            save_checkpoint(algo, path)
        finally:
            fed.close()
        arrays = _archive(path)
        key = next(k for k in arrays if k.startswith("clients::mlp_small::"))
        arrays[key] = arrays[key][:-1]
        broken = str(tmp_path / "broken.ckpt.npz")
        np.savez(broken, **arrays)

        algo, fed = _bounded_algo(tiny_bundle)
        try:
            fed.registry[0]  # something a failed load must not discard
            with pytest.raises(CheckpointError, match="mlp_small"):
                load_checkpoint(algo, broken)
            assert fed.registry.dirty_ids() == [0]
        finally:
            fed.close()


def test_unbounded_layout_keeps_per_client_keys(tiny_bundle, tmp_path):
    path = str(tmp_path / "unbounded.ckpt.npz")
    fed = make_tiny_federation(tiny_bundle, num_clients=3)
    algo = build_algorithm("fedpkd", fed, seed=0, epoch_scale=0.1)
    try:
        algo.run(1, eval_every=1)
        save_checkpoint(algo, path)
        expected = {
            f"client{client.client_id}::{key}"
            for client in algo.clients
            for key in client.model.state_dict()
        } | {f"server::{key}" for key in algo.server.model.state_dict()}
    finally:
        fed.close()
    keys = set(_archive(path))
    assert expected <= keys
    assert not any(key.startswith("clients::") for key in keys)
