"""Extending the framework: write your own FL algorithm in ~50 lines.

Demonstrates the public extension surface: subclass
``repro.fl.FederatedAlgorithm``, write a round as its three phases —
``async_client_work`` (per-client work and uplink) and
``async_server_update`` (fold the contributions into the server; an
``async_dispatch_state`` override would hand clients server state) —
meter every transfer through ``self.channel``, and the engine handles
evaluation, failure injection, and history recording.  The same class
runs unchanged under ``repro.fl.AsyncRoundEngine``.

The toy algorithm here — "FedTopK" — is a FedMD variant where each client
only uploads logits for the public samples it is most confident about
(top-k by logit variance), cutting uplink traffic.

Run:  python examples/custom_algorithm.py
"""

import argparse

import numpy as np

from repro.core import equal_average_aggregate
from repro.data import synthetic_cifar10
from repro.fl import (
    FederationConfig,
    FederatedAlgorithm,
    TrainingConfig,
    build_federation,
)


class FedTopK(FederatedAlgorithm):
    """FedMD-style logit consensus, uploading only confident samples."""

    name = "fedtopk"

    def __init__(self, federation, top_fraction=0.5, seed=0):
        super().__init__(federation, seed=seed)
        self.top_fraction = top_fraction
        self.local_cfg = TrainingConfig(epochs=2, batch_size=32)
        self.digest_cfg = TrainingConfig(epochs=2, batch_size=32)

    def async_client_work(self, participants, snapshot):
        k = max(1, int(self.top_fraction * len(self.public_x)))
        contributions = []
        for client in participants:
            client.train_local(self.local_cfg)
            logits = client.logits_on(self.public_x)
            confident = np.argsort(logits.var(axis=1))[-k:]
            # upload only the confident subset (plus its indices)
            self.channel.upload(
                client.client_id,
                {"logits": logits[confident],
                 "indices": confident.astype(np.float32)},
            )
            contributions.append(
                {"logits": logits[confident], "indices": confident}
            )
        return contributions

    def async_server_update(self, contributions, client_weights, contributors):
        n_public = len(self.public_x)
        votes = np.zeros((n_public, self.bundle.num_classes))
        counts = np.zeros(n_public)
        # client_weights are the async engine's staleness discounts (all
        # 1.0 in a synchronous round)
        for contribution, weight in zip(contributions, client_weights):
            votes[contribution["indices"]] += weight * contribution["logits"]
            counts[contribution["indices"]] += weight
        covered = counts > 0
        consensus = np.zeros_like(votes)
        consensus[covered] = votes[covered] / counts[covered, None]
        x_cov = self.public_x[covered]
        for client in contributors:
            self.channel.download(
                client.client_id, {"consensus": consensus[covered]}
            )
            client.train_public_distill(
                x_cov, consensus[covered], self.digest_cfg, kd_weight=1.0
            )
        return {"covered_fraction": float(covered.mean())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--top-fraction", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bundle = synthetic_cifar10(n_train=1500, n_test=500, n_public=400, seed=args.seed)
    config = FederationConfig(
        num_clients=6,
        partition=("dirichlet", {"alpha": 0.3}),
        client_models="mlp_medium",
        server_model=None,
        seed=args.seed,
    )
    federation = build_federation(bundle, config)
    algo = FedTopK(federation, top_fraction=args.top_fraction, seed=args.seed)
    history = algo.run(rounds=args.rounds, verbose=True)
    print()
    print(f"best client accuracy : {history.best_client_acc:.3f}")
    print(f"total communication  : {history.records[-1].comm_total_mb:.2f} MB")
    print(
        "coverage of public set per round:",
        [round(r.extras["covered_fraction"], 2) for r in history.records],
    )


if __name__ == "__main__":
    main()
