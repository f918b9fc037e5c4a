"""FedDF (Lin et al., 2020): ensemble distillation for robust model fusion.

Round structure: broadcast global weights → clients train locally → upload
weights → server computes the FedAvg average **and** fine-tunes it by
distilling the client *ensemble*'s averaged predictions on the unlabelled
public set.  Because weights are exchanged, client and server architectures
must match (the paper runs ResNet-20 everywhere for FedDF).  Under the
async engine both fusion steps take each contribution's staleness weight.

The server already holds every client's weights after the upload, so it can
evaluate the ensemble on the public set without extra communication; in
this simulation it reads the (identical) weights straight from the client
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.aggregation import staleness_discounted_aggregate
from ..fl.client import FLClient
from ..fl.config import TrainingConfig
from ..fl.simulation import Federation
from ..runtime import PUBLIC_X
from .fedavg import FedAvg

__all__ = ["FedDFConfig", "FedDF"]


@dataclass
class FedDFConfig:
    """Paper defaults for FedDF: 30 local epochs, 5 server epochs."""

    local: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=30, batch_size=32, lr=1e-3)
    )
    server: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=5, batch_size=32, lr=1e-3)
    )
    kd_weight: float = 1.0  # FedDF distils with pure KL on the public set
    temperature: float = 1.0


class FedDF(FedAvg):
    name = "feddf"

    def __init__(
        self, federation: Federation, config: Optional[FedDFConfig] = None, seed: int = 0
    ) -> None:
        super().__init__(federation, config=None, seed=seed)
        self.config = config or FedDFConfig()

    def async_client_work(
        self, participants: List[FLClient], snapshot: Dict[str, np.ndarray]
    ) -> List[Dict[str, np.ndarray]]:
        """FedAvg's uploaded weights plus each model's public-set logits:
        the server holds every uploaded model, so evaluating the ensemble
        on the public set needs no extra communication."""
        self._broadcast_and_train(participants, snapshot)
        public_logits = self.map_clients(
            participants, "logits_on", {"x": PUBLIC_X}, stage="public_logits"
        )
        contributions = []
        for client, logits in zip(participants, public_logits):
            state = client.model.state_dict()
            self.channel.upload(client.client_id, state)
            contributions.append(dict(state, public_logits=logits))
        return contributions

    def async_server_update(
        self,
        contributions: List[Dict[str, np.ndarray]],
        client_weights: List[float],
        contributors: List[FLClient],
    ) -> Dict[str, float]:
        cfg = self.config
        # Fusion step 1: parameter averaging (initialisation of the fusion).
        states = [
            {k: v for k, v in c.items() if k != "public_logits"}
            for c in contributions
        ]
        self._average_into_server(states, client_weights, contributors)
        # Fusion step 2: ensemble distillation on the public set.
        ensemble = staleness_discounted_aggregate(
            [c["public_logits"] for c in contributions], client_weights, mode="equal"
        )
        with self.tracer.span(
            "server_distill",
            scope="server",
            attrs={"clients": len(contributors), "epochs": cfg.server.epochs},
        ) as span:
            loss = self.server.train_distill(
                self.public_x,
                ensemble,
                cfg.server,
                kd_weight=cfg.kd_weight,
                temperature=cfg.temperature,
            )
            span.set_attr("loss", loss)
        self.tracer.event(
            "feddf/distill",
            scope="server",
            attrs={"loss": loss, "public_samples": len(self.public_x)},
        )
        if self.metrics.enabled:
            self.metrics.gauge("feddf/server_loss").set(loss)
        return {"participants": float(len(contributors)), "server_loss": loss}
