# lint-fixture-module: repro.baselines.fx_async
"""Round-phase methods must match the protocol; algorithms keep run_round.

Any class defining one of the three phase methods with renamed or
re-ordered parameters is flagged at that definition.  A
``FederatedAlgorithm`` subclass overriding the ``run_round`` glue is
flagged at the override; a ``run_round`` on an unrelated class is not.
"""

from ..fl.simulation import FederatedAlgorithm


class WrongClientWorkAlgo(FederatedAlgorithm):
    def async_dispatch_state(self):
        return {}

    def async_client_work(self, participants):  # BAD
        return []

    def async_server_update(self, contributions, client_weights, contributors):
        return {}


class WrongServerUpdateHelper:
    def async_server_update(self, contributions, weights, contributors):  # BAD
        return {}


class HandWrittenRoundAlgo(FederatedAlgorithm):
    def run_round(self, participants):  # BAD
        return {}


class ConformingAlgo(FederatedAlgorithm):
    def async_dispatch_state(self):
        return {}

    def async_client_work(self, participants, snapshot):
        return []

    def async_server_update(self, contributions, client_weights, contributors):
        return {}


class RoundCounter:
    def run_round(self, participants):
        return {}
