"""Golden byte-identity pin for the simulation engine.

Every variant below runs a fixed matrix (families × seeds × protocols)
through :func:`repro.api.simulate` and hashes the canonical
``sim_report_to_dict`` JSON of each run — or, when the run raises, the
error's type and message.  The digests were recorded once and must not
move: any change to delivery order, RNG consumption, fault/churn/
Byzantine accounting or error reporting shows up here as a mismatch.

To see which cases moved after a deliberate semantic change, run this
module as a script: it prints the digest of every variant.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import (
    ByzantinePlan,
    ChurnPlan,
    FaultPlan,
    SimulationSpec,
    simulate,
)
from repro.graphs.families import get_family
from repro.io import sim_report_to_dict
from repro.local_model.adversary import ChurnEvent

FAMILIES = (("tree", 14), ("cactus", 14), ("ladder", 12), ("fan", 10))
SEEDS = (0, 3)
PROTOCOLS = ("d2", "degree_two", "greedy", "take_all")

_JOIN_LEAVE = (
    ChurnEvent(round=2, kind="join", u=1000, v=2),
    ChurnEvent(round=3, kind="leave", u=5),
)

#: Spec fields per variant (algorithm and seed are filled in per case).
VARIANTS: dict[str, dict] = {
    "local": {"model": "local"},
    "congest": {"model": "congest", "budget": 4},
    "async_drop": {
        "model": "async",
        "delay": 2,
        "faults": FaultPlan(drop_probability=0.15),
    },
    "async_delay0": {"model": "async", "delay": 0},
    "adversarial": {"model": "adversarial", "delay": 2},
    "adversarial_babble": {
        "model": "adversarial",
        "delay": 1,
        "byzantine": ByzantinePlan(((1, "babble"),)),
    },
    "churn": {"churn": ChurnPlan(events=_JOIN_LEAVE, rate=0.3, until=4)},
    "async_churn_lie_drop_crash": {
        "model": "async",
        "delay": 2,
        "churn": ChurnPlan(events=_JOIN_LEAVE, rate=0.2, until=3),
        "byzantine": ByzantinePlan(((1, "lie"),)),
        "faults": FaultPlan(drop_probability=0.1, crash_schedule=((3, 2),)),
    },
    "adversarial_churn_equivocate_crash": {
        "model": "adversarial",
        "delay": 2,
        "churn": ChurnPlan(rate=0.3, until=4),
        "byzantine": ByzantinePlan(((2, "equivocate"),)),
        "faults": FaultPlan(crash_schedule=((4, 3),)),
    },
    "crash_drop_full": {
        "trace": "full",
        "faults": FaultPlan(
            drop_probability=0.2, crashed=(0,), crash_schedule=((3, 2),)
        ),
    },
    "silent": {"byzantine": ByzantinePlan(((0, "silent"),))},
}

GOLDEN = {
    "local": "b8f3525550194f515dc2e80e4870b3b39709fda3145976361035339dc63174aa",
    "congest": "dc572548ffa2d6907c9e6fd427cef8a9bd33d042c073dd8b38ec4774e828377d",
    "async_drop": "8d93575831934f228ae0d50da8b168e19524eafd96f949222449c9a9328aeaaa",
    "async_delay0": "93ef00d60719d0e6768517d760e8910b457961820a3734e25e652e6d740c3725",
    "adversarial": "f278f68f7842d4a908c1e85118b0f498488616bb914922394224ef72a867a60d",
    "adversarial_babble": "aadbe545444e93a48cc694eaa2a6f18abdaed3a910d6676442c6bfcca0412d2e",
    "churn": "330459ab25febe7c2f70d08450224ada152d5c36c87281fd3b3875f14257ff0b",
    "async_churn_lie_drop_crash": "2ef02222a9a06e226e86254ef8e92dd154153e28ef068fa495ce5e1dd4caba73",
    "adversarial_churn_equivocate_crash": "7416605ae9887eb74d1cb71d3bc61adb61579f68d6ce8386bf84ce8f9d339216",
    "crash_drop_full": "686fd71dda28864581e3a6ffd899e07216856d87cfa166e04ea2cf7631f0f701",
    "silent": "52756734871604f6a183969acb26516a262dec82e45faab466776e0ad6a710f9",
}


def variant_digest(name: str) -> str:
    """SHA-256 over every case of one variant, in matrix order."""
    fields = VARIANTS[name]
    digest = hashlib.sha256()
    for family, size in FAMILIES:
        for seed in SEEDS:
            graph = get_family(family).make(size, seed)
            for algorithm in PROTOCOLS:
                spec = SimulationSpec(
                    algorithm=algorithm, seed=seed, max_rounds=96, **fields
                )
                try:
                    line = json.dumps(
                        sim_report_to_dict(simulate(graph, spec)), sort_keys=True
                    )
                except Exception as error:  # the raise itself is pinned
                    line = f"{type(error).__name__}: {error}"
                digest.update(f"{family}/{seed}/{algorithm}\n{line}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_engine_reports_match_golden(name):
    assert variant_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for variant in VARIANTS:
        print(f"    {variant!r}: {variant_digest(variant)!r},")
