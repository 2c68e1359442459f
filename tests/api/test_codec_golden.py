"""Golden byte-identity pin for the report and spec encoders.

Each case below encodes a fixed object through the public encoders —
``run_report_to_dict`` for solve reports, ``sim_report_to_dict`` for
simulation reports (which carry their :class:`SimulationSpec`), and a
planned sweep manifest's ``to_dict`` — and hashes the JSON text exactly
as :func:`repro.io.save_run_reports` writes it (key order included).
The digests were recorded once and must not move: they pin the
default-skipping rules (``delay``, trivial ``churn``/``byzantine``,
empty ``crash_schedule``, benign adversarial tallies), the repr-sorted
encodings of sets and vertex tuples, and the ``_jsonable`` filters.

To see which cases moved after a deliberate format change, run this
module as a script: it prints the digest of every case.
"""

from __future__ import annotations

import hashlib
import json

import networkx as nx
import pytest

from repro.api import (
    ByzantinePlan,
    ChurnPlan,
    FaultPlan,
    RunConfig,
    SimReport,
    SimulationSpec,
    solve,
)
from repro.core.radii import RadiusPolicy
from repro.graphs import generators as gen
from repro.graphs.families import get_family
from repro.io import run_report_to_dict, sim_report_to_dict
from repro.local_model.adversary import ChurnEvent
from repro.local_model.instrumentation import RoundStats
from repro.sweep.manifest import plan_sweep

_POLICY = RadiusPolicy.practical(2, 4)

#: (graph builder, algorithm, config) per solve-report case.
RUN_CASES = {
    "fan_d2_none": (lambda: gen.fan(10), "d2", RunConfig(validate="none")),
    "ladder_alg1_policy_valid": (
        lambda: gen.ladder(6),
        "algorithm1",
        RunConfig(policy=_POLICY, validate="valid", seed=4),
    ),
    "tree_greedy_ratio_bnb": (
        lambda: get_family("tree").make(11, 2),
        "greedy",
        RunConfig(validate="ratio", solver="bnb", opt_cache=False),
    ),
    "grid_d2_ratio": (
        lambda: nx.grid_2d_graph(3, 3),
        "d2",
        RunConfig(validate="ratio"),
    ),
    "grid_alg1_policy_valid": (
        lambda: nx.grid_2d_graph(3, 4),
        "algorithm1",
        RunConfig(policy=_POLICY, validate="valid"),
    ),
    "ladder_alg2_simulate_none": (
        lambda: gen.ladder(4),
        "algorithm2",
        RunConfig(mode="simulate", validate="none"),
    ),
}

_EVENTS = (
    ChurnEvent(round=3, kind="del_edge", u=(0, 1), v=(0, 0)),
    ChurnEvent(round=1, kind="join", u=99),
    ChurnEvent(round=2, kind="join", u="x", v=4),
    ChurnEvent(round=4, kind="leave", u=7),
)

#: Specs covering every default-skip combination, trivial plans included.
SPEC_CASES = {
    "default": SimulationSpec(algorithm="d2"),
    "all_scalars": SimulationSpec(
        algorithm="greedy",
        model="congest",
        budget=8,
        max_rounds=50,
        trace="full",
        seed=3,
        ids="shuffled",
    ),
    "trivial_faults": SimulationSpec(algorithm="d2", faults=FaultPlan()),
    "faults_unsorted": SimulationSpec(
        algorithm="d2",
        faults=FaultPlan(
            drop_probability=0.25,
            crashed=(5, (0, 1), 2, "a"),
        ),
    ),
    "faults_schedule": SimulationSpec(
        algorithm="d2",
        faults=FaultPlan(crash_schedule=((9, 3), (2, 3), ((1, 0), 1), (4, 2))),
    ),
    "trivial_churn": SimulationSpec(algorithm="d2", churn=ChurnPlan()),
    "churn_rate": SimulationSpec(algorithm="d2", churn=ChurnPlan(rate=0.2, until=5)),
    "churn_events": SimulationSpec(algorithm="d2", churn=ChurnPlan(events=_EVENTS)),
    "trivial_byzantine": SimulationSpec(algorithm="d2", byzantine=ByzantinePlan()),
    "byzantine_unsorted": SimulationSpec(
        algorithm="d2",
        byzantine=ByzantinePlan(
            ((7, "lie"), ((0, 2), "babble"), (3, "silent"), ("b", "equivocate"))
        ),
    ),
    "delay_default_explicit": SimulationSpec(algorithm="d2", model="async", delay=2),
    "delay_zero": SimulationSpec(algorithm="d2", model="async", delay=0),
    "delay_five": SimulationSpec(algorithm="d2", model="adversarial", delay=5),
    "trivial_everything": SimulationSpec(
        algorithm="d2",
        faults=FaultPlan(),
        churn=ChurnPlan(),
        byzantine=ByzantinePlan(),
        delay=2,
    ),
    "everything": SimulationSpec(
        algorithm="degree_two",
        model="adversarial",
        budget=6,
        max_rounds=77,
        trace="off",
        seed=11,
        faults=FaultPlan(drop_probability=0.1, crashed=(3,), crash_schedule=((1, 2),)),
        ids="spread",
        churn=ChurnPlan(events=_EVENTS, rate=0.5, until=3),
        byzantine=ByzantinePlan(((2, "babble"), (1, "lie"))),
        delay=1,
    ),
}


class _Opaque:
    """A value json cannot encode (dropped by the ``_jsonable`` filters)."""

    def __repr__(self) -> str:
        return "<opaque>"


#: Simulation reports built directly, covering every encoded field.
SIM_REPORT_CASES = {
    "bare": SimReport(algorithm="d2", problem="mds", model="local"),
    "benign": SimReport(
        algorithm="d2",
        problem="mds",
        model="congest",
        instance={"family": "grid", "n": 4, "shape": (2, 2), "obj": _Opaque()},
        spec=SPEC_CASES["all_scalars"],
        outputs={(1, 0): True, (0, 0): False, (0, 1): _Opaque(), (1, 1): [1, (2, 3)]},
        rounds=3,
        total_messages=12,
        total_payload=None,
        dropped_messages=2,
        swallowed_messages=1,
        crashed=((1, 1), (0, 1)),
        round_stats=[RoundStats(1, 8, 16), RoundStats(2, 4, 4)],
    ),
    "adversarial_tallies": SimReport(
        algorithm="greedy",
        problem="mds",
        model="adversarial",
        spec=SPEC_CASES["everything"],
        outputs={3: True, 1: None, 10: True, 2: False},
        rounds=77,
        total_messages=40,
        total_payload=90,
        crashed=(3,),
        delayed_messages=5,
        churn_events=4,
        churn_lost_messages=3,
        suspicion={
            2: {"behavior": "babble", "deviations": 4, "detections": 1},
            (0, 1): {"behavior": "lie", "deviations": 0, "detections": 0},
        },
        failed=(5, (0, 0), 1),
        timed_out=True,
    ),
}


def _json(payload) -> str:
    """The bytes ``save_run_reports``/``save_sim_reports`` would write."""
    return json.dumps(payload, indent=1)


def run_case_text(name: str) -> str:
    build, algorithm, config = RUN_CASES[name]
    report = solve(build(), algorithm, config, meta={"case": name, "obj": _Opaque()})
    report.wall_time = 0.0
    return _json(run_report_to_dict(report))


def spec_case_text(name: str) -> str:
    spec = SPEC_CASES[name]
    report = SimReport(algorithm=spec.algorithm, problem="mds", model=spec.model, spec=spec)
    return _json(sim_report_to_dict(report))


def sim_report_case_text(name: str) -> str:
    return _json(sim_report_to_dict(SIM_REPORT_CASES[name]))


def manifest_text(kind: str) -> str:
    instances = [
        ({"family": "fan", "size": 6}, gen.fan(6)),
        ({"family": "grid"}, nx.grid_2d_graph(2, 3)),
    ]
    if kind == "solve":
        manifest = plan_sweep(
            instances,
            algorithms=["d2", "algorithm1"],
            config=RunConfig(policy=_POLICY, validate="ratio"),
        )
    else:
        manifest = plan_sweep(
            instances, specs=[SPEC_CASES["default"], SPEC_CASES["everything"]]
        )
    return _json(manifest.to_dict())


CASES = {
    **{f"run/{name}": (run_case_text, name) for name in RUN_CASES},
    **{f"spec/{name}": (spec_case_text, name) for name in SPEC_CASES},
    **{f"sim/{name}": (sim_report_case_text, name) for name in SIM_REPORT_CASES},
    "manifest/solve": (manifest_text, "solve"),
    "manifest/simulate": (manifest_text, "simulate"),
}


def case_digest(case: str) -> str:
    text_of, name = CASES[case]
    return hashlib.sha256(text_of(name).encode("utf-8")).hexdigest()


GOLDEN = {
    'run/fan_d2_none': 'c08ac8d210f492ff26898c4f48dfd6226d6997bda7f65fe1cdb5e584481a046f',
    'run/ladder_alg1_policy_valid': 'da2063889082e91d13131e0db620f53fd0b57bec5cac35cd6729e3eb423b6f5d',
    'run/tree_greedy_ratio_bnb': 'be122dbfe57fab0a67a6bdfd8a09b8c6dfe59a7a107452a3c1eae185568ea7bf',
    'run/grid_d2_ratio': 'f94da278bb04f3d6b17950f6b244c2696591edac318f2722949a11f867987774',
    'run/grid_alg1_policy_valid': 'a4e8f8ba9d31e2cfbfeaf1383a1021d4242f46770f49014acb71aebff00a1922',
    'run/ladder_alg2_simulate_none': '279683921c5ecea6cd5f09a0803a47add5e16d61767249b3cf6ea70ace7bb2db',
    'spec/default': '30e09654996a54778746d90b51da051f9dc8671ff9921301690095d5eddbf2e7',
    'spec/all_scalars': '032820d25076da7e0e9287ba39eb971a70feb61e763e82e726ff772293edebe2',
    'spec/trivial_faults': '535e123167f81b03beba74f7eee1473c0663deaa998d5783f5d2cbb097aabca6',
    'spec/faults_unsorted': 'c12326f53df2a9644ac6083ea853aa9fbb694b19819adc5efc386bc6da968f89',
    'spec/faults_schedule': '36bbda42c1a712f923ec6e7dffc80125984bd1f80bcfb477a8bdf8732cca6c55',
    'spec/trivial_churn': '30e09654996a54778746d90b51da051f9dc8671ff9921301690095d5eddbf2e7',
    'spec/churn_rate': 'a36389c7e3bd87532a1c8024f92a749860e0018a6c385813ec19af1cf5457f40',
    'spec/churn_events': 'b6d9a3f897104f0609df868cef08ee025480e5139066b85363bb0dba0e364b37',
    'spec/trivial_byzantine': '30e09654996a54778746d90b51da051f9dc8671ff9921301690095d5eddbf2e7',
    'spec/byzantine_unsorted': '925fbc0b96f7efa801d4878d888a3e5b76836d3f66fe641e429b2013c4e61ce8',
    'spec/delay_default_explicit': '5df09191255f4a07012fcc04bd47ed54a8d1e6105bde8813ce73b8c8079545cc',
    'spec/delay_zero': '270507a7cee817156852020c92916d584eaf0593655567a113528d9407a9ea44',
    'spec/delay_five': 'e0dc861d46cc0b3b960a49d6cfba5015aca60d9874655ab9db84b18e8862d3a5',
    'spec/trivial_everything': '535e123167f81b03beba74f7eee1473c0663deaa998d5783f5d2cbb097aabca6',
    'spec/everything': '9e10a46d51d507aa1f7720999488e24b08e59de09eaac7197c272069db8b6ddc',
    'sim/bare': 'e1821eb37795c788b3743248eae4c950d18b60d7b18ca53e2107ca9a9a861d74',
    'sim/benign': '6d56151185e1ed7aafc81de4ccca8b0255317fe15703e501107c0dfe53ce9273',
    'sim/adversarial_tallies': 'baa238a4159eafa40a2bda42497de0a0862fdd24b3a6377de71caece57f7f864',
    'manifest/solve': '0f952af164dc7e26adf15963e78321e4d9223eaac2b08779569a377cc82ceb28',
    'manifest/simulate': '49e59313652ec13bf7e6b1ea7f996a98d028cf27f37163dc8cca3642197fd946',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_encoder_bytes_match_golden(case):
    assert case_digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {case_digest(case)!r},")
