"""Wire-schema tests: validation, CLI parity, and the drift guards."""

from __future__ import annotations

import pytest

from repro.api.config import (
    RunConfig,
    parse_byzantine,
    parse_churn,
    parse_faults,
    run_config_from_options,
)
from repro.graphs import generators as gen
from repro.io import graph_to_dict, to_dict
from repro.serve.schema import (
    FamilyRef,
    SpecError,
    WireRef,
    parse_job,
)


def _solve_payload(**overrides):
    payload = {
        "kind": "solve",
        "instances": [{"family": "fan", "size": 12, "seed": 0}],
        "algorithms": ["d2"],
    }
    payload.update(overrides)
    return payload


def _simulate_payload(**overrides):
    payload = {
        "kind": "simulate",
        "instances": [{"family": "tree", "size": 10}],
        "specs": [{"algorithm": "d2"}],
    }
    payload.update(overrides)
    return payload


class TestSolveParsing:
    def test_minimal_solve_job(self):
        parsed = parse_job(_solve_payload())
        assert parsed.kind == "solve"
        assert parsed.instances == (FamilyRef("fan", 12, 0),)
        assert parsed.algorithms == ("d2",)
        assert parsed.task_count == 1
        # Flat options mirror the CLI front doors: validate="ratio".
        assert parsed.config == run_config_from_options()

    def test_flat_options_match_cli_construction(self):
        parsed = parse_job(
            _solve_payload(validate="ratio", solver="bnb", opt_cache=False, seed=3)
        )
        assert parsed.config == run_config_from_options(
            validate="ratio", solver="bnb", opt_cache=False, seed=3
        )

    def test_config_dict_roundtrip_shape(self):
        config = RunConfig(validate="ratio", solver="bnb", opt_cache=False)
        parsed = parse_job(_solve_payload(config=to_dict(config)))
        assert parsed.config == config

    def test_task_count_is_instance_major(self):
        parsed = parse_job(
            _solve_payload(
                instances=[
                    {"family": "fan", "size": 12},
                    {"family": "ladder", "size": 8, "seed": 1},
                ],
                algorithms=["d2", "greedy", "take_all"],
            )
        )
        assert parsed.task_count == 6
        assert parsed.instances[1] == FamilyRef("ladder", 8, 1)

    def test_single_algorithm_string(self):
        parsed = parse_job(_solve_payload(algorithms="greedy"))
        assert parsed.algorithms == ("greedy",)

    def test_inline_graph_becomes_wire_ref(self):
        graph = gen.fan(6)
        payload = _solve_payload(
            instances=[{"graph": graph_to_dict(graph), "meta": {"family": "inline"}}]
        )
        parsed = parse_job(payload)
        ref = parsed.instances[0]
        assert isinstance(ref, WireRef)
        assert ref.meta == {"family": "inline"}
        # Identical graph JSON digests identically: repeat submissions
        # of the same inline graph share one resident instance.
        again = parse_job(payload).instances[0]
        assert again.digest == ref.digest

    def test_distinct_graphs_digest_differently(self):
        ref_a = parse_job(
            _solve_payload(instances=[{"graph": graph_to_dict(gen.fan(6))}])
        ).instances[0]
        ref_b = parse_job(
            _solve_payload(instances=[{"graph": graph_to_dict(gen.path(6))}])
        ).instances[0]
        assert ref_a.digest != ref_b.digest


class TestSimulateParsing:
    def test_minimal_simulate_job(self):
        parsed = parse_job(_simulate_payload())
        assert parsed.kind == "simulate"
        assert parsed.specs[0].algorithm == "d2"
        assert parsed.task_count == 1

    def test_string_faults_share_the_cli_parser(self):
        text = "drop=0.25,crash=0+3"
        via_string = parse_job(
            _simulate_payload(specs=[{"algorithm": "d2", "faults": text}])
        ).specs[0]
        via_dict = parse_job(
            _simulate_payload(
                specs=[
                    {
                        "algorithm": "d2",
                        "faults": to_dict(parse_faults(text)),
                    }
                ]
            )
        ).specs[0]
        assert via_string == via_dict
        assert via_string.faults.drop_probability == 0.25
        assert via_string.faults.crashed == (0, 3)

    def test_single_spec_object(self):
        parsed = parse_job(_simulate_payload(specs=None, spec={"algorithm": "greedy"}))
        assert [s.algorithm for s in parsed.specs] == ["greedy"]


class TestAdversarialParsing:
    def test_string_churn_shares_the_cli_parser(self):
        text = "rate=0.2,until=5,del:0-1@2"
        via_string = parse_job(
            _simulate_payload(specs=[{"algorithm": "d2", "churn": text}])
        ).specs[0]
        via_dict = parse_job(
            _simulate_payload(
                specs=[
                    {
                        "algorithm": "d2",
                        "churn": to_dict(parse_churn(text)),
                    }
                ]
            )
        ).specs[0]
        assert via_string == via_dict
        assert via_string.churn.rate == 0.2
        assert via_string.churn.until == 5
        assert [e.kind for e in via_string.churn.events] == ["del_edge"]

    def test_string_byzantine_shares_the_cli_parser(self):
        text = "lie=0+3,silent=5"
        via_string = parse_job(
            _simulate_payload(specs=[{"algorithm": "d2", "byzantine": text}])
        ).specs[0]
        via_dict = parse_job(
            _simulate_payload(
                specs=[
                    {
                        "algorithm": "d2",
                        "byzantine": to_dict(parse_byzantine(text)),
                    }
                ]
            )
        ).specs[0]
        assert via_string == via_dict
        assert via_string.byzantine.as_mapping() == {
            0: "lie",
            3: "lie",
            5: "silent",
        }

    def test_delay_and_model_pass_through(self):
        spec = parse_job(
            _simulate_payload(
                specs=[{"algorithm": "d2", "model": "adversarial", "delay": 3}]
            )
        ).specs[0]
        assert spec.model == "adversarial"
        assert spec.delay == 3

    def test_unknown_behavior_names_the_choices(self):
        with pytest.raises(SpecError, match="silent.*babble.*equivocate.*lie"):
            parse_job(
                _simulate_payload(specs=[{"algorithm": "d2", "byzantine": "wat=3"}])
            )


class TestRejections:
    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"kind": "compile", "instances": [{"family": "fan", "size": 5}]},
            _solve_payload(instances=[]),
            _solve_payload(instances="fan"),
            _solve_payload(instances=[{"family": "no_such_family", "size": 5}]),
            _solve_payload(instances=[{"family": "fan"}]),
            _solve_payload(instances=[{"family": "fan", "size": "big"}]),
            _solve_payload(instances=[{"family": "fan", "size": 5, "seed": 1.5}]),
            _solve_payload(instances=[{"size": 5}]),
            _solve_payload(instances=[{"graph": {"nodes": [[1, 2]], "edges": []}}]),
            _solve_payload(algorithms=[]),
            _solve_payload(algorithms=[42]),
            _solve_payload(algorithms=["no_such_algorithm"]),
            _solve_payload(validate="extremely"),
            _solve_payload(solver="quantum"),
            _solve_payload(config="milp"),
            _solve_payload(timeout=-1),
            _solve_payload(timeout=True),
            _simulate_payload(specs=[]),
            _simulate_payload(specs=[{"model": "congest"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "model": "telepathy"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "faults": "warp=1"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "faults": "crash=0@x"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "churn": "frob:1@2"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "churn": "add:0-1"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "byzantine": "wat=3"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "delay": -1}]),
            # `exact` ships no message-passing protocol for the engine.
            _simulate_payload(specs=[{"algorithm": "exact"}]),
            # Ill-shaped plan and name values (no AttributeError/TypeError).
            _simulate_payload(specs=[{"algorithm": "d2", "faults": 5}]),
            _simulate_payload(specs=[{"algorithm": "d2", "faults": [1]}]),
            _simulate_payload(specs=[{"algorithm": "d2", "churn": 7}]),
            _simulate_payload(specs=[{"algorithm": "d2", "byzantine": ["x"]}]),
            _simulate_payload(specs=[{"algorithm": ["d2"]}]),
            _solve_payload(instances=[{"family": ["fan"], "size": 5}]),
            # Ill-typed values are refused at submission, not mid-queue.
            _solve_payload(seed="abc"),
            _solve_payload(opt_cache="no"),
            _solve_payload(algorithms=["algorithm1"], simulate="yes"),
            _solve_payload(config={"seed": "abc"}),
            _solve_payload(config={"validate": "ratio", "typo": 1}),
            _solve_payload(instances=[{"family": "fan", "size": -3}]),
            _solve_payload(instances=[{"family": "fan", "size": 0}]),
            _simulate_payload(
                specs=[{"algorithm": "d2", "faults": {"crashed": [{"a": 1}]}}]
            ),
            _simulate_payload(specs=[{"algorithm": "d2", "budget": True}]),
            _simulate_payload(specs=[{"algorithm": "d2", "delay": 1.5}]),
            _simulate_payload(specs=[{"algorithm": "d2", "seed": "abc"}]),
            _simulate_payload(specs=[{"algorithm": "d2", "max_round": 5}]),
            _simulate_payload(
                specs=[{"algorithm": "d2", "churn": {"events": [[1, "join"]]}}]
            ),
        ],
    )
    def test_spec_error(self, payload):
        with pytest.raises(SpecError):
            parse_job(payload)

    def test_simulate_mode_capability_checked_at_parse(self):
        # `exact` supports only mode="fast"; a simulate-mode run config
        # must be rejected at submission, not mid-queue.
        with pytest.raises(SpecError):
            parse_job(_solve_payload(algorithms=["exact"], simulate=True))
