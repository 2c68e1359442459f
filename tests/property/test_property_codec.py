"""Property tests for the one spec codec and the serve wire schema.

1. *Round-trip*: ``from_dict(type(x), json(to_dict(x))) == x`` for every
   spec, plan and report type, over int, str and tuple vertex labels.
   Encodings are canonical (repr-sorted sets and vertex tuples), so the
   strategies draw canonical values; trivial ``churn``/``byzantine``
   plans are default-skipped and decode as ``None``.
2. *Grammar*: ``parse_X(render(plan)) == plan`` for the fault, churn
   and Byzantine text grammars (the renderers live here, not in src).
3. *Wire fuzz*: on arbitrary JSON, ``parse_job`` returns a
   :class:`ParsedJob` or raises :class:`SpecError` — never anything
   else, so the HTTP layer always answers 400 instead of dropping the
   connection.
"""

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ByzantinePlan,
    ChurnPlan,
    FaultPlan,
    RunConfig,
    RunReport,
    SimReport,
    SimulationSpec,
    parse_byzantine,
    parse_churn,
    parse_faults,
)
from repro.api.config import MODES, SOLVER_BACKENDS, VALIDATION_LEVELS
from repro.api.simulation import ID_SCHEMES
from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.io import from_dict, to_dict
from repro.local_model.adversary import BYZANTINE_BEHAVIORS, ChurnEvent
from repro.local_model.engine import MODELS, TRACE_POLICIES
from repro.local_model.instrumentation import RoundStats
from repro.serve.schema import ParsedJob, SpecError, parse_job

# -- strategies ---------------------------------------------------------------

names = st.text(min_size=1, max_size=8)
counts = st.integers(0, 10**6)
probabilities = st.floats(0.0, 1.0, allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)

#: Vertex labels over the three label kinds graphs use: ints, strings
#: and (grid-style) int tuples.
vertices = st.one_of(
    st.integers(-50, 50),
    st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(max_size=6))


def _sorted(values, key=repr):
    return tuple(sorted(values, key=key))


@st.composite
def fault_plans(draw, labels=vertices):
    crashed = draw(st.lists(labels, max_size=4))
    schedule = draw(st.lists(st.tuples(labels, st.integers(1, 20)), max_size=4))
    return FaultPlan(
        drop_probability=draw(probabilities),
        crashed=_sorted(crashed),
        crash_schedule=_sorted(schedule, key=lambda e: (e[1], repr(e[0]))),
    )


@st.composite
def churn_events(draw, labels=vertices):
    kind = draw(st.sampled_from(("add_edge", "del_edge", "join", "leave")))
    round_index = draw(st.integers(1, 20))
    u = draw(labels)
    if kind in ("add_edge", "del_edge"):
        v = draw(labels.filter(lambda x: x != u))
    elif kind == "join":
        v = draw(st.none() | labels)
    else:
        v = None
    return ChurnEvent(round_index, kind, u, v)


@st.composite
def churn_plans(draw, labels=vertices):
    rate = draw(probabilities)
    until = draw(st.integers(1 if rate > 0 else 0, 20))
    events = draw(st.lists(churn_events(labels), max_size=4))
    return ChurnPlan(events=tuple(events), rate=rate, until=until)


@st.composite
def byzantine_plans(draw, labels=vertices):
    chosen = draw(st.lists(labels, max_size=4, unique=True))
    behaviors = [(v, draw(st.sampled_from(BYZANTINE_BEHAVIORS))) for v in chosen]
    return ByzantinePlan(_sorted(behaviors, key=lambda p: repr(p[0])))


@st.composite
def sim_specs(draw):
    return SimulationSpec(
        algorithm=draw(names),
        model=draw(st.sampled_from(MODELS)),
        budget=draw(st.integers(1, 64)),
        max_rounds=draw(st.integers(1, 10**5)),
        trace=draw(st.sampled_from(TRACE_POLICIES)),
        seed=draw(st.integers()),
        faults=draw(st.none() | fault_plans()),
        ids=draw(st.sampled_from(ID_SCHEMES)),
        churn=draw(st.none() | churn_plans()),
        byzantine=draw(st.none() | byzantine_plans()),
        delay=draw(st.integers(0, 8)),
    )


radius_policies = st.builds(
    RadiusPolicy,
    one_cut_radius=st.integers(1, 9),
    two_cut_radius=st.integers(2, 9),
    dimension=st.integers(0, 3),
    label=names,
)
run_configs = st.builds(
    RunConfig,
    policy=st.none() | radius_policies,
    mode=st.sampled_from(MODES),
    validate=st.sampled_from(VALIDATION_LEVELS),
    solver=st.sampled_from(SOLVER_BACKENDS),
    opt_cache=st.booleans(),
    seed=st.integers(),
)
algorithm_results = st.builds(
    AlgorithmResult,
    name=names,
    solution=st.sets(vertices, max_size=6),
    rounds=counts,
    phases=st.dictionaries(names, st.sets(vertices, max_size=4), max_size=3),
    round_breakdown=st.dictionaries(names, counts, max_size=3),
    metadata=st.dictionaries(names, json_scalars, max_size=3),
)
run_reports = st.builds(
    RunReport,
    algorithm=names,
    problem=st.sampled_from(("mds", "mvc")),
    instance=st.dictionaries(names, json_scalars, max_size=3),
    result=st.none() | algorithm_results,
    config=run_configs,
    wall_time=finite,
    valid=st.none() | st.booleans(),
    optimum_size=st.none() | counts,
    ratio=st.none() | finite,
)


@st.composite
def sim_reports(draw):
    return SimReport(
        algorithm=draw(names),
        problem=draw(st.sampled_from(("mds", "mvc"))),
        model=draw(st.sampled_from(MODELS)),
        instance=draw(st.dictionaries(names, json_scalars, max_size=3)),
        spec=draw(st.none() | sim_specs()),
        outputs=draw(st.dictionaries(vertices, json_scalars, max_size=6)),
        rounds=draw(counts),
        total_messages=draw(counts),
        total_payload=draw(st.none() | counts),
        dropped_messages=draw(counts),
        swallowed_messages=draw(counts),
        crashed=_sorted(draw(st.lists(vertices, max_size=4))),
        round_stats=draw(
            st.none() | st.lists(st.builds(RoundStats, counts, counts, counts), max_size=3)
        ),
        delayed_messages=draw(counts),
        churn_events=draw(counts),
        churn_lost_messages=draw(counts),
        suspicion=draw(
            st.dictionaries(vertices, st.dictionaries(names, counts, max_size=3), max_size=3)
        ),
        failed=_sorted(draw(st.lists(vertices, max_size=4))),
        timed_out=draw(st.booleans()),
    )


def _wire(obj):
    """``from_dict(type(obj), ...)`` of the JSON text of ``to_dict(obj)``."""
    return from_dict(type(obj), json.loads(json.dumps(to_dict(obj))))


def _untrivial(spec):
    """The documented decode of default-skipped trivial plans: ``None``."""
    if spec is None:
        return None
    return spec.with_(
        churn=None if spec.churn is None or spec.churn.is_trivial else spec.churn,
        byzantine=None
        if spec.byzantine is None or spec.byzantine.is_trivial
        else spec.byzantine,
    )


# -- 1. codec round-trips -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.one_of(fault_plans(), churn_plans(), byzantine_plans(), run_configs))
def test_plan_and_config_roundtrip(obj):
    assert _wire(obj) == obj


@settings(max_examples=60, deadline=None)
@given(sim_specs())
def test_sim_spec_roundtrip(spec):
    assert _wire(spec) == _untrivial(spec)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algorithm_results, run_reports))
def test_result_and_run_report_roundtrip(obj):
    assert _wire(obj) == obj


@settings(max_examples=60, deadline=None)
@given(sim_reports())
def test_sim_report_roundtrip(report):
    assert _wire(report) == replace(report, spec=_untrivial(report.spec))


# -- 2. text grammars ---------------------------------------------------------

#: Labels the CLI grammars can spell: digits read back as ints, and
#: letters-only words as strings (no separators, no leading minus).
grammar_labels = st.integers(0, 99) | st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=4
)


def render_faults(plan: FaultPlan) -> str:
    parts = []
    if plan.drop_probability:
        parts.append(f"drop={plan.drop_probability!r}")
    entries = [str(v) for v in plan.crashed]
    entries += [f"{v}@{when}" for v, when in plan.crash_schedule]
    if entries:
        parts.append("crash=" + "+".join(entries))
    return ",".join(parts)


def render_churn(plan: ChurnPlan) -> str:
    parts = [f"rate={plan.rate!r}", f"until={plan.until}"]
    for event in plan.events:
        word = {"add_edge": "add", "del_edge": "del"}.get(event.kind, event.kind)
        body = str(event.u) if event.v is None else f"{event.u}-{event.v}"
        parts.append(f"{word}:{body}@{event.round}")
    return ",".join(parts)


def render_byzantine(plan: ByzantinePlan) -> str:
    return ",".join(f"{behavior}={v}" for v, behavior in plan.behaviors)


@settings(max_examples=80, deadline=None)
@given(fault_plans(grammar_labels))
def test_fault_grammar_roundtrip(plan):
    assert parse_faults(render_faults(plan)) == plan


@settings(max_examples=80, deadline=None)
@given(churn_plans(grammar_labels))
def test_churn_grammar_roundtrip(plan):
    assert parse_churn(render_churn(plan)) == plan


@settings(max_examples=80, deadline=None)
@given(byzantine_plans(grammar_labels))
def test_byzantine_grammar_roundtrip(plan):
    assert parse_byzantine(render_byzantine(plan)) == plan


# -- 3. serve wire fuzz -------------------------------------------------------

json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

#: Keys the schema reads, so the fuzz reaches past the first check.
_JOB_KEYS = (
    "kind", "instances", "algorithms", "config", "specs", "spec", "timeout",
    "simulate", "validate", "solver", "opt_cache", "seed",
)
_SPEC_KEYS = (
    "algorithm", "model", "budget", "max_rounds", "trace", "seed", "faults",
    "ids", "churn", "byzantine", "delay",
)
_INSTANCE_KEYS = ("family", "size", "seed", "graph", "meta")


def _mutated(base: dict, keys: tuple) -> st.SearchStrategy:
    return st.dictionaries(st.sampled_from(keys), json_values, max_size=3).map(
        lambda changes: {**base, **changes}
    )


_SOLVE = {"kind": "solve", "instances": [{"family": "fan", "size": 6}], "algorithms": ["d2"]}
_SIMULATE = {
    "kind": "simulate",
    "instances": [{"family": "tree", "size": 6}],
    "specs": [{"algorithm": "d2"}],
}

payloads = st.one_of(
    json_values,
    _mutated(_SOLVE, _JOB_KEYS),
    _mutated(_SIMULATE, _JOB_KEYS),
    _mutated({"algorithm": "d2"}, _SPEC_KEYS).map(lambda spec: {**_SIMULATE, "specs": [spec]}),
    _mutated({"family": "fan", "size": 6}, _INSTANCE_KEYS).map(
        lambda ref: {**_SOLVE, "instances": [ref]}
    ),
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_parse_job_raises_only_spec_errors(payload):
    try:
        parsed = parse_job(payload)
    except SpecError:
        return
    assert isinstance(parsed, ParsedJob)
