"""Built-in registrations: every algorithm the reproduction ships.

Importing this module (which :mod:`repro.api` and the batch runner both
do) populates the registry with the paper's algorithms, the folklore
baselines of Table 1, and the exact/greedy references.  The table:

=================  =======  ===============  ==========================
name               problem  modes            guarantee
=================  =======  ===============  ==========================
algorithm1         mds      fast, simulate   50 (Thm 4.1)
algorithm2         mds      fast, simulate   25(d+1)+1 (Thm 4.3)
d2                 mds      fast             2t-1 (Thm 4.4)
degree_two         mds      fast             3 on trees (folklore)
take_all           mds      fast             t on K_{1,t}-free
greedy             mds      fast             ln(Delta) (distributed)
greedy_central     mds      fast             ln(Delta) (centralized)
exact              mds      fast             1 (full gather)
local_cuts_vc      mvc      fast, simulate   O_t(1) (Thm 4.1 variant)
d2_vc              mvc      fast             t (Thm 4.4 variant)
matching_vc        mvc      fast             2 (maximal matching)
exact_vc           mvc      fast             1 (full gather, OPT cache)
=================  =======  ===============  ==========================

Algorithms whose systems-style per-node protocol ships in
:mod:`repro.local_model.protocols` / :mod:`repro.core.distributed_greedy`
additionally register a ``protocol_factory``, which makes them runnable
on the simulation engine through :func:`repro.api.simulate`
(``d2``, ``degree_two``, ``take_all``, ``greedy``).
"""

from __future__ import annotations

import networkx as nx

from repro.api.config import RunConfig
from repro.api.registry import register_algorithm
from repro.core.algorithm1 import algorithm1
from repro.core.baselines import (
    degree_two_dominating_set,
    full_gather_exact,
    take_all_vertices,
)
from repro.core.d2 import d2_dominating_set
from repro.core.distributed_greedy import (
    DistributedGreedyProtocolFull,
    distributed_greedy_dominating_set,
)
from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.core.vertex_cover import d2_vertex_cover, local_cuts_vertex_cover
from repro.graphs.util import graph_diameter
from repro.local_model.protocols import (
    D2Protocol,
    DegreeTwoProtocol,
    TakeAllProtocol,
)
from repro.solvers.greedy import greedy_dominating_set
from repro.solvers.opt_cache import optimum_solution
from repro.solvers.vc import matching_vertex_cover


def _protocol(cls):
    """Engine factory for graph/spec-independent per-node protocols."""

    def build(graph, spec):
        return cls

    return build


@register_algorithm(
    name="algorithm1",
    problem="mds",
    summary="Theorem 4.1: constant-approximation LOCAL MDS via local cuts",
    modes=("fast", "simulate"),
    default_policy=RadiusPolicy.practical,
    assumes="K_{2,t}-minor-free",
    guarantee="50",
    round_complexity="O_t(1)",
    tags=("paper",),
)
def _run_algorithm1(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    policy = config.policy or RadiusPolicy.practical()
    return algorithm1(graph, policy, mode=config.mode)


@register_algorithm(
    name="algorithm2",
    problem="mds",
    summary="Theorem 4.3: the asymptotic-dimension parameterisation",
    modes=("fast", "simulate"),
    default_policy=RadiusPolicy.practical,
    assumes="asymptotic dimension d with control f",
    guarantee="25(d+1)+1",
    round_complexity="O_{t,f}(1)",
    tags=("paper",),
)
def _run_algorithm2(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    # Same pipeline as Algorithm 1 under an asdim-derived policy (see
    # repro.core.algorithm2).  The default is the practical preset; pass
    # config.policy = RadiusPolicy.from_asdim(d, f) for the real radii.
    policy = config.policy or RadiusPolicy.practical()
    result = algorithm1(graph, policy, mode=config.mode)
    result.name = "algorithm2"
    result.metadata["dimension"] = policy.dimension
    return result


@register_algorithm(
    name="d2",
    problem="mds",
    summary="Theorem 4.4: the 3-round D2 rule on the twin-free graph",
    assumes="K_{2,t}-minor-free",
    guarantee="2t-1",
    round_complexity="3",
    protocol_factory=_protocol(D2Protocol),
    tags=("paper",),
)
def _run_d2(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return d2_dominating_set(graph)


@register_algorithm(
    name="degree_two",
    problem="mds",
    summary="folklore tree rule: take every vertex of degree >= 2",
    assumes="trees",
    guarantee="3",
    round_complexity="2",
    protocol_factory=_protocol(DegreeTwoProtocol),
    tags=("baseline",),
)
def _run_degree_two(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return degree_two_dominating_set(graph)


@register_algorithm(
    name="take_all",
    problem="mds",
    summary="0-round baseline: every vertex joins",
    assumes="K_{1,t}-minor-free",
    guarantee="t",
    round_complexity="0",
    protocol_factory=_protocol(TakeAllProtocol),
    tags=("baseline",),
)
def _run_take_all(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return take_all_vertices(graph)


@register_algorithm(
    name="greedy",
    problem="mds",
    summary="distributed locally-maximal greedy (non-constant rounds)",
    guarantee="ln(Delta)",
    round_complexity="O(phases)",
    protocol_factory=_protocol(DistributedGreedyProtocolFull),
    tags=("reference",),
)
def _run_greedy(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return distributed_greedy_dominating_set(graph)


@register_algorithm(
    name="greedy_central",
    problem="mds",
    summary="centralized sequential greedy (set-cover classic)",
    guarantee="ln(Delta)",
    round_complexity="global",
    tags=("reference",),
)
def _run_greedy_central(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    solution = greedy_dominating_set(graph)
    return AlgorithmResult(
        name="greedy_central", solution=solution, rounds=len(solution),
        phases={"greedy": set(solution)},
    )


@register_algorithm(
    name="exact",
    problem="mds",
    summary="full gather + exact MDS (footnote 2; solver per config)",
    guarantee="1",
    round_complexity="diam(G)+1",
    tags=("reference",),
)
def _run_exact(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return full_gather_exact(graph, solver=config.solver, use_cache=config.opt_cache)


@register_algorithm(
    name="local_cuts_vc",
    problem="mvc",
    summary="Theorem 4.1 MVC variant: all local 2-cut vertices, then brute",
    modes=("fast", "simulate"),
    default_policy=RadiusPolicy.practical,
    assumes="K_{2,t}-minor-free",
    guarantee="O_t(1)",
    round_complexity="O_t(1)",
    tags=("paper",),
)
def _run_local_cuts_vc(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    policy = config.policy or RadiusPolicy.practical()
    return local_cuts_vertex_cover(graph, policy, mode=config.mode)


@register_algorithm(
    name="d2_vc",
    problem="mvc",
    summary="Theorem 4.4 MVC variant: twins + D2 + bare-edge patch",
    assumes="K_{2,t}-minor-free",
    guarantee="t",
    round_complexity="4",
    tags=("paper",),
)
def _run_d2_vc(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    return d2_vertex_cover(graph)


@register_algorithm(
    name="matching_vc",
    problem="mvc",
    summary="maximal-matching 2-approximation (classical baseline)",
    guarantee="2",
    round_complexity="O(log n)",
    tags=("baseline",),
)
def _run_matching_vc(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    solution = matching_vertex_cover(graph)
    return AlgorithmResult(
        name="matching_vc", solution=set(solution), rounds=1,
        phases={"matching": set(solution)},
    )


@register_algorithm(
    name="exact_vc",
    problem="mvc",
    summary="full gather + exact MVC (MILP, via the OPT cache)",
    guarantee="1",
    round_complexity="diam(G)+1",
    tags=("reference",),
)
def _run_exact_vc(graph: nx.Graph, config: RunConfig) -> AlgorithmResult:
    if graph.number_of_edges() == 0:
        return AlgorithmResult(name="exact_vc", solution=set(), rounds=0)
    diameter = graph_diameter(graph)
    # Served from the per-instance OPT cache, as `exact` is: with ratio
    # validation the instance's MVC optimum is usually there already.
    solution = set(optimum_solution(graph, "mvc", "milp", use_cache=config.opt_cache))
    return AlgorithmResult(
        name="exact_vc",
        solution=solution,
        rounds=diameter + 1,
        phases={"exact": set(solution)},
        metadata={"diameter": diameter},
    )
