"""Anatomy of a LOCAL-model run: ports, messages, views, decisions.

Walks through the simulator layer by layer on a tiny graph so the
executable semantics of the model (Section 1 of the paper) are visible:
what a node knows initially, what each round's messages carry, and how
"gather radius r, then decide" emerges.

Usage: python examples/local_simulation_walkthrough.py
"""

from repro.core.algorithm1 import decide_membership
from repro.core.radii import RadiusPolicy
from repro.graphs import generators
from repro.local_model.engine import SimulationEngine
from repro.local_model.gather import GatherAlgorithm, gather_views
from repro.local_model.identifiers import spread_ids
from repro.local_model.network import Network


def main() -> None:
    graph = generators.ladder(4)
    print(f"network: ladder with {graph.number_of_nodes()} nodes\n")

    # 1. Initially a node knows only its identifier and its ports.
    ids = spread_ids(graph)  # deliberately non-contiguous identifiers
    network = Network(graph, ids)
    node = network.nodes[0]
    print(f"node at vertex 0: uid={node.uid}, degree={node.degree}")
    print("  (it does NOT know its neighbors' uids yet)\n")

    # 2. Run the gathering protocol for radius 2 on the engine (LOCAL
    #    scheduler, full per-round trace by default) and watch the trace.
    engine = SimulationEngine(network, max_rounds=10)
    result = engine.run(lambda: GatherAlgorithm(2))
    for stats in result.round_stats:
        print(
            f"round {stats.round_index}: {stats.messages} messages, "
            f"{stats.payload_units} payload units"
        )
    view = result.outputs[0]
    print(
        f"\nafter {result.rounds} rounds, vertex 0 (uid {view.center}) knows "
        f"{view.graph.number_of_nodes()} vertices and "
        f"{view.graph.number_of_edges()} edges; exact out to radius "
        f"{view.complete_radius}"
    )

    # 3. Views feed pure decision functions.  Here: the Algorithm 1
    #    membership decision for every node, from its own view only.
    policy = RadiusPolicy.practical()
    radius = policy.detection_radius + 6  # enough for this tiny graph
    views, trace = gather_views(graph, radius, ids)
    members = sorted(uid for uid, v in views.items() if decide_membership(v, policy))
    print(
        f"\nAlgorithm 1 decisions from radius-{radius} views "
        f"({trace.round_count} rounds): members = {members}"
    )
    back = {uid: vertex for vertex, uid in ids.items()}
    print(f"as graph vertices: {sorted(back[uid] for uid in members)}")

    # 4. The layers above sit behind one front door: repro.api.simulate
    #    drives the same engine from a declarative spec (model, trace
    #    policy, fault plan, identifier scheme) — this is what the CLI's
    #    `repro simulate` and the experiment sweeps call.
    from repro.api import SimulationSpec, simulate

    report = simulate(graph, SimulationSpec(algorithm="d2", ids="spread", trace="full"))
    print(
        f"\nfront door: D2 on the engine in {report.rounds} rounds, "
        f"{report.total_messages} messages; chosen = {sorted(report.chosen)}"
    )


if __name__ == "__main__":
    main()
