"""Structure recovery and experiment persistence.

Builds a Ding-style augmentation, recovers its fans and strip segments
(Section 5.4's building blocks), runs the charging analysis of
Lemma 3.3, and persists the instance plus results as replayable JSON.

Usage: python examples/structure_and_persistence.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.charging import charging_profile
from repro.core.algorithm1 import algorithm1
from repro.core.results import AlgorithmResult
from repro.graphs.random_families import random_ding_augmentation
from repro.graphs.structure import structure_summary
from repro.io import from_dict, load_graph, load_rows, save_graph, save_rows, to_dict


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for seed in range(4):
        graph = random_ding_augmentation(4, 3, seed)
        summary = structure_summary(graph)
        profile = charging_profile(graph)
        result = algorithm1(graph)
        rows.append(
            [
                seed,
                graph.number_of_nodes(),
                summary["fan_count"],
                summary["strip_segments"],
                "yes" if summary["outerplanar"] else "no",
                profile.interesting_count,
                profile.max_charge,
                profile.max_distance,
                result.size,
            ]
        )
        save_graph(graph, out_dir / f"instance_{seed}.json", meta={"seed": seed})
        save_rows([to_dict(result)], out_dir / f"result_{seed}.json")

    print(
        format_table(
            [
                "seed", "n", "fans", "strips", "outerplanar",
                "interesting", "max charge", "max dist", "|S|",
            ],
            rows,
        )
    )
    print(f"\ninstances and results written to {out_dir}")

    # Round-trip check: replay one stored instance against its stored result.
    again = algorithm1(load_graph(out_dir / "instance_0.json"))
    stored = from_dict(AlgorithmResult, load_rows(out_dir / "result_0.json")[0])
    print(f"replayed instance 0: same solution = {again.solution == stored.solution}")


if __name__ == "__main__":
    main()
