"""Result records returned by the core algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

Vertex = Hashable


@dataclass
class AlgorithmResult:
    """Everything a run of a LOCAL MDS/MVC algorithm produced.

    ``rounds`` is the LOCAL-model round count charged to the run (view
    gathering plus constant overheads, itemised in ``round_breakdown``).
    ``phases`` itemises which rule admitted each vertex, for the
    per-phase analyses of Lemmas 3.2/3.3.
    """

    name: str
    solution: set[Vertex] = field(metadata={"sort": repr})
    rounds: int
    phases: dict[str, set[Vertex]] = field(default_factory=dict, metadata={"sort": repr})
    round_breakdown: dict[str, int] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict, metadata={"jsonable": True})

    @property
    def size(self) -> int:
        return len(self.solution)

    def phase_sizes(self) -> dict[str, int]:
        return {phase: len(members) for phase, members in self.phases.items()}
