"""Graph substrate: generators, cuts, twins, minors, decompositions.

This subpackage implements every graph-theoretic primitive the paper
relies on:

* the CSR + bitset graph kernel every hot path runs on
  (:mod:`repro.graphs.kernel`),
* neighborhood/ball utilities (:mod:`repro.graphs.util`),
* true-twin reduction (:mod:`repro.graphs.twins`),
* global and *local* cut machinery, Definition 2.1 of the paper
  (:mod:`repro.graphs.cuts`, :mod:`repro.graphs.local_cuts`),
* block-cut trees and a triconnected decomposition
  (:mod:`repro.graphs.blockcut`, :mod:`repro.graphs.spqr`),
* ``K_{2,t}``-minor detection (:mod:`repro.graphs.minors`),
* asymptotic-dimension covers (:mod:`repro.graphs.asdim`),
* generators for every family used in the paper's Table 1 and proofs
  (:mod:`repro.graphs.generators`, :mod:`repro.graphs.ding`,
  :mod:`repro.graphs.random_families`, :mod:`repro.graphs.families`).
"""

from repro.graphs.kernel import (
    GraphKernel,
    KernelView,
    StaleKernelError,
    instance_from_wire,
    invalidate_kernel,
    kernel_backend,
    kernel_for,
    kernel_from_edge_file,
    kernel_from_edges,
    kernel_from_wire,
    kernel_guard_enabled,
    read_wire,
    set_kernel_backend,
    set_kernel_guard,
    write_wire,
)
from repro.graphs.packed import PackedGraphKernel
from repro.graphs.util import (
    closed_neighborhood,
    closed_neighborhood_of_set,
    ball,
    induced_ball,
    weak_diameter,
    r_components,
    is_d_bounded,
)
from repro.graphs.twins import true_twin_classes, remove_true_twins, has_true_twins
from repro.graphs.cuts import (
    cut_vertices,
    minimal_two_cuts,
    is_cut,
    is_minimal_cut,
    crossing_two_cuts,
)
from repro.graphs.local_cuts import (
    local_one_cuts,
    local_two_cuts,
    is_local_one_cut,
    is_local_two_cut,
    is_locally_k_connected,
)
from repro.graphs.blockcut import block_cut_tree, biconnected_blocks
from repro.graphs.minors import (
    has_k2t_minor,
    largest_k2t_minor,
    is_k2t_minor_free,
    has_minor,
)
from repro.graphs.asdim import (
    verify_cover,
    path_cover,
    tree_cover,
    bfs_layered_cover,
    control_function_k2t,
)

__all__ = [
    "GraphKernel",
    "PackedGraphKernel",
    "KernelView",
    "StaleKernelError",
    "kernel_for",
    "kernel_from_edges",
    "kernel_from_edge_file",
    "kernel_from_wire",
    "instance_from_wire",
    "invalidate_kernel",
    "kernel_backend",
    "set_kernel_backend",
    "write_wire",
    "read_wire",
    "kernel_guard_enabled",
    "set_kernel_guard",
    "closed_neighborhood",
    "closed_neighborhood_of_set",
    "ball",
    "induced_ball",
    "weak_diameter",
    "r_components",
    "is_d_bounded",
    "true_twin_classes",
    "remove_true_twins",
    "has_true_twins",
    "cut_vertices",
    "minimal_two_cuts",
    "is_cut",
    "is_minimal_cut",
    "crossing_two_cuts",
    "local_one_cuts",
    "local_two_cuts",
    "is_local_one_cut",
    "is_local_two_cut",
    "is_locally_k_connected",
    "block_cut_tree",
    "biconnected_blocks",
    "has_k2t_minor",
    "largest_k2t_minor",
    "is_k2t_minor_free",
    "has_minor",
    "verify_cover",
    "path_cover",
    "tree_cover",
    "bfs_layered_cover",
    "control_function_k2t",
]
