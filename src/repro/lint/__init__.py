"""``repro.lint`` — contract-enforcing static analysis for this codebase.

The hot-path refactors (PRs 3–5) rest on invariants that are enforced
only by convention: mutate a graph and you must ``invalidate_kernel``
it, per-graph derived results must live in the kernel's ``memo``,
reports must stay byte-deterministic, registry capability flags
must match adapter behavior, and int bitset masks must never be treated
as containers.  This package checks those contracts mechanically — the
AST rules RPR001–RPR005 (see each ``rules_*`` module), an inline
suppression syntax (``# repro: ignore[RPRxxx] reason``), and the
``repro lint`` CLI subcommand that gates CI.

The static pass is paired with a *runtime* sanitizer in
:mod:`repro.graphs.kernel`: under ``REPRO_KERNEL_GUARD=1`` every kernel
cache hit re-verifies a structural fingerprint of the graph and raises
:class:`~repro.graphs.kernel.StaleKernelError` on a contract breach the
linter could not see (dynamic mutation through aliases, third-party
code, REPL use).
"""

from repro.lint.engine import (
    PARSE_ERROR_RULE,
    RULES,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.suppressions import Suppressions

__all__ = [
    "Finding",
    "PARSE_ERROR_RULE",
    "RULES",
    "Suppressions",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]
