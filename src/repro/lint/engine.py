"""The lint driver: file discovery, rule execution, suppression filtering.

``lint_paths`` is the programmatic front door (the ``repro lint`` CLI
and the test fixtures both call it); ``lint_source`` checks one
in-memory module, which is what the rule tests use.  Findings come back
sorted by ``(path, line, col, rule)`` so text and JSON output are
byte-deterministic — the linter holds itself to RPR003's contract.

A file that fails to parse yields a single ``RPR000`` finding instead of
aborting the run, so one broken file cannot hide findings in the rest
of the tree.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules_bitset import BitsetDisciplineRule
from repro.lint.rules_determinism import NondeterminismRule
from repro.lint.rules_io import AtomicWriteRule
from repro.lint.rules_kernel import (
    ModuleWeakCacheRule,
    MutationWithoutInvalidateRule,
)
from repro.lint.rules_registry import RegistryHygieneRule
from repro.lint.suppressions import Suppressions

PARSE_ERROR_RULE = "RPR000"

#: The rule catalogue, in id order.  Adding a rule here is the whole
#: registration: the CLI's ``--select`` choices, the README table, and
#: ``all_rules()`` derive from this list.
RULES = (
    MutationWithoutInvalidateRule(),
    ModuleWeakCacheRule(),
    NondeterminismRule(),
    RegistryHygieneRule(),
    BitsetDisciplineRule(),
    AtomicWriteRule(),
)


def all_rules() -> dict[str, str]:
    """``rule id -> one-line summary`` for the whole catalogue."""
    return {rule.rule: rule.summary for rule in RULES}


def lint_source(
    source: str, path: str = "<string>", select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one module given as source text; returns sorted findings."""
    selected = set(select) if select is not None else None
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
            )
        ]
    module = ModuleContext(path, source, tree)
    suppressions = Suppressions(source)
    findings: list[Finding] = []
    for rule in RULES:
        if selected is not None and rule.rule not in selected:
            continue
        for finding in rule.check(module):
            if not suppressions.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """All ``.py`` files under ``paths``, deterministically ordered."""
    files: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.update(
                candidate
                for candidate in path.rglob("*.py")
                if not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Sequence[str | Path], select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_source(path.read_text(), str(path), select=select))
    return sorted(findings)
