"""Inline suppression comments for :mod:`repro.lint`.

Syntax::

    graph.add_edge(u, v)  # repro: ignore[RPR001] rebuilt by caller
    # repro: ignore[RPR002] the one per-graph cache
    _KERNELS = weakref.WeakKeyDictionary()

A suppression applies to findings of the named rule(s) on its own
physical line; a comment that stands alone on a line also covers the
next line, so contract exceptions can be documented above the code they
excuse.  Several ids may be listed (``# repro: ignore[RPR001, RPR003]``)
and anything after the closing bracket is free-form reason text —
suppressions without a reason are legal but frowned upon in review.
"""

from __future__ import annotations

import re

_PATTERN = re.compile(r"#\s*repro:\s*ignore\[([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]")


class Suppressions:
    """Per-file map of ``# repro: ignore[...]`` comments."""

    def __init__(self, source: str):
        # line number (1-based) -> set of suppressed rule ids
        self._by_line: dict[int, set[str]] = {}
        lines = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            match = _PATTERN.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            self._by_line.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                # Standalone comment: covers the next code line, skipping
                # over the rest of a multi-line comment block.
                nxt = lineno  # 0-based index of the following line
                while nxt < len(lines) and lines[nxt].lstrip().startswith("#"):
                    nxt += 1
                self._by_line.setdefault(nxt + 1, set()).update(rules)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether findings of ``rule`` on ``line`` are suppressed."""
        return rule in self._by_line.get(line, ())

    def __bool__(self) -> bool:
        return bool(self._by_line)
