"""Suppression comments and the lint engine's file-level behavior."""

from __future__ import annotations

import textwrap

from repro.lint import (
    PARSE_ERROR_RULE,
    Suppressions,
    all_rules,
    lint_source,
)


def dedent(source: str) -> str:
    return textwrap.dedent(source)


# -- Suppressions unit behavior ----------------------------------------------


def test_same_line_suppression():
    sup = Suppressions("x = 1  # repro: ignore[RPR001] caller rebuilds\n")
    assert sup.is_suppressed(1, "RPR001")
    assert not sup.is_suppressed(1, "RPR002")
    assert not sup.is_suppressed(2, "RPR001")


def test_standalone_comment_covers_next_code_line():
    sup = Suppressions("# repro: ignore[RPR002] documented exception\nx = 1\n")
    assert sup.is_suppressed(1, "RPR002")
    assert sup.is_suppressed(2, "RPR002")


def test_multi_line_comment_block_reaches_code():
    source = dedent(
        """
        # repro: ignore[RPR002] the one per-graph cache — derived results
        # live in each kernel's memo.
        _KERNELS = weakref.WeakKeyDictionary()
        """
    ).lstrip()
    sup = Suppressions(source)
    assert sup.is_suppressed(3, "RPR002")


def test_multiple_rule_ids_in_one_comment():
    sup = Suppressions("x = f()  # repro: ignore[RPR001, RPR003]\n")
    assert sup.is_suppressed(1, "RPR001")
    assert sup.is_suppressed(1, "RPR003")
    assert not sup.is_suppressed(1, "RPR005")


# -- engine integration ------------------------------------------------------

_FIRING = """
    def widen(graph, u, v):
        graph.add_edge(u, v)
        return graph
"""


def test_suppression_silences_finding():
    src = dedent(
        """
        def widen(graph, u, v):
            graph.add_edge(u, v)  # repro: ignore[RPR001] caller invalidates
            return graph
        """
    )
    assert lint_source(src, "demo.py", select=("RPR001",)) == []


def test_suppression_of_other_rule_does_not_silence():
    src = dedent(
        """
        def widen(graph, u, v):
            graph.add_edge(u, v)  # repro: ignore[RPR005] wrong rule id
            return graph
        """
    )
    findings = lint_source(src, "demo.py", select=("RPR001",))
    assert [f.rule for f in findings] == ["RPR001"]


def test_select_filters_rules():
    findings = lint_source(dedent(_FIRING), "demo.py", select=("RPR002",))
    assert findings == []


def test_parse_error_yields_rpr000():
    findings = lint_source("def broken(:\n", "demo.py")
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]


def test_findings_are_sorted_and_renderable():
    src = dedent(
        """
        import weakref

        _CACHE = weakref.WeakKeyDictionary()

        def widen(graph, u, v):
            graph.add_edge(u, v)
            return graph
        """
    )
    findings = lint_source(src, "demo.py")
    assert findings == sorted(findings)
    assert {f.rule for f in findings} == {"RPR001", "RPR002"}
    for finding in findings:
        assert finding.render().startswith("demo.py:")
        payload = finding.to_dict()
        assert payload["rule"] == finding.rule
        assert payload["line"] == finding.line


def test_rule_catalogue_is_complete():
    assert list(all_rules()) == [
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
    ]
    assert all(summary for summary in all_rules().values())
