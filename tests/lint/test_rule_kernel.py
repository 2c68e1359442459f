"""RPR001 (mutation without invalidate) and RPR002 (module-level weak cache)."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def rules(source: str, select: tuple[str, ...]) -> list[str]:
    findings = lint_source(
        textwrap.dedent(source), "src/repro/graphs/demo.py", select=select
    )
    return [f.rule for f in findings]


# -- RPR001: mutation without invalidate_kernel ------------------------------


def test_rpr001_fires_on_parameter_mutation():
    src = """
        def widen(graph, u, v):
            graph.add_edge(u, v)
            return graph
    """
    assert rules(src, ("RPR001",)) == ["RPR001"]


def test_rpr001_quiet_when_invalidated():
    src = """
        def widen(graph, u, v):
            graph.add_edge(u, v)
            invalidate_kernel(graph)
            return graph
    """
    assert rules(src, ("RPR001",)) == []


def test_rpr001_quiet_on_locally_built_graph():
    src = """
        def build(n):
            graph = nx.path_graph(n)
            graph.add_edge(0, n - 1)
            return graph
    """
    assert rules(src, ("RPR001",)) == []


def test_rpr001_quiet_on_copy():
    src = """
        def without_hub(graph):
            local = graph.copy()
            local.remove_node(0)
            return local
    """
    assert rules(src, ("RPR001",)) == []


def test_rpr001_fires_when_only_one_branch_invalidates():
    src = """
        def widen(graph, u, v, flag):
            graph.add_edge(u, v)
            if flag:
                invalidate_kernel(graph)
            return graph
    """
    assert rules(src, ("RPR001",)) == ["RPR001"]


def test_rpr001_quiet_when_every_branch_invalidates():
    src = """
        def widen(graph, u, v, flag):
            graph.add_edge(u, v)
            if flag:
                invalidate_kernel(graph)
            else:
                invalidate_kernel(graph)
            return graph
    """
    assert rules(src, ("RPR001",)) == []


def test_rpr001_fires_on_early_return_before_invalidate():
    src = """
        def widen(graph, u, v, flag):
            graph.add_edge(u, v)
            if flag:
                return None
            invalidate_kernel(graph)
            return graph
    """
    assert rules(src, ("RPR001",)) == ["RPR001"]


def test_rpr001_closure_over_fresh_local_is_quiet():
    src = """
        def random_outerplanar(n):
            graph = nx.cycle_graph(n)

            def triangulate(lo, hi):
                graph.add_edge(lo, hi)

            triangulate(0, 2)
            return graph
    """
    assert rules(src, ("RPR001",)) == []


def test_rpr001_closure_over_parameter_still_fires():
    src = """
        def mutator(graph):
            def tweak():
                graph.add_edge(0, 1)

            tweak()
    """
    assert rules(src, ("RPR001",)) == ["RPR001"]


def test_rpr001_fires_on_attribute_receiver():
    src = """
        class Runner:
            def drop(self, v):
                self.graph.remove_node(v)
    """
    assert rules(src, ("RPR001",)) == ["RPR001"]


def test_rpr001_ignores_non_graph_container_methods():
    # add/update/remove are generic container verbs, not graph mutators.
    src = """
        def collect(graph, chosen):
            chosen.add(0)
            chosen.update({1, 2})
            chosen.remove(1)
            return chosen
    """
    assert rules(src, ("RPR001",)) == []


# -- RPR002: module-level WeakKeyDictionary ---------------------------------


def test_rpr002_fires_on_unregistered_cache():
    src = """
        import weakref

        _CACHE = weakref.WeakKeyDictionary()
    """
    assert rules(src, ("RPR002",)) == ["RPR002"]


def test_rpr002_fires_even_when_passed_to_a_function():
    src = """
        import weakref

        from somewhere import track

        _CACHE = weakref.WeakKeyDictionary()
        track(_CACHE)
    """
    assert rules(src, ("RPR002",)) == ["RPR002"]


def test_rpr002_fires_on_annotated_cache():
    src = """
        import weakref

        _CACHE: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
    """
    assert rules(src, ("RPR002",)) == ["RPR002"]


def test_rpr002_ignores_function_local_caches():
    src = """
        import weakref

        def scratch():
            local = weakref.WeakKeyDictionary()
            return local
    """
    assert rules(src, ("RPR002",)) == []
