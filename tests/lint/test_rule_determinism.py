"""RPR003: nondeterminism leaks in report-producing modules."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

REPORT_PATH = "src/repro/experiments/demo.py"
PLAIN_PATH = "src/repro/solvers/demo.py"


def rpr003(source: str, path: str = REPORT_PATH) -> list[str]:
    findings = lint_source(textwrap.dedent(source), path, select=("RPR003",))
    return [f.rule for f in findings]


# -- unsorted set iteration --------------------------------------------------


def test_set_loop_fires_in_report_module():
    src = """
        def report(graph):
            chosen = minimum_dominating_set(graph)
            for v in chosen:
                print(v)
    """
    assert rpr003(src) == ["RPR003"]


def test_sorted_set_loop_is_quiet():
    src = """
        def report(graph):
            chosen = minimum_dominating_set(graph)
            for v in sorted(chosen):
                print(v)
    """
    assert rpr003(src) == []


def test_set_literal_comprehension_fires():
    src = """
        def report():
            return [v for v in {3, 1, 2}]
    """
    assert rpr003(src) == ["RPR003"]


def test_list_conversion_of_set_fires():
    src = """
        def report(result):
            return list(result.solution)
    """
    assert rpr003(src) == ["RPR003"]


def test_join_over_set_fires():
    src = """
        def report(names):
            return ", ".join(set(names))
    """
    assert rpr003(src) == ["RPR003"]


def test_set_loop_allowed_outside_report_modules():
    src = """
        def solver_internal(graph):
            chosen = minimum_dominating_set(graph)
            best = None
            for v in chosen:
                best = v if best is None else min(best, v)
            return best
    """
    assert rpr003(src, path=PLAIN_PATH) == []


# -- wall-clock reads --------------------------------------------------------


def test_unsanctioned_time_read_fires():
    src = """
        import time

        def report():
            stamp = time.time()
            return {"stamp": stamp}
    """
    assert rpr003(src) == ["RPR003"]


def test_time_into_wall_time_slot_is_quiet():
    src = """
        import time

        def report():
            start = time.perf_counter()
            work()
            return {"wall_time": time.perf_counter() - start}
    """
    assert rpr003(src) == []


def test_time_keyword_argument_slot_is_quiet():
    src = """
        import time

        def report():
            return Row(wall_time=time.perf_counter())
    """
    assert rpr003(src) == []


# -- unseeded RNG (checked in every module) ----------------------------------


def test_global_rng_call_fires_everywhere():
    src = """
        import random

        def scramble(items):
            random.shuffle(items)
    """
    assert rpr003(src, path=PLAIN_PATH) == ["RPR003"]


def test_seedless_random_instance_fires():
    src = """
        import random

        def fresh_rng():
            return random.Random()
    """
    assert rpr003(src, path=PLAIN_PATH) == ["RPR003"]


def test_seeded_random_instance_is_quiet():
    src = """
        import random

        def rng_for(seed):
            return random.Random(seed)
    """
    assert rpr003(src, path=PLAIN_PATH) == []


# -- adversarial-layer modules are report modules ----------------------------


def test_adversary_and_scheduler_modules_are_report_modules():
    # Suspicion/degradation tallies flow straight into SimReports, so
    # the set-iteration check must cover the adversarial layer too.
    src = """
        def tally(changed):
            return [port for port in set(changed)]
    """
    for path in (
        "src/repro/local_model/adversary.py",
        "src/repro/local_model/schedulers.py",
    ):
        assert rpr003(src, path) == ["RPR003"]


def test_other_local_model_modules_stay_unmarked():
    src = """
        def tally(changed):
            return [port for port in set(changed)]
    """
    assert rpr003(src, "src/repro/local_model/engine.py") == []


# -- builtin hash (checked in every module) ----------------------------------


def test_builtin_hash_call_fires_everywhere():
    src = """
        def rank(v):
            return v if isinstance(v, int) else hash(repr(v))
    """
    assert rpr003(src, path=PLAIN_PATH) == ["RPR003"]
    assert rpr003(src) == ["RPR003"]


def test_hash_passed_as_key_fires():
    src = """
        def order(labels):
            return sorted(labels, key=hash)
    """
    assert rpr003(src, path=PLAIN_PATH) == ["RPR003"]


def test_hashlib_and_dunder_hash_are_quiet():
    src = """
        import hashlib

        class Key:
            def __hash__(self):
                return 7

        def digest(blob):
            return hashlib.sha256(blob).hexdigest()
    """
    assert rpr003(src, path=PLAIN_PATH) == []


def test_module_binding_its_own_hash_is_quiet():
    src = """
        import hashlib

        def digest(blob):
            hash = hashlib.sha256(blob)
            return hash.hexdigest()
    """
    assert rpr003(src, path=PLAIN_PATH) == []

