"""RPR005: int bitsets treated as containers, mask/label slot mixups."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source


def rpr005(source: str) -> list[str]:
    findings = lint_source(
        textwrap.dedent(source), "src/repro/solvers/demo.py", select=("RPR005",)
    )
    return [f.rule for f in findings]


def test_len_of_mask_fires():
    src = """
        def size(mask):
            return len(mask)
    """
    assert rpr005(src) == ["RPR005"]


def test_bit_count_is_quiet():
    src = """
        def size(mask):
            return mask.bit_count()
    """
    assert rpr005(src) == []


def test_iterating_mask_fires():
    src = """
        def walk(mask):
            for v in mask:
                yield v
    """
    assert rpr005(src) == ["RPR005"]


def test_comprehension_over_mask_fires():
    src = """
        def labels(dom_mask):
            return [v for v in dom_mask]
    """
    assert rpr005(src) == ["RPR005"]


def test_sorted_mask_fires():
    src = """
        def ordered(mask):
            return sorted(mask)
    """
    assert rpr005(src) == ["RPR005"]


def test_iterating_decoded_labels_is_quiet():
    src = """
        def walk(kernel, mask):
            for v in kernel.labels_of(mask):
                yield v
    """
    assert rpr005(src) == []


def test_membership_against_mask_fires():
    src = """
        def covered(v, mask):
            return v in mask
    """
    assert rpr005(src) == ["RPR005"]


def test_bit_test_is_quiet():
    src = """
        def covered(i, mask):
            return bool(mask >> i & 1)
    """
    assert rpr005(src) == []


def test_mask_into_label_parameter_fires():
    src = """
        def rebits(kernel, mask):
            return kernel.bits_of(mask)
    """
    assert rpr005(src) == ["RPR005"]


def test_label_container_into_mask_parameter_fires():
    src = """
        def decode(kernel):
            return kernel.labels_of({1, 2})
    """
    assert rpr005(src) == ["RPR005"]


def test_mask_into_mask_parameter_is_quiet():
    src = """
        def decode(kernel, mask):
            return kernel.labels_of(mask)
    """
    assert rpr005(src) == []


def test_mask_inferred_from_kernel_primitive_assignment():
    src = """
        def closed(kernel, vertices):
            cover = kernel.union_closed_bits(vertices)
            return len(cover)
    """
    assert rpr005(src) == ["RPR005"]


def test_int_mask_with_shift_is_quiet():
    src = """
        def bitset(kernel, items):
            mask = kernel.bits_of(items)
            return mask | (1 << 3)
    """
    assert rpr005(src) == []
