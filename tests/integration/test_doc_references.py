"""Every Markdown document the code names exists.

A ``*.md`` name in ``src/``, ``benchmarks/`` or ``perfbench/`` counts
as found next to the file that names it or at the repository root.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def named_documents():
    for top in ("src", "benchmarks", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".md") or "__pycache__" in path.parts:
                continue
            for name in MD_NAME.findall(path.read_text(encoding="utf-8")):
                yield path, name


def test_named_documents_exist():
    missing = [
        f"{path.relative_to(ROOT)} names {name}"
        for path, name in named_documents()
        if not (path.parent / name).exists() and not (ROOT / name).exists()
    ]
    assert not missing, missing


def test_scan_sees_the_perfbench_readme():
    assert ("workloads.py", "README.md") in {
        (path.name, name) for path, name in named_documents()
    }
