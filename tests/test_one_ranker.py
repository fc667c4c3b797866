"""Records are ranked in one place: ``labelset.read_predictions`` cuts each
record to its top k objects as it reads the record's line.

``evaluate`` reads with the largest k and ``stats`` with its ``-k``, so no
other module needs ``top_k``. This parses each module under
``src/labeleval`` and fails on a ``top_k`` call outside ``labelset``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "labeleval"


def _top_k_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "top_k"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "top_k")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "labelset"),
                         ids=lambda path: path.stem)
def test_only_the_reader_ranks(path):
    assert _top_k_calls(path) == []


def test_a_call_by_either_name_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("top_k(record, 3)\nlabelset.top_k(record, 3)\n", encoding="utf-8")
    assert len(_top_k_calls(path)) == 2


def test_the_reader_ranks():
    assert _top_k_calls(SRC / "labelset.py")
