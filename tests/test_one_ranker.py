"""Records are ranked in one place: ``labelset.read_predictions`` cuts each
record to its top k objects as it reads the record's line.

``evaluate`` reads with the largest k and ``stats`` with its ``-k``, so
nothing else needs ``top_k``. This parses each module under
``src/labeleval`` and fails on a ``top_k`` call outside ``labelset``, or
inside ``labelset`` outside ``read_predictions``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "labeleval"


def _is_top_k_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "top_k"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "top_k")


def _top_k_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if _is_top_k_call(node)]


def _rankers(path: Path) -> set[str]:
    """The module's top-level statements that call ``top_k``, a function by
    its name and any other statement by its line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {getattr(statement, "name", f"line {statement.lineno}")
            for statement in tree.body
            if any(map(_is_top_k_call, ast.walk(statement)))}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "labelset"),
                         ids=lambda path: path.stem)
def test_only_the_reader_ranks(path):
    assert _top_k_calls(path) == []


def test_a_call_by_either_name_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("top_k(record, 3)\nlabelset.top_k(record, 3)\n", encoding="utf-8")
    assert len(_top_k_calls(path)) == 2


def test_a_call_counts_for_its_top_level_statement(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def read(k):\n    def parse(r):\n        return top_k(r, k)\n"
                    "def count(rs):\n    return [top_k(r, 1) for r in rs]\n"
                    "ranked = top_k(record, 3)\n", encoding="utf-8")
    assert _rankers(path) == {"read", "count", "line 6"}


def test_the_reader_ranks():
    assert _top_k_calls(SRC / "labelset.py")


def test_within_labelset_only_read_predictions_ranks():
    assert _rankers(SRC / "labelset.py") == {"read_predictions"}
