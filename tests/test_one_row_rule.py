"""The rules every model row keeps live in one place, ``embeddings._RowSink``.

The text parse, the binary parse and a cache read all fill a ``_RowSink``:
``_RowSink.add`` raises a repeated token at the place its filler names, and
``_RowSink.block`` finds the first non-finite row, which ``store`` raises.
This parses each module under ``src/labeleval`` and fails on a
``DuplicateTokenError`` built outside ``_RowSink.add`` and
``EmbeddingStore.__init__`` (a store built from entries, which has no file
to name), or a ``_first_bad_row`` call outside ``_RowSink.block`` and
``_check_serializable`` (a writer's check, before it opens its file).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "labeleval"
MODULES = sorted(SRC.glob("*.py"))


def _called(node: ast.AST, name: str) -> bool:
    """Whether ``node`` calls ``name``, bare or as any object's attribute; a
    dotted ``owner.name`` counts only as that attribute of ``owner``."""
    owner, _, name = name.rpartition(".")
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute) and func.attr == name:
        return not owner or isinstance(func.value, ast.Name) and func.value.id == owner
    return not owner and isinstance(func, ast.Name) and func.id == name


def _callers(path: Path, name: str) -> set[str]:
    """Where the module calls ``name``: each enclosing function by its dotted
    name (``Class.method``), and a call outside every function by its line."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name), False)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name), True)
            else:
                if _called(child, name):
                    found.add(".".join(scope) if in_function else f"line {child.lineno}")
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), (), False)
    return found


def _all_callers(name: str) -> set[str]:
    return {f"{path.stem}:{caller}" for path in MODULES
            for caller in _callers(path, name)}


def test_a_duplicate_token_is_raised_by_the_sink_or_the_entries_store():
    assert _all_callers("DuplicateTokenError") == {
        "embeddings:_RowSink.add", "embeddings:EmbeddingStore.__init__"}


def test_non_finite_rows_are_found_by_the_sink_or_a_writers_check():
    assert _all_callers("_first_bad_row") == {
        "embeddings:_RowSink.block", "embeddings:_check_serializable"}


def test_each_call_counts_for_its_enclosing_function(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "class Sink:\n"
        "    def add(self, t):\n"
        "        raise errors.DuplicateTokenError(t)\n"
        "    class Inner:\n"
        "        limit = check(1)\n"
        "def load(rows):\n"
        "    def walk():\n"
        "        return [check(r) for r in rows]\n"
        "    return walk\n"
        "bad = check(0)\n", encoding="utf-8")
    assert _callers(path, "DuplicateTokenError") == {"Sink.add"}
    assert _callers(path, "check") == {"line 5", "load.walk", "line 10"}
