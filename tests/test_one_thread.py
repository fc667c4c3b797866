"""A run has one helper thread at most: the reader of a hash pass.

``embeddings._HashingFile.hash_pass`` reads the next block of a file on a
thread of its own while the caller hashes the last, and joins that thread
before it returns. No other code starts a thread or a process: scoring runs
in one thread, with one BLAS thread. This parses each module under
``src/labeleval`` and fails on a ``threading.Thread`` built outside
``hash_pass``, on ``Thread`` imported bare, or on an import of
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import ast

from test_one_row_rule import MODULES, _all_callers

_POOLS = ("concurrent", "multiprocessing")


def _imported(tree: ast.AST) -> set[str]:
    """Every module an import in ``tree`` names, and each ``from`` import as
    ``module.name``; a relative import is of the package itself, and left out."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def _all_imported() -> dict[str, set[str]]:
    return {path.stem: _imported(ast.parse(path.read_text(encoding="utf-8")))
            for path in MODULES}


def test_a_thread_is_built_by_the_hash_pass_alone():
    assert _all_callers("threading.Thread") == {"embeddings:_HashingFile.hash_pass"}


def test_thread_is_not_imported_bare():
    for module, names in _all_imported().items():
        assert "threading.Thread" not in names, module


def test_no_module_imports_a_pool():
    for module, names in _all_imported().items():
        assert not {name for name in names
                    if name.split(".")[0] in _POOLS}, module


def test_every_import_spelling_is_seen():
    tree = ast.parse(
        "import concurrent.futures\n"
        "from multiprocessing import Pool\n"
        "from threading import Thread\n"
        "from . import harness\n"
        "def later():\n"
        "    import multiprocessing.pool as pool\n")
    assert _imported(tree) == {
        "concurrent.futures", "multiprocessing", "multiprocessing.Pool", "threading",
        "threading.Thread", "multiprocessing.pool"}
