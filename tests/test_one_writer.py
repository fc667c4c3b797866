"""Every cache entry is written by one writer, ``embeddings.write_entry``.

The model cache, the fetch cache and the sentence cache each put an entry in
place through a temporary file of its own that is then moved over the
entry's name, so a reader sees a whole entry or none. This parses each
module under ``src/labeleval`` and fails on a ``tempfile.mkstemp`` or
``os.replace`` call outside ``write_entry``, or on either name imported
bare, where a call would not name its module.
"""

from __future__ import annotations

import ast

from test_one_row_rule import MODULES, _all_callers, _callers

_WRITER_CALLS = ("tempfile.mkstemp", "os.replace")


def test_temporary_files_are_made_and_moved_by_write_entry_alone():
    for name in _WRITER_CALLS:
        assert _all_callers(name) == {"embeddings:write_entry"}, name


def test_neither_call_is_imported_bare():
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imported = {f"{node.module}.{alias.name}" for alias in node.names}
                assert not imported & set(_WRITER_CALLS), path.name


def test_a_dotted_name_counts_only_its_module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def write(temp, target):\n"
        "    os.replace(temp, target)\n"
        "def spell(text):\n"
        "    return text.replace(' ', '_')\n"
        "def move(a, b):\n"
        "    return shutil.replace(a, b), replace(a, b)\n", encoding="utf-8")
    assert _callers(path, "os.replace") == {"write"}
    assert _callers(path, "replace") == {"write", "spell", "move"}
