"""Every model load that may use the model cache goes through ``load_model``.

``load_model`` reads the entry of the file's digest and format with
``_cached_store``, which hashes the file, and, on a miss, parses with an
``_EntryWriter`` that indexes what the parse checked. A second road to the cache could key an entry
by something other than the bytes it read, or serve one format's rows as the
other's. This parses each module under ``src/labeleval`` and fails on an
``_EntryWriter`` built, or ``_cached_store`` called, anywhere but in
``load_model``.
"""

from __future__ import annotations

from test_one_row_rule import _all_callers, _callers


def test_only_load_model_writes_an_entry():
    assert _all_callers("_EntryWriter") == {"embeddings:load_model"}


def test_only_load_model_reads_an_entry():
    assert _all_callers("_cached_store") == {"embeddings:load_model"}


def test_a_second_road_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def load_model(path):\n"
        "    return _cached_store(path) or _EntryWriter(path)\n"
        "class Loader:\n"
        "    def warm(self, path):\n"
        "        return embeddings._cached_store(path)\n"
        "writer = embeddings._EntryWriter('entry')\n", encoding="utf-8")
    assert _callers(path, "_EntryWriter") == {"load_model", "line 6"}
    assert _callers(path, "_cached_store") == {"load_model", "Loader.warm"}
