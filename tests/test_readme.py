"""The README agrees with the code: the "Run config" list names exactly the
keys a config file may set, the model cache names its current layout, and
the environment variables it names are the ones the source reads.

A key counts as named when it is backquoted before the first colon of one of
the list's entries, as in "- `threshold`: ...". The keys a config file may
set are the ones ``RunConfig.from_file`` looks up, recorded as it reads a
config that sets every one of them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from labeleval import harness

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "labeleval"


def readme_config_keys() -> set[str]:
    text = README.read_text(encoding="utf-8")
    block = text[text.index("- **Run config**"):]
    block = block[:block.index("\n- **", 1)]
    entries = re.split(r"\n  - ", block)[1:]  # the list's own entries
    return {name for entry in entries
            for name in re.findall(r"`([\w.]+)`", entry.split(":", 1)[0])}


class _Lookups(dict):
    """A JSON object that notes, as a dotted path, every key looked up in it."""

    def __init__(self, items, seen: set[str], prefix: str = ""):
        super().__init__(items)
        self.seen, self.prefix = seen, prefix

    def __contains__(self, key):
        self.seen.add(self.prefix + key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.seen.add(self.prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(self.prefix + key)
        return super().get(key, default)


def keys_read_by_from_file(tmp_path, monkeypatch) -> set[str]:
    seen: set[str] = set()
    payload = _Lookups({
        "ground_truth": "gt.jsonl", "predictions": ["a.jsonl"], "embeddings": "m.txt",
        **{key: None for key in harness._CONFIG_FIELDS},  # each one present
        "output": _Lookups({"path": "report", "format": "csv"}, seen, "output."),
    }, seen)
    monkeypatch.setattr(harness, "_parse_json", lambda text: payload)
    path = tmp_path / "run.json"
    path.write_text("{}", encoding="utf-8")
    try:
        harness.RunConfig.from_file(path)
    except ValueError:
        pass  # the values are placeholders; only the lookups matter
    # an object whose own keys were read is named by them
    return {key for key in seen if not any(other.startswith(key + ".") for other in seen)}


def test_readme_run_config_names_every_key_and_no_other(tmp_path, monkeypatch):
    read = keys_read_by_from_file(tmp_path, monkeypatch)
    assert read == {"ground_truth", "predictions", "embeddings",
                    *harness._CONFIG_FIELDS, "output.path", "output.format"}
    assert readme_config_keys() == read


def test_readme_names_entries_by_the_current_layout_version():
    """The model cache's "Key" entry names the layout version entries are
    written under."""
    from labeleval import embeddings

    text = README.read_text(encoding="utf-8")
    key = text[text.index("- **Key.**"):]
    key = key[:key.index("\n- **")]
    versions = re.findall(r"`<sha256>\.<size>\.(?:text|binary)\.v(\d+)`", key)
    assert versions == [str(embeddings._ENTRY_VERSION)] * 2


def test_readme_names_every_environment_variable_the_source_reads():
    """The ``LABELEVAL_*`` names README mentions are the ones a string
    constant under ``src/labeleval`` spells, which is how the source reads
    them."""
    pattern = re.compile(r"LABELEVAL_[A-Z0-9_]+")
    read = {node.value for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and pattern.fullmatch(node.value)}
    assert read
    assert set(pattern.findall(README.read_text(encoding="utf-8"))) == read
