"""The package decodes JSON in one place, ``labelset._parse_json``.

Record lines, fetch-cache entries, vendor and provider replies, sentence
vector lines and settings files all decode there, so a decode failure is one
ParseError with one message wherever it happens. This parses each module
under ``src/labeleval`` and fails on a second decoder: a ``json.load`` or
``json.loads`` call outside ``_parse_json``, or any ``.json()`` call, such as
a response's own decoder. It also fails on an ``except`` naming a decoder
failure (``JSONDecodeError``, ``RecursionError``) outside ``_parse_json``, or
``UnicodeDecodeError`` outside ``embeddings``, whose model files are not JSON.
No module may import ``pickle``, ``marshal`` or ``shelve``: a cache entry
that unpickles could run any code its bytes name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "labeleval"
UNPICKLERS = ("pickle", "marshal", "shelve")


def _decoder_nodes(tree: ast.Module) -> set[int]:
    """The ids of every node inside a function named ``_parse_json``."""
    return {id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_parse_json"
            for inner in ast.walk(node)}


def _is_json_load(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def _second_decoders(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    decoder = _decoder_nodes(tree) if path.stem == "labelset" else set()
    banned = {"JSONDecodeError", "RecursionError"}
    if path.stem != "embeddings":
        banned.add("UnicodeDecodeError")
    found = []
    for node in ast.walk(tree):
        if id(node) in decoder:
            continue
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if _is_json_load(node) or (isinstance(node, ast.Call)
                                   and isinstance(node.func, ast.Attribute)
                                   and node.func.attr == "json"):
            found.append(f"{where}: {ast.unparse(node.func)}()")
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names):
            found.append(f"{where}: from json import")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else [node.module or ""])
            found.extend(f"{where}: import {module}" for module in modules
                         if module.partition(".")[0] in UNPICKLERS)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node.type)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            found.extend(f"{where}: except {name}" for name in sorted(names & banned))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_second_decoder(path):
    assert _second_decoders(path) == []


@pytest.mark.parametrize("source", ["import pickle", "import os, marshal as m",
                                    "from shelve import open", "import pickle.x"])
def test_an_unpickler_import_is_a_second_decoder(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert len(_second_decoders(path)) == 1


def test_parse_json_is_the_decoder():
    tree = ast.parse((SRC / "labelset.py").read_text(encoding="utf-8"))
    decoder = _decoder_nodes(tree)
    assert len([node for node in ast.walk(tree)
                if id(node) in decoder and _is_json_load(node)]) == 1
