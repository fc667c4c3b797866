"""Reference readers and scorers that only the tests use.

``parse_json_lines`` reads a json_lines report back into its records,
``sentence_score`` is the one-pair sentence similarity that a run's batched
sentence family is checked against, ``second_writer_between`` interleaves
two writers of one cache entry, and ``bench_module`` imports a module of the
benchmark, which the tests only read.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

from labeleval.embeddings import cosine
from labeleval.sentence import ProviderConfig, fetch_embeddings


def parse_json_lines(path: str | Path) -> list[dict]:
    with Path(path).open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def sentence_score(truth_text: str, predicted_text: str,
                   config: ProviderConfig, **fetch_kwargs) -> float:
    """Cosine similarity of the two texts' provider embeddings."""
    vectors = fetch_embeddings(config, [truth_text, predicted_text], **fetch_kwargs)
    return cosine(vectors[0], vectors[1])


def second_writer_between(monkeypatch, second) -> None:
    """Run ``second()`` once, when the first writer has written its entry's
    temporary file and is about to move it into place."""
    replace = os.replace

    def interleaved(source, target):
        monkeypatch.setattr(os, "replace", replace)
        second()
        replace(source, target)

    monkeypatch.setattr(os, "replace", interleaved)


BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def bench_module(name: str):
    """``benchmarks/<name>.py``, imported once under a name of its own."""
    key = f"_bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # a dataclass looks its module up there
        spec.loader.exec_module(module)
    return sys.modules[key]
