"""Reference readers and scorers that only the tests use.

``parse_json_lines`` reads a json_lines report back into its records,
``sentence_score`` is the one-pair sentence similarity that a run's batched
sentence family is checked against, and ``second_writer_between`` interleaves
two writers of one cache entry.
"""

from __future__ import annotations

import json
import os
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
