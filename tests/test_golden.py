"""The street-scene report, pinned against a recorded golden copy.

``golden/street_scene_report.jsonl`` is the ``evaluate`` report of the
street-scene fixture at k in {1, 3, 5} with every metric family on except
the sentence provider. Inputs are written to a scratch directory and named
by relative paths, so the provenance block does not depend on where the
test runs. Ranks, extras, skips and provenance must match exactly and every
cell within 1e-12; a refactor that changes the summation order may move a
cell by rounding, never by more.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import street_scene
from labeleval.cli import main as cli_main
from labeleval.embeddings import save_text_model

GOLDEN = Path(__file__).parent / "golden" / "street_scene_report.jsonl"
CELL_TOLERANCE = 1e-12


def street_scene_report(directory: Path) -> bytes:
    """Run ``evaluate`` on the fixture inside ``directory``; return the report."""
    truth, predictions = street_scene.write_fixture_files(directory)
    save_text_model(street_scene.build_store(), directory / "model.txt")
    argv = ["evaluate", "--ground-truth", truth.name, "--embeddings", "model.txt",
            "--top-k", "1,3,5", "--out", "report.jsonl", "--format", "json_lines"]
    for path in predictions:
        argv += ["--predictions", path.name]
    previous = os.getcwd()
    os.chdir(directory)
    try:
        assert cli_main(argv) == 0
    finally:
        os.chdir(previous)
    return (directory / "report.jsonl").read_bytes()


def _rows(blob: bytes) -> list[dict]:
    return [json.loads(line) for line in blob.decode("utf-8").splitlines()]


def test_street_scene_report_matches_golden(tmp_path, capsys):
    rows = _rows(street_scene_report(tmp_path))
    capsys.readouterr()
    golden = _rows(GOLDEN.read_bytes())
    assert [(r["api_id"], r["k"]) for r in rows] == \
        [(g["api_id"], g["k"]) for g in golden]
    for row, expected in zip(rows, golden):
        where = f"{row['api_id']}/k={row['k']}"
        assert list(row["metrics"]) == list(expected["metrics"]), where
        for column, value in expected["metrics"].items():
            assert abs(row["metrics"][column] - value) <= CELL_TOLERANCE, \
                (where, column, row["metrics"][column], value)
        assert row["ranks"] == expected["ranks"], where
        assert row["extras"] == expected["extras"], where
        assert row["skips"] == expected["skips"], where
        assert row["provenance"] == expected["provenance"], where
