"""Output checks for one evaluate report (json_lines).

``problems(...)`` returns a list of human-readable defects; an empty list
means the report passes. The checks: one row per (api, k); every cell
finite and in [0, 1] except ``wmd``, which is >= 0; each semantic cell at
least its exact twin; provenance digests equal to the inputs' sha256; and,
where a reference for the seed is committed, every cell within 1e-12 of it
with identical ranks, extras, skips and provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

CELL_TOLERANCE = 1e-12
_EXACT_TWINS = ("accuracy", "precision", "recall", "f1")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_digests(inputs: Path, config: dict) -> dict:
    """The provenance block's digests, computed independently."""
    return {
        "ground_truth_digest": sha256_file(inputs / config["ground_truth"]),
        "prediction_digests": {p: sha256_file(inputs / p)
                               for p in config["predictions"]},
        "embeddings_digest": sha256_file(inputs / config["embeddings"]),
    }


def parse(report: bytes) -> list[dict]:
    return [json.loads(line) for line in report.decode("utf-8").splitlines()
            if line.strip()]


def reference_entry(rows: list[dict]) -> dict:
    """Compact record of a report, for committing as a reference."""
    columns = list(rows[0]["metrics"])
    return {
        "columns": columns,
        "provenance": rows[0]["provenance"],
        "rows": [[row["api_id"], row["k"], [row["metrics"][c] for c in columns],
                  [row["ranks"][c] for c in columns], row["extras"], row["skips"]]
                 for row in rows],
    }


def _against_reference(rows: list[dict], reference: dict) -> list[str]:
    found: list[str] = []
    if len(rows) != len(reference["rows"]):
        return [f"reference has {len(reference['rows'])} rows, report {len(rows)}"]
    columns = reference["columns"]
    for row, (api_id, k, values, ranks, extras, skips) in zip(rows, reference["rows"]):
        where = f"{row['api_id']}/k={row['k']}"
        if (row["api_id"], row["k"]) != (api_id, k):
            found.append(f"{where}: reference row is {api_id}/k={k}")
            continue
        if list(row["metrics"]) != columns:
            found.append(f"{where}: columns {list(row['metrics'])} != {columns}")
            continue
        for column, expected in zip(columns, values):
            if not abs(row["metrics"][column] - expected) <= CELL_TOLERANCE:
                found.append(f"{where}: {column}={row['metrics'][column]!r} differs "
                             f"from reference {expected!r}")
        if [row["ranks"][c] for c in columns] != ranks:
            found.append(f"{where}: ranks differ from reference")
        if row["extras"] != extras:
            found.append(f"{where}: extras differ from reference")
        if row["skips"] != skips:
            found.append(f"{where}: skips differ from reference")
    if rows[0]["provenance"] != reference["provenance"]:
        found.append("provenance differs from reference")
    return found


def problems(report: bytes, *, apis: list[str], top_ks: list[int],
             digests: dict, semantic: bool,
             reference: dict | None = None) -> list[str]:
    try:
        rows = parse(report)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report is not JSON lines: {exc}"]
    expected = sorted((api, k) for api in apis for k in top_ks)
    keys = sorted((row.get("api_id"), row.get("k")) for row in rows)
    if keys != expected:
        return [f"rows {keys} != expected {expected}"]
    found: list[str] = []
    for row in rows:
        where = f"{row['api_id']}/k={row['k']}"
        cells = row["metrics"]
        for column, value in cells.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                found.append(f"{where}: {column}={value!r} is not finite")
            elif column == "wmd" and value < 0:
                found.append(f"{where}: wmd={value!r} is negative")
            elif column != "wmd" and not 0.0 <= value <= 1.0:
                found.append(f"{where}: {column}={value!r} outside [0, 1]")
        for column in _EXACT_TWINS:
            twin = f"{column}_semantic"
            if semantic and twin not in cells:
                found.append(f"{where}: {twin} missing")
            elif twin in cells and column in cells and cells[twin] < cells[column]:
                found.append(f"{where}: {twin}={cells[twin]!r} < {column}="
                             f"{cells[column]!r}")
        provenance = row["provenance"]
        for key, value in digests.items():
            if provenance.get(key) != value:
                found.append(f"{where}: provenance {key} does not match the inputs")
    if reference is not None and not found:
        found.extend(_against_reference(rows, reference))
    return found
