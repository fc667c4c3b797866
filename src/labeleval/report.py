"""Metric report: per-(api, k) score grid with ranking, colors, and emission.

Each column is ranked densely under its own direction (only the transport
distance counts lower as better) and colored on a green-to-yellow-to-red
gradient across the column's value range, matching the familiar conditional
formatting scale.
"""

from __future__ import annotations

import csv
import html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import EmptyReportError

_GREEN = (0x63, 0xBE, 0x7B)
_YELLOW = (0xFF, 0xEB, 0x84)
_RED = (0xF8, 0x69, 0x6B)

#: Canonical column order; (name, higher_is_better).
COLUMN_ORDER: tuple[tuple[str, bool], ...] = (
    ("accuracy", True),
    ("accuracy_semantic", True),
    ("recall", True),
    ("recall_semantic", True),
    ("precision", True),
    ("precision_semantic", True),
    ("f1", True),
    ("f1_semantic", True),
    ("macro_precision", True),
    ("macro_recall", True),
    ("macro_f1", True),
    ("micro_precision", True),
    ("micro_recall", True),
    ("micro_f1", True),
    ("wmd", False),
    ("sentence_similarity", True),
)


@dataclass(frozen=True)
class MetricColumn:
    name: str
    higher_is_better: bool


@dataclass
class ReportRow:
    api_id: str
    k: int
    cells: dict[str, float]
    extras: dict[str, float] = field(default_factory=dict)
    skips: dict[str, int] = field(default_factory=dict)
    ranks: dict[str, int] = field(default_factory=dict)
    colors: dict[str, str] = field(default_factory=dict)


@dataclass
class MetricReport:
    columns: list[MetricColumn]
    rows: list[ReportRow]
    provenance: dict = field(default_factory=dict)


def columns_for(names: Sequence[str]) -> list[MetricColumn]:
    """Columns in canonical order, restricted to the given names."""
    wanted = set(names)
    return [MetricColumn(name, better) for name, better in COLUMN_ORDER
            if name in wanted]


def _lerp(a: tuple[int, int, int], b: tuple[int, int, int], t: float) -> str:
    channels = tuple(round(a[c] + (b[c] - a[c]) * t) for c in range(3))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _gradient(t: float) -> str:
    # t = 0 best (green), 0.5 middle (yellow), 1 worst (red)
    if t <= 0.5:
        return _lerp(_GREEN, _YELLOW, t * 2)
    return _lerp(_YELLOW, _RED, (t - 0.5) * 2)


def rank_and_colorize(report: MetricReport) -> MetricReport:
    """Annotate every cell with a dense rank and a gradient color, in place.

    Each k level is its own comparison table, so ranks and colors are
    computed per (column, k) group; rank 1 is the group's best under the
    column's direction.
    """
    if not report.rows:
        raise EmptyReportError("cannot rank an empty report")
    for k in sorted({row.k for row in report.rows}):
        group = [row for row in report.rows if row.k == k]
        for column in report.columns:
            values = [row.cells[column.name] for row in group]
            ordered = sorted(set(values), reverse=column.higher_is_better)
            rank_of = {value: position + 1 for position, value in enumerate(ordered)}
            best = ordered[0]
            worst = ordered[-1]
            span = worst - best
            for row in group:
                value = row.cells[column.name]
                row.ranks[column.name] = rank_of[value]
                row.colors[column.name] = _gradient(
                    0.5 if span == 0 else (value - best) / span)
    return report


def _row_record(report: MetricReport, row: ReportRow) -> dict:
    return {
        "api_id": row.api_id,
        "k": row.k,
        "metrics": {c.name: row.cells[c.name] for c in report.columns},
        "ranks": {c.name: row.ranks.get(c.name) for c in report.columns},
        "colors": {c.name: row.colors.get(c.name) for c in report.columns},
        "extras": dict(row.extras),
        "skips": dict(row.skips),
        "provenance": report.provenance,
    }


def emit_json_lines(report: MetricReport, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for row in report.rows:
            handle.write(json.dumps(_row_record(report, row)) + "\n")
    return path


def _ks(report: MetricReport) -> list[int]:
    return sorted({row.k for row in report.rows})


def emit_csv(report: MetricReport, stem: str | Path) -> list[Path]:
    """One table per k as <stem>_k<k>.csv; values rendered to 3 decimals."""
    stem = Path(stem)
    extra_names = sorted({name for row in report.rows for name in row.extras})
    paths = []
    for k in _ks(report):
        path = stem.with_name(f"{stem.name}_k{k}.csv")
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["api_id"] + [c.name for c in report.columns]
                            + extra_names)
            for row in report.rows:
                if row.k != k:
                    continue
                writer.writerow(
                    [row.api_id]
                    + [f"{row.cells[c.name]:.3f}" for c in report.columns]
                    + [f"{row.extras.get(name, 0.0):.3f}" for name in extra_names])
        paths.append(path)
    return paths


def emit_html(report: MetricReport, path: str | Path) -> Path:
    """Single self-contained page, one color-styled table per k."""
    path = Path(path)
    parts = ["<!DOCTYPE html><html><head><meta charset=\"utf-8\">",
             "<title>Evaluation report</title></head>",
             "<body style=\"font-family: sans-serif;\">"]
    cell_style = "border: 1px solid #999; padding: 4px 8px; text-align: center;"
    for k in _ks(report):
        parts.append(f"<h2>Top {k} predictions</h2>")
        parts.append("<table style=\"border-collapse: collapse;\">")
        header = "".join(f"<th style=\"{cell_style}\">{html.escape(c.name)}</th>"
                         for c in report.columns)
        parts.append(f"<tr><th style=\"{cell_style}\">api_id</th>{header}</tr>")
        for row in report.rows:
            if row.k != k:
                continue
            cells = []
            for column in report.columns:
                color = row.colors.get(column.name, "#ffffff")
                cells.append(
                    f"<td style=\"{cell_style} background-color: {color};\">"
                    f"{row.cells[column.name]:.3f}</td>")
            parts.append(
                f"<tr><td style=\"{cell_style}\">{html.escape(row.api_id)}</td>"
                + "".join(cells) + "</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


#: The formats ``emit`` writes.
REPORT_FORMATS = ("csv", "json_lines", "html")


def emit(report: MetricReport, out: str | Path, fmt: str) -> list[Path]:
    """Write the report in the requested format; returns the created paths."""
    out = Path(out)
    if fmt == "json_lines":
        target = out if out.suffix == ".jsonl" else out.with_suffix(".jsonl")
        return [emit_json_lines(report, target)]
    if fmt == "csv":
        return emit_csv(report, out.with_suffix("") if out.suffix == ".csv" else out)
    if fmt == "html":
        target = out if out.suffix == ".html" else out.with_suffix(".html")
        return [emit_html(report, target)]
    raise ValueError(f"unknown report format: {fmt!r}")
