import random
import re

import pytest

from helpers import parse_json_lines
from labeleval.errors import EmptyReportError
from labeleval.report import (
    MetricColumn,
    MetricReport,
    ReportRow,
    columns_for,
    emit,
    rank_and_colorize,
)


def simple_report(values_by_api, column="precision", higher=True, k=5):
    rows = [ReportRow(api_id=api, k=k, cells={column: value})
            for api, value in values_by_api.items()]
    return MetricReport(columns=[MetricColumn(column, higher)], rows=rows,
                        provenance={"config": {"note": "test"}})


class TestRanking:
    def test_higher_better(self):
        report = rank_and_colorize(simple_report({"a": 0.6, "b": 0.2}))
        ranks = {row.api_id: row.ranks["precision"] for row in report.rows}
        assert ranks == {"a": 1, "b": 2}

    def test_lower_better_for_transport_distance(self):
        report = simple_report({"a": 3.2, "b": 4.0}, column="wmd", higher=False)
        rank_and_colorize(report)
        ranks = {row.api_id: row.ranks["wmd"] for row in report.rows}
        assert ranks == {"a": 1, "b": 2}

    def test_all_equal_column(self):
        report = rank_and_colorize(simple_report({"a": 0.5, "b": 0.5, "c": 0.5}))
        for row in report.rows:
            assert row.ranks["precision"] == 1
            assert row.colors["precision"] == "#ffeb84"  # mid color

    def test_dense_ranking_with_ties(self):
        report = rank_and_colorize(
            simple_report({"a": 0.9, "b": 0.9, "c": 0.1, "d": 0.5}))
        ranks = {row.api_id: row.ranks["precision"] for row in report.rows}
        assert ranks == {"a": 1, "b": 1, "d": 2, "c": 3}

    def test_color_endpoints(self):
        report = rank_and_colorize(simple_report({"best": 1.0, "worst": 0.0}))
        colors = {row.api_id: row.colors["precision"] for row in report.rows}
        assert colors["best"] == "#63be7b"
        assert colors["worst"] == "#f8696b"

    def test_rank_invariant_under_affine_rescale(self):
        rng = random.Random(9)
        values = {f"api{i}": rng.random() for i in range(10)}
        baseline = rank_and_colorize(simple_report(values))
        rescaled_values = {api: 3.7 * value + 0.2 for api, value in values.items()}
        rescaled = rank_and_colorize(simple_report(rescaled_values))
        for row, other in zip(baseline.rows, rescaled.rows):
            assert row.ranks["precision"] == other.ranks["precision"]

    def test_each_k_level_ranked_independently(self):
        rows = [ReportRow(api_id="a", k=5, cells={"precision": 0.6}),
                ReportRow(api_id="b", k=5, cells={"precision": 0.2}),
                ReportRow(api_id="a", k=1, cells={"precision": 1.0})]
        report = MetricReport(columns=[MetricColumn("precision", True)],
                              rows=rows)
        rank_and_colorize(report)
        by_key = {(row.api_id, row.k): row for row in report.rows}
        assert by_key[("a", 5)].ranks["precision"] == 1  # best of its own table
        assert by_key[("b", 5)].ranks["precision"] == 2
        assert by_key[("a", 1)].ranks["precision"] == 1
        assert by_key[("a", 1)].colors["precision"] == "#ffeb84"  # solo row

    def test_empty_report(self):
        report = MetricReport(columns=[MetricColumn("precision", True)], rows=[])
        with pytest.raises(EmptyReportError):
            rank_and_colorize(report)


class TestColumnCatalog:
    def test_canonical_order(self):
        columns = columns_for(["wmd", "precision", "f1"])
        assert [c.name for c in columns] == ["precision", "f1", "wmd"]
        directions = {c.name: c.higher_is_better for c in columns}
        assert directions["wmd"] is False
        assert directions["precision"] is True


class TestEmission:
    def multi_report(self):
        cells_a5 = {"precision": 0.123456789, "wmd": 3.14159}
        cells_b5 = {"precision": 0.2, "wmd": 2.0}
        cells_a1 = {"precision": 1 / 3, "wmd": 1.0}
        rows = [
            ReportRow(api_id="a", k=5, cells=dict(cells_a5),
                      extras={"unknown_object_rate": 0.1}, skips={"x": 1}),
            ReportRow(api_id="b", k=5, cells=dict(cells_b5)),
            ReportRow(api_id="a", k=1, cells=dict(cells_a1)),
        ]
        report = MetricReport(
            columns=[MetricColumn("precision", True), MetricColumn("wmd", False)],
            rows=rows, provenance={"config": {"threshold": 0.4}})
        return rank_and_colorize(report)

    def test_json_lines_round_trip_is_lossless(self, tmp_path):
        report = self.multi_report()
        path = emit(report, tmp_path / "out", "json_lines")[0]
        records = parse_json_lines(path)
        assert len(records) == len(report.rows)
        for record, row in zip(records, report.rows):
            assert record["api_id"] == row.api_id
            assert record["k"] == row.k
            for name, value in row.cells.items():
                assert record["metrics"][name] == value  # bit-equal floats

    def test_csv_one_table_per_k(self, tmp_path):
        report = self.multi_report()
        paths = emit(report, tmp_path / "grid", "csv")
        names = sorted(p.name for p in paths)
        assert names == ["grid_k1.csv", "grid_k5.csv"]
        k5 = (tmp_path / "grid_k5.csv").read_text().strip().splitlines()
        assert k5[0].startswith("api_id,precision,wmd")
        assert len(k5) == 3  # header + two apis
        assert "0.123" in k5[1]

    def test_html_styled_cells(self, tmp_path):
        report = self.multi_report()
        path = emit(report, tmp_path / "page", "html")[0]
        content = path.read_text()
        styled = re.findall(r"background-color: #[0-9a-f]{6}", content)
        assert len(styled) == sum(len(row.cells) for row in report.rows)
        assert "<table" in content and "http" not in content  # self-contained

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.multi_report(), tmp_path / "x", "yaml")
