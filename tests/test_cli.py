import dataclasses
import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import street_scene
from helpers import parse_json_lines
from labeleval.cli import main
from labeleval.labelset import write_predictions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluateCommand:
    def test_end_to_end_json_lines(self, capsys, tmp_path, fixture_files,
                                   fixture_model_file):
        out = tmp_path / "report.jsonl"
        argv = ["evaluate",
                "--ground-truth", str(fixture_files["truth"]),
                "--embeddings", str(fixture_model_file),
                "--top-k", "1,3,5",
                "--threshold", "0.4",
                "--out", str(out),
                "--format", "json_lines"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert str(out) in stdout
        records = parse_json_lines(out)
        assert len(records) == len(street_scene.PREDICTIONS) * 3
        ks = {record["k"] for record in records}
        assert ks == {1, 3, 5}
        assert all("ranks" in record and "colors" in record
                   for record in records)

    @staticmethod
    def _config_in(directory, fixture_files, fixture_model_file):
        """The fixture's inputs and a config naming them bare, in ``directory``."""
        directory.mkdir()
        names = []
        for path in [fixture_files["truth"], *fixture_files["predictions"],
                     fixture_model_file]:
            (directory / path.name).write_bytes(path.read_bytes())
            names.append(path.name)
        (directory / "config.json").write_text(json.dumps({
            "ground_truth": names[0], "predictions": names[1:-1],
            "embeddings": names[-1], "top_ks": [1, 3], "output": {"path": "report"}}),
            encoding="utf-8")
        return names

    @staticmethod
    def _reports(capsys, monkeypatch, inputs, runs):
        """The report bytes of each (cwd, config, report) run."""
        reports = []
        for cwd, config, report in runs:
            monkeypatch.chdir(cwd)
            code, stdout, err = run_cli(capsys, "evaluate", "--config", config)
            assert (code, stdout, err) == (0, f"wrote {report}.jsonl\n", "")
            reports.append((inputs / "report.jsonl").read_bytes())
            (inputs / "report.jsonl").unlink()
        return reports

    def test_config_run_from_another_directory(self, capsys, tmp_path, monkeypatch,
                                               fixture_files, fixture_model_file):
        """A config's relative paths are read from its own directory, wherever
        the run starts; the report is that of a run started there."""
        inputs = tmp_path / "inputs"
        names = self._config_in(inputs, fixture_files, fixture_model_file)
        reports = self._reports(capsys, monkeypatch, inputs, [
            (tmp_path, "inputs/config.json", "inputs/report"),
            (inputs, "config.json", "report")])
        assert reports[0] == reports[1]
        rows = [json.loads(line) for line in reports[0].splitlines()]
        assert len(rows) == len(street_scene.PREDICTIONS) * 2
        assert list(rows[0]["provenance"]["prediction_digests"]) == names[1:-1]

    def test_the_report_does_not_depend_on_how_the_config_is_named(
            self, capsys, tmp_path, monkeypatch, fixture_files, fixture_model_file):
        """Each prediction digest is keyed by the path as the config spells
        it, normalised, so every spelling of the config's own path gives the
        same bytes."""
        inputs = tmp_path / "inputs"
        names = self._config_in(inputs, fixture_files, fixture_model_file)
        # the config spells its first prediction path with a ./ of its own
        config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
        config["predictions"][0] = "./" + names[1]
        (inputs / "config.json").write_text(json.dumps(config), encoding="utf-8")
        reports = self._reports(capsys, monkeypatch, inputs, [
            (inputs, "config.json", "report"),
            (inputs, "./config.json", "report"),
            (inputs, str(inputs / "config.json"), str(inputs / "report"))])
        assert reports[0] == reports[1] == reports[2]
        rows = [json.loads(line) for line in reports[0].splitlines()]
        assert list(rows[0]["provenance"]["prediction_digests"]) == names[1:-1]

    def test_csv_and_html_formats(self, capsys, tmp_path, fixture_files,
                                  fixture_model_file):
        for fmt, expected in (("csv", "grid_k5.csv"), ("html", "page.html")):
            out = tmp_path / ("grid" if fmt == "csv" else "page")
            argv = ["evaluate",
                    "--ground-truth", str(fixture_files["truth"]),
                    "--predictions", str(fixture_files["predictions"][0]),
                    "--embeddings", str(fixture_model_file),
                    "--top-k", "5", "--out", str(out), "--format", fmt]
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0
            assert (tmp_path / expected).exists()

    def test_csv_honours_its_suffix(self, capsys, tmp_path, fixture_files,
                                    fixture_model_file):
        code, stdout, _ = run_cli(capsys, "evaluate",
                                  "--ground-truth", str(fixture_files["truth"]),
                                  "--predictions", str(fixture_files["predictions"][0]),
                                  "--embeddings", str(fixture_model_file),
                                  "--top-k", "1,3", "--format", "csv",
                                  "--out", str(tmp_path / "report.csv"))
        assert code == 0
        assert stdout.splitlines() == [f"wrote {tmp_path / 'report_k1.csv'}",
                                       f"wrote {tmp_path / 'report_k3.csv'}"]

    def test_missing_output_directory_stops_before_scoring(
            self, monkeypatch, capsys, tmp_path, fixture_files, fixture_model_file):
        from labeleval import harness

        def unloaded(*args, **kwargs):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(harness, "load_model", unloaded)
        missing = tmp_path / "no" / "such"
        code, _, err = run_cli(capsys, "evaluate",
                               "--ground-truth", str(fixture_files["truth"]),
                               "--predictions", str(fixture_files["predictions"][0]),
                               "--embeddings", str(fixture_model_file),
                               "--out", str(missing / "report"))
        assert code == 2
        assert err.splitlines() == [f"data error: no such output directory: {missing}"]

    def test_missing_inputs_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "evaluate")
        assert code == 1

    def test_malformed_ground_truth_is_data_error(self, capsys, tmp_path,
                                                  fixture_files,
                                                  fixture_model_file):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(bad),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(fixture_model_file),
            "--out", str(tmp_path / "x"))
        assert code == 2
        assert "data error" in err

    def test_non_finite_model_is_data_error(self, capsys, tmp_path, fixture_files):
        model = tmp_path / "model.txt"
        model.write_text("2 2\ncar 1 0\nstreet nan 1\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(fixture_files["truth"]),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(model),
            "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.splitlines() == [
            f"data error: {model} line 3: non-finite vector component"]

    def test_solver_failure_is_data_error(self, capsys, monkeypatch, tmp_path,
                                          fixture_files, fixture_model_file):
        from labeleval import harness
        from labeleval.errors import NumericalFailureError

        def failing_solver(*args, **kwargs):
            raise NumericalFailureError("transport solver failed to converge")

        monkeypatch.setattr(harness, "solve_transport", failing_solver)
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(fixture_files["truth"]),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(fixture_model_file),
            "--top-k", "5", "--out", str(tmp_path / "x"))
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: ")
        assert "transport solver failed to converge" in err

    def test_annotated_error_names_unit_once(self, capsys, monkeypatch, tmp_path,
                                             fixture_files, fixture_model_file):
        from labeleval import harness
        from labeleval.errors import UnresolvedTokenError

        def failing_wmd(*args, **kwargs):
            raise UnresolvedTokenError("zzz")

        monkeypatch.setattr(harness, "dataset_wmd", failing_wmd)
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(fixture_files["truth"]),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(fixture_model_file),
            "--top-k", "5", "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.splitlines() == [
            "data error: clarifai/<dataset>: "
            "token not present in embedding store: 'zzz'"]

    def test_truth_cleaning_to_nothing_is_skipped(self, capsys, tmp_path,
                                                  fixture_model_file):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            json.dumps({"image_id": "1.jpg", "labels": ["car"]}) + "\n"
            + json.dumps({"image_id": "2.jpg", "labels": ["!!!"]}) + "\n",
            encoding="utf-8")
        predictions = tmp_path / "a.jsonl"
        predictions.write_text("".join(
            json.dumps({"image_id": image_id, "api_id": "a",
                        "objects": [{"labels": ["car"], "confidence": 0.9}]}) + "\n"
            for image_id in ("1.jpg", "2.jpg")), encoding="utf-8")
        out = tmp_path / "report"
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(truth), "--predictions", str(predictions),
            "--embeddings", str(fixture_model_file),
            "--top-k", "1", "--out", str(out))
        assert code == 0, err
        (record,) = parse_json_lines(tmp_path / "report.jsonl")
        assert record["skips"]["empty_truth"] == 1
        assert record["metrics"]["precision"] == 1.0

    def test_bad_top_k_is_usage_error(self, capsys, tmp_path, fixture_files,
                                      fixture_model_file):
        code, _, err = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(fixture_files["truth"]),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(fixture_model_file),
            "--top-k", "five")
        assert code == 1
        assert err.splitlines() == [
            "Error: --top-k expects comma-separated integers, got 'five'"]


#: The decoder's message for a document nested past the recursion limit.
DEEP_JSON_MESSAGE = ("maximum recursion depth exceeded while decoding a JSON array "
                     "from a unicode string")

#: A remote sentence provider; a bad setting stops the run before any request.
REMOTE = {"mode": "remote", "endpoint": "http://127.0.0.1:9/embed", "model": "m"}


class TestBadRunSettings:
    """A bad setting ends in exit 1 and one line naming it, never a traceback."""

    def flags(self, fixture_files, fixture_model_file, tmp_path):
        return ["evaluate",
                "--ground-truth", str(fixture_files["truth"]),
                "--predictions", str(fixture_files["predictions"][0]),
                "--embeddings", str(fixture_model_file),
                "--top-k", "1", "--out", str(tmp_path / "report")]

    def test_threshold_above_one(self, capsys, tmp_path, fixture_files,
                                 fixture_model_file):
        code, _, err = run_cli(capsys, *self.flags(fixture_files, fixture_model_file,
                                                   tmp_path), "--threshold", "2")
        assert code == 1
        assert err.splitlines() == [
            "Error: invalid run settings: threshold must lie in (0, 1]"]

    def test_zero_workers(self, capsys, tmp_path, fixture_files, fixture_model_file):
        code, _, err = run_cli(capsys, *self.flags(fixture_files, fixture_model_file,
                                                   tmp_path), "--workers", "0")
        assert code == 1
        assert err.splitlines() == ["Error: invalid run settings: workers must be >= 1"]

    @pytest.mark.parametrize("workers", ["1", "2", "8"])
    def test_valid_workers_still_run(self, capsys, tmp_path, fixture_files,
                                     fixture_model_file, workers):
        code, _, err = run_cli(capsys, *self.flags(fixture_files, fixture_model_file,
                                                   tmp_path), "--workers", workers)
        assert code == 0, err

    def test_repeated_top_k(self, capsys, tmp_path, fixture_files, fixture_model_file):
        code, _, err = run_cli(capsys, *self.flags(fixture_files, fixture_model_file,
                                                   tmp_path), "--top-k", "3,3")
        assert code == 1
        assert err.splitlines() == [
            "Error: invalid run settings: top_ks must be distinct, got [3, 3]"]
        assert not (tmp_path / "report.jsonl").exists()

    def evaluate_config(self, capsys, tmp_path, fixture_files, fixture_model_file,
                        **settings):
        """Run ``evaluate --config`` on the fixture with ``settings`` added."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "ground_truth": str(fixture_files["truth"]),
            "predictions": [str(fixture_files["predictions"][0])],
            "embeddings": str(fixture_model_file), "top_ks": [1],
            "output": {"path": str(tmp_path / "report")}, **settings}),
            encoding="utf-8")
        return run_cli(capsys, "evaluate", "--config", str(config))

    @pytest.mark.parametrize("top_ks,message", [
        ([1.5], "top_ks must be non-empty integers, each >= 1, got [1.5]"),
        ([True, 3], "top_ks must be non-empty integers, each >= 1, got [True, 3]"),
        ([3, 3], "top_ks must be distinct, got [3, 3]"),
    ])
    def test_bad_top_ks_in_config(self, capsys, tmp_path, fixture_files,
                                  fixture_model_file, top_ks, message):
        code, _, err = self.evaluate_config(capsys, tmp_path, fixture_files,
                                            fixture_model_file, top_ks=top_ks)
        assert code == 1
        assert err.splitlines() == [f"Error: invalid run settings: {message}"]

    @pytest.mark.parametrize("settings,message", [
        ({"threshold": True}, "threshold must be a number, got True"),
        ({"workers": True}, "workers must be an integer, got True"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),
        ({"sentence": {**REMOTE, "max_retries": "3"}},
         "max_retries must be an integer >= 0"),
        ({"sentence": {**REMOTE, "max_retries": -1}},
         "max_retries must be an integer >= 0"),
        ({"sentence": {**REMOTE, "max_retries": True}},
         "max_retries must be an integer >= 0"),
        ({"sentence": {**REMOTE, "batch_size": True}},
         "batch_size must be an integer >= 1"),
        ({"sentence": {**REMOTE, "timeout": True}},
         "timeout must be a finite positive number"),
    ], ids=["bool-threshold", "bool-workers", "fractional-workers", "string-retries",
            "negative-retries", "bool-retries", "bool-batch-size", "bool-timeout"])
    def test_bad_numbers_in_config(self, capsys, tmp_path, fixture_files,
                                   fixture_model_file, settings, message):
        code, _, err = self.evaluate_config(capsys, tmp_path, fixture_files,
                                            fixture_model_file, **settings)
        assert code == 1
        assert err.splitlines() == [f"Error: invalid run settings: {message}"]
        assert not (tmp_path / "report.jsonl").exists()

    @pytest.mark.parametrize("settings,message", [
        ({"semantic": "false"}, "include_semantic must be true or false, got 'false'"),
        ({"label_based": 0}, "include_label_based must be true or false, got 0"),
        ({"wmd": None}, "include_wmd must be true or false, got None"),
        ({"embeddings_format": "xml"},
         "embeddings_format must be one of ['auto', 'text', 'binary'], got 'xml'"),
        ({"output": {"format": "xml"}},
         "output_format must be one of ['csv', 'json_lines', 'html'], got 'xml'"),
        ({"output": "x"}, "output must be an object, got 'x'"),
        ({"ground_truth": 7}, "ground_truth_path must be a path, got 7"),
        ({"predictions": "preds_alpha.jsonl"},
         "prediction_paths must be a list of paths, got 'preds_alpha.jsonl'"),
        ({"sentence": {"mode": "file", "path": 7, "model": "m"}},
         "path must be a string, got 7"),
        # JSON's Infinity: requests cannot schedule it and fails every POST
        ({"sentence": {**REMOTE, "timeout": float("inf")}},
         "timeout must be a finite positive number"),
    ], ids=["string-semantic", "int-label-based", "null-wmd", "embeddings-format",
            "output-format", "output-not-object", "int-ground-truth",
            "string-predictions", "int-sentence-path", "infinite-timeout"])
    def test_bad_settings_stop_before_any_file_is_read(
            self, monkeypatch, capsys, tmp_path, fixture_files, fixture_model_file,
            settings, message):
        from labeleval import harness

        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        for name in ("read_ground_truth", "read_predictions", "load_model"):
            monkeypatch.setattr(harness, name, unread)
        code, _, err = self.evaluate_config(capsys, tmp_path, fixture_files,
                                            fixture_model_file, **settings)
        assert code == 1
        assert err.splitlines() == [f"Error: invalid run settings: {message}"]

    @pytest.mark.parametrize("sentence,message", [
        ({**REMOTE, "model": None, "cache_dir": "c"},
         "invalid run settings: model must be a string, got None"),
        ({"mode": "file", "path": "x"}, "config lacks required key 'sentence.model'"),
        ({"path": "x", "model": "m"}, "config lacks required key 'sentence.mode'"),
        ({}, "config lacks required key 'sentence.mode'"),
        ([1], "invalid run settings: a sentence block must hold a JSON object"),
        ([], "invalid run settings: a sentence block must hold a JSON object"),
        (False, "invalid run settings: a sentence block must hold a JSON object"),
        (0, "invalid run settings: a sentence block must hold a JSON object"),
        # an unknown key is ignored, and the keys it knows are still checked
        ({**REMOTE, "extra": 1, "timeout": 0},
         "invalid run settings: timeout must be a finite positive number"),
    ], ids=["null-model", "no-model", "no-mode", "empty-object", "list", "empty-list",
            "false", "zero", "unknown-key"])
    def test_sentence_block_is_read_like_a_spec(
            self, monkeypatch, capsys, tmp_path, fixture_files, fixture_model_file,
            sentence, message):
        from labeleval import harness

        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        for name in ("read_ground_truth", "read_predictions", "load_model"):
            monkeypatch.setattr(harness, name, unread)
        code, _, err = self.evaluate_config(capsys, tmp_path, fixture_files,
                                            fixture_model_file, sentence=sentence)
        assert code == 1
        assert err.splitlines() == [f"Error: {message}"]

    def test_config_that_is_not_an_object(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1]", encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1
        assert err.splitlines() == [
            "Error: invalid run settings: a config file must hold a JSON object"]

    def test_config_nested_past_the_stack(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[" * 100_000, encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1
        assert err.splitlines() == [
            f"Error: invalid run settings: invalid JSON: {DEEP_JSON_MESSAGE}"]

    def test_config_without_predictions(self, capsys, tmp_path, fixture_files,
                                        fixture_model_file):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"ground_truth": str(fixture_files["truth"]),
                                      "embeddings": str(fixture_model_file)}),
                          encoding="utf-8")
        code, _, err = run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1
        assert err.splitlines() == [
            "Error: config lacks required key 'predictions'"]


class TestUndecodableInputs:
    """A record file holding bytes that are not UTF-8 is a data error: exit 2
    and one line naming the file and the line, never a traceback."""

    BAD_LABEL = b'{"image_id": "2.jpg", "labels": ["\xff\xfe"]}\n'

    def evaluate(self, capsys, tmp_path, truth, predictions, model, *extra):
        return run_cli(capsys, "evaluate", "--ground-truth", str(truth),
                       "--predictions", str(predictions), "--embeddings", str(model),
                       "--top-k", "1", "--out", str(tmp_path / "report"), *extra)

    def test_ground_truth(self, capsys, tmp_path, fixture_files, fixture_model_file):
        truth = tmp_path / "truth.jsonl"
        truth.write_bytes(b'{"image_id": "1.jpg", "labels": ["car"]}\n' + self.BAD_LABEL)
        code, _, err = self.evaluate(capsys, tmp_path, truth,
                                     fixture_files["predictions"][0], fixture_model_file)
        assert code == 2
        assert err.splitlines() == [f"data error: {truth} line 2: not valid UTF-8 text"]

    def test_predictions(self, capsys, tmp_path, fixture_files, fixture_model_file):
        predictions = tmp_path / "a.jsonl"
        predictions.write_bytes(
            b'{"image_id": "1.jpg", "api_id": "a", "objects": []}\n\n'
            b'{"image_id": "2.jpg", "api_id": "a", '
            b'"objects": [{"labels": ["\xff\xfe"]}]}\n')
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files["truth"],
                                     predictions, fixture_model_file)
        assert code == 2
        assert err.splitlines() == [
            f"data error: {predictions} line 3: not valid UTF-8 text"]

    def test_precomputed_sentence_vectors(self, capsys, tmp_path, fixture_files,
                                          fixture_model_file):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_bytes(b'{"digest": "\xff", "model": "m", "vector": [1.0]}\n')
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files["truth"],
                                     fixture_files["predictions"][0], fixture_model_file,
                                     "--sentence-provider", str(vectors),
                                     "--sentence-model", "m")
        assert code == 2
        assert err.splitlines() == [f"data error: {vectors} line 1: not valid UTF-8 text"]


class TestLocatedLineErrors:
    """A bad line of a JSON-lines input ends the run with exit 2 and one line,
    ``<file> line <n>: <what>``; blank lines count. The images file's cases
    are ``TestFetchCommand::test_bad_images_line_is_a_data_error``."""

    TRUTH = '{"image_id": "1.jpg", "labels": ["car"]}\n\n'
    PREDICTION = '{"image_id": "1.jpg", "api_id": "a", "objects": []}\n\n'

    def evaluate(self, capsys, tmp_path, truth, predictions, model, *extra):
        return run_cli(capsys, "evaluate", "--ground-truth", str(truth),
                       "--predictions", str(predictions), "--embeddings", str(model),
                       "--top-k", "1", "--out", str(tmp_path / "report"), *extra)

    @pytest.mark.parametrize("line,what", [
        ("{oops", "invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
        ('{"image_id": "2.jpg", "labels": "car"}', "labels must be an array"),
        ('{"image_id": "1.jpg", "labels": ["tree"]}', "duplicate image_id: '1.jpg'"),
    ], ids=["json", "field", "duplicate-image"])
    def test_ground_truth(self, capsys, tmp_path, fixture_files, fixture_model_file,
                          line, what):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(self.TRUTH + line + "\n", encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, truth,
                                     fixture_files["predictions"][0], fixture_model_file)
        assert code == 2
        assert err.splitlines() == [f"data error: {truth} line 3: {what}"]

    @pytest.mark.parametrize("line,what", [
        ("[1,", "invalid JSON: Expecting value: line 1 column 4 (char 3)"),
        ('{"image_id": "2.jpg", "api_id": "a", "objects": [{"labels": [1]}]}',
         "labels entries must be strings"),
        ('{"image_id": "2.jpg", "api_id": "a", '
         '"objects": [{"labels": ["car"], "confidence": 7.5}]}',
         "confidence outside [0, 1]: 7.5"),
    ], ids=["json", "field", "confidence"])
    def test_predictions(self, capsys, tmp_path, fixture_files, fixture_model_file,
                         line, what):
        predictions = tmp_path / "a.jsonl"
        predictions.write_text(self.PREDICTION + line + "\n", encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files["truth"],
                                     predictions, fixture_model_file)
        assert code == 2
        assert err.splitlines() == [f"data error: {predictions} line 3: {what}"]

    @pytest.mark.parametrize("line,what", [
        ("{oops", "invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
        ('{"model": "m", "vector": [1.0]}', "unreadable vector record"),
        ('{"digest": ["x"], "model": "m", "vector": [1.0]}', "unreadable vector record"),
    ], ids=["json", "no-digest", "list-digest"])
    def test_precomputed_sentence_vectors(self, capsys, tmp_path, fixture_files,
                                          fixture_model_file, line, what):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text('{"digest": "0", "model": "m", "vector": [1.0]}\n\n'
                           + line + "\n", encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files["truth"],
                                     fixture_files["predictions"][0], fixture_model_file,
                                     "--sentence-provider", str(vectors),
                                     "--sentence-model", "m")
        assert code == 2
        assert err.splitlines() == [f"data error: {vectors} line 3: {what}"]


class TestDuplicatePredictions:
    """A repeated (api_id, image_id) exits 2 with one line naming the API, the
    image, the repeat's line and the file of the first record."""

    def evaluate(self, capsys, tmp_path, fixture_files, model, *predictions):
        argv = ["evaluate", "--ground-truth", str(fixture_files["truth"]),
                "--embeddings", str(model), "--top-k", "1",
                "--out", str(tmp_path / "report")]
        for path in predictions:
            argv += ["--predictions", str(path)]
        return run_cli(capsys, *argv)

    def test_one_file_given_twice(self, capsys, tmp_path, fixture_files,
                                  fixture_model_file):
        predictions = fixture_files["predictions"][0]
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files,
                                     fixture_model_file, predictions, predictions)
        assert code == 2
        assert err.splitlines() == [
            f"data error: {predictions} line 1: clarifai/1.jpg: duplicate prediction, "
            f"first read from {predictions}"]

    def test_record_repeated_within_a_file(self, capsys, tmp_path, fixture_files,
                                           fixture_model_file):
        record = '{"image_id": "1.jpg", "api_id": "a", "objects": []}\n'
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text(record.replace("1.jpg", "2.jpg"), encoding="utf-8")
        second.write_text(record + "\n" + record, encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files,
                                     fixture_model_file, first, second)
        assert code == 2
        assert err.splitlines() == [
            f"data error: {second} line 3: a/1.jpg: duplicate prediction, "
            f"first read from {second}"]

    def test_empty_predictions_file(self, capsys, tmp_path, fixture_files,
                                    fixture_model_file):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files,
                                     fixture_model_file, empty)
        assert code == 2
        assert err.splitlines() == ["data error: no prediction records found"]


class TestUsageErrors:
    """A usage error prints one line, without click's usage banner: exit 1.
    ``--top-k five`` is ``TestEvaluateCommand::test_bad_top_k_is_usage_error``."""

    def test_top_k_naming_no_level(self, capsys, fixture_files, fixture_model_file):
        code, _, err = run_cli(capsys, "evaluate",
                               "--ground-truth", str(fixture_files["truth"]),
                               "--predictions", str(fixture_files["predictions"][0]),
                               "--embeddings", str(fixture_model_file), "--top-k", ",")
        assert code == 1
        assert err.splitlines() == ["Error: --top-k must name at least one level"]

    def test_an_interrupted_run_is_aborted(self, capsys, monkeypatch, fixture_files,
                                           fixture_model_file):
        """click turns a Ctrl-C inside a command into an Abort."""
        from labeleval import cli

        def interrupted(config):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "run_evaluation", interrupted)
        code, _, err = run_cli(capsys, "evaluate",
                               "--ground-truth", str(fixture_files["truth"]),
                               "--predictions", str(fixture_files["predictions"][0]),
                               "--embeddings", str(fixture_model_file))
        assert code == 1
        assert err.split() == ["aborted"]

    def test_evaluate_without_inputs(self, capsys):
        code, _, err = run_cli(capsys, "evaluate")
        assert code == 1
        assert err.splitlines() == [
            "Error: either --config or all of --ground-truth/--predictions/"
            "--embeddings are required"]

    def test_sentence_model_without_a_provider(self, capsys, fixture_files,
                                               fixture_model_file):
        code, _, err = run_cli(capsys, "evaluate",
                               "--ground-truth", str(fixture_files["truth"]),
                               "--predictions", str(fixture_files["predictions"][0]),
                               "--embeddings", str(fixture_model_file),
                               "--sentence-model", "m")
        assert code == 1
        assert err.splitlines() == ["Error: --sentence-model requires --sentence-provider"]

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert err.splitlines() == ["Error: Missing command."]

    def test_wmd_with_an_empty_list(self, capsys, fixture_model_file):
        code, _, err = run_cli(capsys, "wmd", ",", "x",
                               "--embeddings", str(fixture_model_file))
        assert code == 1
        assert err.splitlines() == ["Error: both label lists must be non-empty"]


class _SentenceHandler(BaseHTTPRequestHandler):
    """A sentence provider whose every vector is the server's ``vector`` text."""

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = ('{"vectors": [' + ", ".join([self.server.vector] * len(payload["texts"]))
                + "]}").encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def sentence_server():
    server = HTTPServer(("127.0.0.1", 0), _SentenceHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestBadSentenceVectors:
    """A sentence vector that is not 1-D and finite ends the run with one
    line: exit 2 for a precomputed file, exit 3 for a remote reply."""

    def evaluate(self, capsys, tmp_path, fixture_files, fixture_model_file, provider):
        return run_cli(capsys, "evaluate",
                       "--ground-truth", str(fixture_files["truth"]),
                       "--predictions", str(fixture_files["predictions"][0]),
                       "--embeddings", str(fixture_model_file), "--top-k", "1",
                       "--out", str(tmp_path / "report"),
                       "--sentence-provider", provider, "--sentence-model", "m")

    @pytest.mark.parametrize("vector", [[float("nan"), 1.0], [1.0, float("inf")],
                                        [[1.0, 2.0]], [0.0, 0.0]])
    def test_precomputed_file(self, capsys, tmp_path, fixture_files,
                              fixture_model_file, vector):
        from labeleval.sentence import render_bow_text, text_digest

        # the run asks for the truth text's vector first
        digest = text_digest(render_bow_text(street_scene.TRUTH_LABELS))
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(json.dumps({"digest": digest, "model": "m",
                                       "vector": vector}) + "\n", encoding="utf-8")
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files,
                                     fixture_model_file, str(vectors))
        assert code == 2
        assert err.splitlines() == [
            f"data error: {vectors}: vector for digest {digest} "
            "is not a 1-D array of finite numbers with a non-zero norm"]
        assert not (tmp_path / "report.jsonl").exists()

    @pytest.mark.parametrize("vector", ['["x", 1]', '{"a": 1}', "null", "[[1.0, 2.0]]",
                                        "[NaN, 1.0]", "[0.0, 0.0]"])
    def test_remote_reply(self, capsys, tmp_path, fixture_files, fixture_model_file,
                          sentence_server, vector, monkeypatch):
        from labeleval.sentence import ENDPOINT_ENV_VAR

        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        sentence_server.vector = vector
        endpoint = f"http://127.0.0.1:{sentence_server.server_port}/embed"
        code, _, err = self.evaluate(capsys, tmp_path, fixture_files,
                                     fixture_model_file, endpoint)
        assert code == 3
        assert err.splitlines() == [
            f"upstream error: provider at {endpoint} returned a vector that is not "
            "a 1-D array of finite numbers with a non-zero norm"]


class TestProviderFlags:
    def test_path_means_file_mode(self):
        from labeleval.cli import _provider_from_flags

        config = _provider_from_flags("vectors.jsonl", "m", env={})
        assert config.mode == "file"
        assert config.path == "vectors.jsonl"

    def test_url_means_remote_mode(self):
        from labeleval.cli import _provider_from_flags

        config = _provider_from_flags("https://embed.test/v1", "m", env={})
        assert config.mode == "remote"
        assert config.endpoint == "https://embed.test/v1"

    def test_env_var_overrides_endpoint(self):
        from labeleval.cli import _provider_from_flags
        from labeleval.sentence import ENDPOINT_ENV_VAR

        env = {ENDPOINT_ENV_VAR: "http://override.test/embed"}
        config = _provider_from_flags("https://embed.test/v1", "m", env=env)
        assert config.mode == "remote"
        assert config.endpoint == "http://override.test/embed"

    def test_env_var_leaves_a_file_provider_alone(self):
        """The variable replaces only an http(s) endpoint: a precomputed file
        stays a file, so its texts are never sent over the network."""
        from labeleval.cli import _provider_from_flags
        from labeleval.sentence import ENDPOINT_ENV_VAR

        env = {ENDPOINT_ENV_VAR: "http://override.test/embed"}
        config = _provider_from_flags("vectors.jsonl", "m", env=env)
        assert (config.mode, config.path, config.endpoint) == (
            "file", "vectors.jsonl", None)

    def test_no_flag_disables_sentence_scoring(self):
        from labeleval.cli import _provider_from_flags

        assert _provider_from_flags(None, None, env={}) is None


class TestWmdCommand:
    def test_identical_lists_are_zero(self, capsys, fixture_model_file):
        code, stdout, _ = run_cli(capsys, "wmd", "car,tree", "car,tree",
                                  "--embeddings", str(fixture_model_file))
        assert code == 0
        assert float(stdout.strip()) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_lists_are_positive(self, capsys, fixture_model_file):
        code, stdout, _ = run_cli(capsys, "wmd", "car", "tree",
                                  "--embeddings", str(fixture_model_file))
        assert code == 0
        assert float(stdout.strip()) > 1.0

    @pytest.mark.parametrize("truth, predicted", [
        ("parking meter,zzqx,car,Car!", "Lamp Post,tree,???"),
        ("zzqx", "street,lamp post"),
    ])
    def test_unknown_and_multi_word_labels(self, capsys, fixture_model_file,
                                           truth, predicted):
        from labeleval.embeddings import load_text_model
        from labeleval.labelset import label_bag
        from labeleval.wmd import wmd_pair

        code, stdout, _ = run_cli(capsys, "wmd", truth, predicted,
                                  "--embeddings", str(fixture_model_file))
        assert code == 0
        store = load_text_model(fixture_model_file)
        value = wmd_pair(label_bag(truth.split(","), store),
                         label_bag(predicted.split(","), store), store)
        assert stdout == f"{value:.6f}\n"


class TestInspectCommand:
    def test_reports_shape_and_resolution(self, capsys, fixture_model_file):
        code, stdout, _ = run_cli(capsys, "inspect-embeddings",
                                  str(fixture_model_file),
                                  "--token", "parking meter",
                                  "--token", "zzqx")
        assert code == 0
        assert "vocab_size=68 dim=68" in stdout
        assert "'Parking_Meter'" in stdout
        assert "title_underscore" in stdout
        assert "unknown" in stdout

    def test_non_utf8_token_is_data_error(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        model.write_bytes(b"1 2\n\xff\xfe 1 0\n")
        code, _, err = run_cli(capsys, "inspect-embeddings", str(model))
        assert code == 2
        assert err.splitlines() == [f"data error: {model}: not valid UTF-8 text"]


    def test_loads_only_the_rows_its_tokens_may_resolve_to(self, capsys, monkeypatch,
                                                           fixture_model_file):
        from labeleval import cli
        from labeleval.embeddings import load_text_model

        loads = []
        real = cli.load_model
        monkeypatch.setattr(cli, "load_model",
                            lambda *a, **kw: loads.append(kw) or real(*a, **kw))
        code, stdout, _ = run_cli(capsys, "inspect-embeddings",
                                  str(fixture_model_file), "--token", " Car!")
        assert code == 0
        assert loads == [{"wanted": {"car", "Car"}}]
        full = load_text_model(fixture_model_file)
        assert stdout.splitlines() == [f"vocab_size={len(full)} dim={full.dim}",
                                       "' Car!' -> 'car' (as_is)"]

    @pytest.mark.parametrize("name", ["model.txt", "model.bin"])
    def test_with_an_entry_there_it_hashes_once_and_does_not_parse(
            self, capsys, tmp_path, monkeypatch, name):
        from test_model_cache import hash_passes, no_parse

        from labeleval.embeddings import EmbeddingStore, save_binary_model, save_text_model

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        model = tmp_path / name
        save = save_binary_model if name.endswith(".bin") else save_text_model
        save(EmbeddingStore([("cat", [1.0]), ("dog", [2.0]), ("Hot_Dog", [3.0])],
                            dim=1), model)
        argv = ["inspect-embeddings", str(model), "--token", "hot dog", "--token", "emu"]
        first = run_cli(capsys, *argv)  # a parse, which writes the entry
        with hash_passes() as spy, no_parse():
            assert run_cli(capsys, *argv) == first
        spy.assert_called_once_with(model)
        assert first == (0, "vocab_size=3 dim=1\n'hot dog' -> 'Hot_Dog' "
                            "(title_underscore)\n'emu' -> unknown\n", "")

    def test_the_shape_is_the_header_lines_in_any_line_end(self, capsys, tmp_path):
        model = tmp_path / "model.txt"
        model.write_bytes(b"2 1\rcat 1\rdog 2\r")
        assert run_cli(capsys, "inspect-embeddings", str(model), "--token", "dog") == \
            (0, "vocab_size=2 dim=1\n'dog' -> 'dog' (as_is)\n", "")

    @pytest.mark.parametrize("name,message", [
        ("model.txt", "{path}: a row of 99999999999999999999 components cannot "
                      "fit in the file"),
        ("model.bin", "{path}: truncated record at index 0"),
    ], ids=["text", "binary"])
    def test_huge_header_dimension(self, capsys, tmp_path, name, message):
        model = tmp_path / name
        model.write_bytes(b"1 99999999999999999999\ncat 1\n")
        code, _, err = run_cli(capsys, "inspect-embeddings", str(model))
        assert code == 2
        assert err.splitlines() == [f"data error: {message.format(path=model)}"]

    ONE = struct.pack("<f", 1.0)

    @pytest.mark.parametrize("name,content,message", [
        ("model.txt", b"3 1\ncat 1\ndog 1\ncat 2\n",
         "{path} line 4: duplicate token in model: 'cat'"),
        ("model.bin", b"2 1\ncat " + ONE + b"\ncat " + ONE + b"\n",
         "{path}: record 1: duplicate token in model: 'cat'"),
        ("model.txt", b"x y\ncat 1\n", "{path}: non-integer header fields: 'x y'"),
        ("model.bin", b"x y\ncat " + ONE + b"\n",
         "{path}: non-integer header fields: 'x y'"),
        ("model.bin", b"2 1\ncat " + ONE + b"\ndo", "{path}: truncated record at index 1"),
    ], ids=["text-duplicate", "binary-duplicate", "text-header", "binary-header",
            "binary-truncated"])
    def test_model_errors_name_the_file_and_the_place(self, capsys, tmp_path, name,
                                                      content, message):
        model = tmp_path / name
        model.write_bytes(content)
        code, _, err = run_cli(capsys, "inspect-embeddings", str(model))
        assert code == 2
        assert err.splitlines() == [f"data error: {message.format(path=model)}"]


class TestRestrictedCommands:
    """wmd and stats keep only their labels' rows, and print what a full load does."""

    @pytest.fixture
    def loads(self, monkeypatch):
        from labeleval import cli

        calls = []
        real = cli.load_model
        monkeypatch.setattr(cli, "load_model",
                            lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        return calls

    def test_wmd(self, capsys, loads, fixture_model_file):
        from labeleval.embeddings import load_text_model
        from labeleval.labelset import label_bag
        from labeleval.wmd import wmd_pair

        truth = ["parking meter", "Lamp Post", "car"]
        predicted = ["tree", "zzqx", "street"]
        code, stdout, _ = run_cli(capsys, "wmd", ",".join(truth), ",".join(predicted),
                                  "--embeddings", str(fixture_model_file))
        assert code == 0
        assert [sorted(kw) for kw in loads] == [["wanted"]]
        full = load_text_model(fixture_model_file)
        value = wmd_pair(label_bag(truth, full), label_bag(predicted, full), full)
        assert stdout == f"{value:.6f}\n"

    def test_stats(self, capsys, loads, fixture_files, fixture_model_file):
        from labeleval.embeddings import Vocabulary, clean_labels, load_text_model
        from labeleval.labelset import _raw_labels, metadata_stats, read_predictions

        argv = ["stats", "--embeddings", str(fixture_model_file), "--json", "-k", "3"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [sorted(kw) for kw in loads] == [["wanted"]]
        full = load_text_model(fixture_model_file)
        expected = []
        for path in fixture_files["predictions"]:
            records = read_predictions(path, k=3)
            vocab = Vocabulary(full, clean_labels(_raw_labels(records)))
            unknown, per_object = metadata_stats(records, vocab)
            expected.append({"api_id": records[0].api_id,
                             "unknown_object_rate": unknown,
                             "mean_labels_per_object": per_object})
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert rows == sorted(expected, key=lambda row: row["api_id"])

    def test_stats_wants_only_the_labels_it_counts(self, capsys, loads, tmp_path,
                                                   fixture_files, fixture_model_file):
        """A label found only below the top k is never spelled for the load,
        and the output is what the records without it give."""
        from labeleval.embeddings import clean_label, wanted_tokens
        from labeleval.labelset import PredictedObject, read_predictions

        [path] = [p for p in fixture_files["predictions"] if "clarifai" in p.name]
        [record] = read_predictions(path)
        padded = tmp_path / path.name
        write_predictions([dataclasses.replace(record, objects=record.objects + (
            PredictedObject(("Below The Cut",), 0.01),))], padded)
        outputs = []
        for predictions in (path, padded):
            code, stdout, _ = run_cli(capsys, "stats", "--predictions", str(predictions),
                                      "--embeddings", str(fixture_model_file), "-k", "5")
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]
        assert loads[0]["wanted"] == loads[1]["wanted"]
        assert not wanted_tokens([clean_label("Below The Cut")]) & loads[1]["wanted"]
        assert wanted_tokens([clean_label("street")]) & loads[1]["wanted"]


class TestStatsCommand:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_each_counted_label_is_cleaned_once(self, capsys, monkeypatch, fixture_files,
                                                fixture_model_file, k):
        from collections import Counter

        from labeleval import embeddings
        from labeleval.labelset import read_predictions, top_k

        calls = Counter()
        clean_label = embeddings.clean_label
        def counting(raw):
            calls[raw] += 1
            return clean_label(raw)
        monkeypatch.setattr(embeddings, "clean_label", counting)
        argv = ["stats", "--embeddings", str(fixture_model_file), "-k", str(k)]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        counted = {label for path in fixture_files["predictions"]
                   for record in read_predictions(path)
                   for obj in top_k(record, k).objects for label in obj.synonyms}
        assert calls == Counter(counted)

    def test_table_output(self, capsys, fixture_files, fixture_model_file):
        argv = ["stats", "--embeddings", str(fixture_model_file), "-k", "5"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "clarifai" in stdout
        assert "unknown_objects_%" in stdout

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_a_usage_error(self, capsys, fixture_files,
                                          fixture_model_file, k):
        code, stdout, err = run_cli(
            capsys, "stats", "--embeddings", str(fixture_model_file),
            "--predictions", str(fixture_files["predictions"][0]), "-k", k)
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == [f"Error: -k must be >= 1, got {k}"]

    def test_one_file_given_twice(self, capsys, fixture_files, fixture_model_file):
        predictions = fixture_files["predictions"][0]
        code, _, err = run_cli(capsys, "stats", "--predictions", str(predictions),
                               "--predictions", str(predictions),
                               "--embeddings", str(fixture_model_file))
        assert code == 2
        assert err.splitlines() == [
            f"data error: {predictions} line 1: clarifai/1.jpg: duplicate prediction, "
            f"first read from {predictions}"]

    def test_json_output(self, capsys, fixture_files, fixture_model_file):
        argv = ["stats", "--embeddings", str(fixture_model_file), "--json"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = [json.loads(line) for line in stdout.strip().splitlines()]
        by_api = {row["api_id"]: row for row in rows}
        assert by_api["clarifai"]["mean_labels_per_object"] == 1.0
        assert by_api["deepdetect"]["unknown_object_rate"] > 0.0


class _VendorHandler(BaseHTTPRequestHandler):
    """A vendor endpoint that answers every image with the server's ``reply``:
    a JSON value, or a raw body as bytes, and counts the requests in ``posts``."""

    def do_POST(self):
        self.server.posts += 1
        reply = self.server.reply
        body = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def vendor_server():
    server = HTTPServer(("127.0.0.1", 0), _VendorHandler)
    server.reply = {"objects": [{"labels": ["car"], "confidence": 0.9},
                                {"labels": ["tree"], "confidence": 0.4}]}
    server.posts = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def vendor_endpoint(vendor_server):
    return f"http://127.0.0.1:{vendor_server.server_port}/classify"


class TestFetchCommand:
    def write_inputs(self, tmp_path, endpoint):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "api_id": "vendor", "endpoint": endpoint,
            "requests_per_period": 100, "period_seconds": 1.0}),
            encoding="utf-8")
        image = tmp_path / "img.bin"
        image.write_bytes(b"fake image bytes")
        images_path = tmp_path / "images.jsonl"
        images_path.write_text(json.dumps(
            {"image_id": "1.jpg", "path": str(image)}) + "\n", encoding="utf-8")
        return spec_path, images_path

    def test_fetch_over_http(self, capsys, tmp_path, vendor_server, vendor_endpoint):
        spec_path, images_path = self.write_inputs(tmp_path, vendor_endpoint)
        out = tmp_path / "preds.jsonl"
        code, stdout, _ = run_cli(capsys, "fetch",
                                  "--spec", str(spec_path),
                                  "--images", str(images_path),
                                  "--cache-dir", str(tmp_path / "cache"),
                                  "--out", str(out))
        assert code == 0
        from labeleval.labelset import read_predictions
        records = read_predictions(out)
        assert records[0].objects[0].synonyms == ("car",)
        assert vendor_server.posts == 1

    def test_unreachable_endpoint_is_upstream_error(self, capsys, tmp_path):
        # port 9 refuses instantly; the two retry backoffs cost ~1.5s
        spec_path, images_path = self.write_inputs(
            tmp_path, "http://127.0.0.1:9/classify")
        code, _, err = run_cli(capsys, "fetch",
                               "--spec", str(spec_path),
                               "--images", str(images_path),
                               "--cache-dir", str(tmp_path / "cache"),
                               "--out", str(tmp_path / "preds.jsonl"))
        assert code == 3
        assert "upstream error" in err

    def fetch(self, capsys, tmp_path, spec_path, images_path):
        return run_cli(capsys, "fetch", "--spec", str(spec_path),
                       "--images", str(images_path),
                       "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(tmp_path / "preds.jsonl"))

    @pytest.mark.parametrize("spec,message", [
        ("{not json", "Error: invalid client spec: invalid JSON: Expecting property "
                      "name enclosed in double quotes: line 1 column 2 (char 1)"),
        (json.dumps({"api_id": "vendor"}), "Error: spec lacks required key 'endpoint'"),
        (json.dumps({"api_id": "vendor", "endpoint": "http://127.0.0.1:9/x",
                     "requests_per_period": 0}),
         "Error: invalid client spec: requests_per_period must be >= 1"),
        (json.dumps({"api_id": "vendor", "endpoint": "http://127.0.0.1:9/x",
                     "max_total": "3"}),
         "Error: invalid client spec: max_total must be a non-negative integer"),
        (json.dumps({"api_id": 5, "endpoint": "http://127.0.0.1:9/x"}),
         "Error: invalid client spec: api_id, endpoint, auth_env_var and the "
         "*_path fields must be strings"),
        ("[1]", "Error: invalid client spec: a spec file must hold a JSON object"),
        pytest.param("[" * 100_000, f"Error: invalid client spec: invalid JSON: "
                                    f"{DEEP_JSON_MESSAGE}", id="nested-past-the-stack"),
    ])
    def test_bad_spec_is_a_usage_error(self, capsys, tmp_path, spec, message):
        spec_path, images_path = self.write_inputs(tmp_path, "http://127.0.0.1:9/x")
        spec_path.write_text(spec, encoding="utf-8")
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 1
        assert err.splitlines() == [message]

    @pytest.mark.parametrize("setting,message", [
        ({"requests_per_period": True}, "requests_per_period must be >= 1"),
        ({"requests_per_period": 2.5}, "requests_per_period must be >= 1"),
        ({"max_total": True}, "max_total must be a non-negative integer"),
        ({"period_seconds": True}, "period_seconds must be a finite positive number"),
        ({"period_seconds": "60"}, "period_seconds must be a finite positive number"),
        ({"period_seconds": float("inf")},
         "period_seconds must be a finite positive number"),
    ], ids=["bool-rate", "fractional-rate", "bool-max-total", "bool-period",
            "string-period", "infinite-period"])
    def test_quota_that_is_not_a_number_is_a_usage_error(self, capsys, tmp_path,
                                                         setting, message):
        """JSON's true is not the integer 1: a spec holding it would run with
        a quota of one request."""
        spec_path, images_path = self.write_inputs(tmp_path, "http://127.0.0.1:9/x")
        spec_path.write_text(json.dumps(
            {"api_id": "vendor", "endpoint": "http://127.0.0.1:9/x", **setting}),
            encoding="utf-8")
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 1
        assert err.splitlines() == [f"Error: invalid client spec: {message}"]

    @pytest.mark.parametrize("line,message", [
        (json.dumps({"image_id": "2.jpg"}),
         "expected an object with string image_id and path"),
        ("[1, 2", "invalid JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"),
    ])
    def test_bad_images_line_is_a_data_error(self, capsys, tmp_path, line, message):
        spec_path, images_path = self.write_inputs(tmp_path, "http://127.0.0.1:9/x")
        with images_path.open("a", encoding="utf-8") as handle:
            handle.write("\n" + line + "\n")
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 2
        assert err.splitlines() == [f"data error: {images_path} line 3: {message}"]

    @pytest.mark.parametrize("spec,line,code,message", [
        ({"api_id": ""}, None, 1,
         "Error: invalid client spec: api_id must be a non-empty string"),
        ({}, {"image_id": ""}, 2,
         "data error: {images} line 2: image_id must be a non-empty string"),
        ({}, {"image_id": "1.jpg"}, 2,
         "data error: {images} line 2: duplicate image_id: '1.jpg'"),
    ], ids=["empty-api-id", "empty-image-id", "repeated-image-id"])
    def test_what_evaluate_rejects_is_never_fetched(
            self, capsys, tmp_path, vendor_server, vendor_endpoint, spec, line, code,
            message):
        """An id that would make a record evaluate rejects, or a cache entry
        the cache reader rejects, ends the fetch before any request."""
        spec_path, images_path = self.write_inputs(tmp_path, vendor_endpoint)
        spec_path.write_text(json.dumps({"api_id": "vendor", "endpoint": vendor_endpoint,
                                         **spec}), encoding="utf-8")
        if line is not None:
            image = tmp_path / "other.bin"
            image.write_bytes(b"other image bytes")
            with images_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({**line, "path": str(image)}) + "\n")
        result, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert result == code
        assert err.splitlines() == [message.format(images=images_path)]
        assert vendor_server.posts == 0
        assert not (tmp_path / "preds.jsonl").exists()
        assert not [path for path in (tmp_path / "cache").rglob("*") if path.is_file()]

    @pytest.mark.parametrize("api_id", [".", "..", "../escaped", "vendor/x", "vendor\\x",
                                        "vendor\0", "{tmp}/absolute"])
    def test_api_id_names_one_cache_directory(self, capsys, tmp_path, vendor_server,
                                              vendor_endpoint, api_id):
        """The spec's api_id names a directory under --cache-dir; one that
        would leave or replace it is refused before anything is written."""
        api_id = api_id.format(tmp=tmp_path)
        spec_path, images_path = self.write_inputs(tmp_path, vendor_endpoint)
        spec_path.write_text(json.dumps({"api_id": api_id, "endpoint": vendor_endpoint}),
                             encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 1
        assert err.splitlines() == [
            f"Error: invalid client spec: api_id must name one directory: not '.' "
            f"or '..', and no '/', '\\' or NUL, got {api_id!r}"]
        assert vendor_server.posts == 0
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("body", [b"\x80\x81", b"[" * 100_000],
                             ids=["not-utf-8", "nested-past-the-stack"])
    def test_undecodable_vendor_body_is_an_upstream_error(
            self, capsys, tmp_path, vendor_server, vendor_endpoint, body):
        """A 200 body the decoder rejects is neither cached nor written."""
        vendor_server.reply = body
        spec_path, images_path = self.write_inputs(tmp_path, vendor_endpoint)
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 3
        assert err.splitlines() == [
            "upstream error: vendor: non-JSON response for 1.jpg"]
        assert not (tmp_path / "preds.jsonl").exists()
        assert not [path for path in (tmp_path / "cache").rglob("*") if path.is_file()]

    @pytest.mark.parametrize("entry,what", [
        ({"labels": [1], "confidence": 0.9}, "labels entries must be strings"),
        ({"labels": ["car"], "confidence": True}, "confidence must be a number"),
        ({"labels": ["car"], "confidence": "0.5"}, "confidence must be a number"),
    ], ids=["int-label", "bool-confidence", "string-confidence"])
    def test_vendor_object_meets_the_file_rule(self, capsys, tmp_path, vendor_server,
                                               vendor_endpoint, entry, what):
        """An object the predictions reader would reject is neither cached nor
        written: exit 3 and one line naming the API and the image."""
        vendor_server.reply = {"objects": [entry]}
        spec_path, images_path = self.write_inputs(tmp_path, vendor_endpoint)
        code, _, err = self.fetch(capsys, tmp_path, spec_path, images_path)
        assert code == 3
        assert err.splitlines() == [
            f"upstream error: vendor: bad object for 1.jpg: {what}"]
        assert not (tmp_path / "preds.jsonl").exists()
        assert not [path for path in (tmp_path / "cache").rglob("*") if path.is_file()]
