import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import street_scene
from labeleval.cli import main
from labeleval.report import parse_json_lines


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
        from labeleval import wmd
        from labeleval.errors import NumericalFailureError

        def failing_solver(*args, **kwargs):
            raise NumericalFailureError("transport solver failed to converge")

        monkeypatch.setattr(wmd, "solve_transport", failing_solver)
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
        code, _, _ = run_cli(
            capsys, "evaluate",
            "--ground-truth", str(fixture_files["truth"]),
            "--predictions", str(fixture_files["predictions"][0]),
            "--embeddings", str(fixture_model_file),
            "--top-k", "five")
        assert code == 1


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


    def test_loads_every_row(self, capsys, monkeypatch, fixture_model_file):
        from labeleval import cli
        from labeleval.embeddings import load_text_model

        loads = []
        real = cli.load_model
        monkeypatch.setattr(cli, "load_model",
                            lambda *a, **kw: loads.append(kw) or real(*a, **kw))
        code, stdout, _ = run_cli(capsys, "inspect-embeddings",
                                  str(fixture_model_file), "--token", "car")
        assert code == 0
        assert loads == [{}]
        full = load_text_model(fixture_model_file)
        assert stdout.splitlines()[0] == f"vocab_size={len(full)} dim={full.dim}"

    @pytest.mark.parametrize("name,message", [
        ("model.txt", "{path}: a row of 99999999999999999999 components cannot "
                      "fit in the file"),
        ("model.bin", "truncated record at index 0"),
    ], ids=["text", "binary"])
    def test_huge_header_dimension(self, capsys, tmp_path, name, message):
        model = tmp_path / name
        model.write_bytes(b"1 99999999999999999999\ncat 1\n")
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
        from labeleval.embeddings import load_text_model
        from labeleval.labelset import metadata_stats, read_predictions

        argv = ["stats", "--embeddings", str(fixture_model_file), "--json", "-k", "3"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [sorted(kw) for kw in loads] == [["wanted"]]
        full = load_text_model(fixture_model_file)
        expected = []
        for path in fixture_files["predictions"]:
            records = read_predictions(path)
            unknown, per_object = metadata_stats(records, full, 3)
            expected.append({"api_id": records[0].api_id,
                             "unknown_object_rate": unknown,
                             "mean_labels_per_object": per_object})
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert rows == sorted(expected, key=lambda row: row["api_id"])


class TestStatsCommand:
    def test_table_output(self, capsys, fixture_files, fixture_model_file):
        argv = ["stats", "--embeddings", str(fixture_model_file), "-k", "5"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "clarifai" in stdout
        assert "unknown_objects_%" in stdout

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
    def do_POST(self):
        body = json.dumps(
            {"objects": [{"labels": ["car"], "confidence": 0.9},
                         {"labels": ["tree"], "confidence": 0.4}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def vendor_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _VendorHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/classify"
    server.shutdown()


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

    def test_fetch_over_http(self, capsys, tmp_path, vendor_endpoint):
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
