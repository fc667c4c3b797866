import hashlib
import json
import logging
import re

import pytest

import street_scene
from helpers import sentence_score
from labeleval.errors import (
    AuthMissingError,
    CacheCorruptError,
    EmptyBagError,
    EmptyDatasetError,
    ProviderUnavailableError,
    QuotaExhaustedError,
    UnresolvedTokenError,
    UpstreamError,
)
from labeleval.harness import (
    ApiClientSpec,
    ImageRef,
    RunConfig,
    SlidingWindowLimiter,
    fetch_predictions,
    natural_key,
    normalize_response,
    run_evaluation,
)
from labeleval.labelset import write_ground_truth, write_predictions
from labeleval.labelset import GroundTruthRecord, PredictionRecord, PredictedObject
from labeleval.sentence import ProviderConfig, text_digest, render_bow_text


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


class FakeTransport:
    """Returns scripted (status, body) responses and records issue times."""

    def __init__(self, clock, script=None):
        self.clock = clock
        self.script = list(script or [])
        self.times = []

    def __call__(self, url, headers, body):
        self.times.append(self.clock.now)
        if self.script:
            entry = self.script.pop(0)
            if isinstance(entry, Exception):
                raise entry
            return entry
        payload = {"objects": [{"labels": ["car"], "confidence": 0.9}]}
        return 200, json.dumps(payload).encode("utf-8")


def make_spec(**overrides):
    settings = dict(api_id="vendor", endpoint="http://vendor.test/classify",
                    requests_per_period=100, period_seconds=10.0)
    settings.update(overrides)
    return ApiClientSpec(**settings)


def make_images(tmp_path, count):
    refs = []
    for i in range(count):
        path = tmp_path / f"img{i}.bin"
        path.write_bytes(f"image-{i}".encode())
        refs.append(ImageRef(image_id=f"{i}.jpg", path=str(path)))
    return refs


class TestNaturalOrder:
    def test_numeric_aware(self):
        names = ["10.jpg", "2.jpg", "1.jpg", "1a.jpg"]
        assert sorted(names, key=natural_key) == \
            ["1.jpg", "1a.jpg", "2.jpg", "10.jpg"]


class TestRateLimiter:
    def test_window_never_exceeded(self):
        clock = FakeClock()
        limiter = SlidingWindowLimiter(3, 10.0, clock=clock.monotonic,
                                       sleep=clock.sleep)
        times = [limiter.acquire() for _ in range(12)]
        for start in times:
            in_window = [t for t in times if start <= t < start + 10.0]
            assert len(in_window) <= 3
        for i in range(len(times) - 3):
            assert times[i + 3] - times[i] >= 10.0 - 1e-9

    def test_no_wait_under_limit(self):
        clock = FakeClock()
        limiter = SlidingWindowLimiter(5, 10.0, clock=clock.monotonic,
                                       sleep=clock.sleep)
        for _ in range(5):
            limiter.acquire()
        assert clock.now == 0.0


class TestFetch:
    def test_cold_then_warm_cache(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock)
        spec = make_spec()
        refs = make_images(tmp_path, 4)
        cache = tmp_path / "cache"
        records = fetch_predictions(spec, refs, cache, transport=transport,
                                    clock=clock.monotonic, sleep=clock.sleep)
        assert len(records) == 4
        assert len(transport.times) == 4
        warm = fetch_predictions(spec, refs, cache, transport=transport,
                                 clock=clock.monotonic, sleep=clock.sleep)
        assert warm == records
        assert len(transport.times) == 4  # zero new upstream requests

    def test_auth_missing_before_any_request(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock)
        spec = make_spec(auth_env_var="VENDOR_KEY")
        with pytest.raises(AuthMissingError):
            fetch_predictions(spec, make_images(tmp_path, 1), tmp_path / "c",
                              transport=transport, clock=clock.monotonic,
                              sleep=clock.sleep, env={})
        assert transport.times == []

    def test_auth_header_sent(self, tmp_path):
        captured = {}

        def transport(url, headers, body):
            captured.update(headers)
            return 200, json.dumps({"objects": []}).encode()

        spec = make_spec(auth_env_var="VENDOR_KEY")
        fetch_predictions(spec, make_images(tmp_path, 1), tmp_path / "c",
                          transport=transport, env={"VENDOR_KEY": "secret"})
        assert captured["Authorization"] == "Bearer secret"

    def test_quota_exhausted_at_boundary(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock)
        spec = make_spec(max_total=5)
        refs = make_images(tmp_path, 6)
        with pytest.raises(QuotaExhaustedError):
            fetch_predictions(spec, refs, tmp_path / "c", transport=transport,
                              clock=clock.monotonic, sleep=clock.sleep)
        assert len(transport.times) == 5  # request 6 was never issued

    def test_quota_ignores_cached_images(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock)
        refs = make_images(tmp_path, 5)
        cache = tmp_path / "c"
        fetch_predictions(make_spec(), refs, cache, transport=transport,
                          clock=clock.monotonic, sleep=clock.sleep)
        records = fetch_predictions(make_spec(max_total=5), refs, cache,
                                    transport=transport,
                                    clock=clock.monotonic, sleep=clock.sleep)
        assert len(records) == 5
        assert len(transport.times) == 5

    def test_transient_failure_retried(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock, script=[
            (503, b""),
            ConnectionError("flaky"),
        ])
        records = fetch_predictions(make_spec(), make_images(tmp_path, 1),
                                    tmp_path / "c", transport=transport,
                                    clock=clock.monotonic, sleep=clock.sleep)
        assert len(records) == 1
        assert len(transport.times) == 3

    def test_hard_failure_not_retried(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock, script=[(404, b"")])
        with pytest.raises(UpstreamError) as info:
            fetch_predictions(make_spec(), make_images(tmp_path, 1),
                              tmp_path / "c", transport=transport,
                              clock=clock.monotonic, sleep=clock.sleep)
        assert info.value.status == 404
        assert len(transport.times) == 1

    def test_retries_exhausted(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock, script=[(500, b"")] * 3)
        with pytest.raises(UpstreamError):
            fetch_predictions(make_spec(), make_images(tmp_path, 1),
                              tmp_path / "c", transport=transport,
                              clock=clock.monotonic, sleep=clock.sleep)
        assert len(transport.times) == 3


    def test_identical_bytes_keep_their_own_ids(self, tmp_path):
        clock = FakeClock()
        transport = FakeTransport(clock)
        refs = []
        for image_id in ("1.jpg", "2.jpg"):
            path = tmp_path / f"copy-of-{image_id}"
            path.write_bytes(b"the same image")
            refs.append(ImageRef(image_id=image_id, path=str(path)))
        records = fetch_predictions(make_spec(), refs, tmp_path / "c",
                                    transport=transport,
                                    clock=clock.monotonic, sleep=clock.sleep)
        assert [(r.image_id, r.api_id) for r in records] == \
            [("1.jpg", "vendor"), ("2.jpg", "vendor")]
        assert len(transport.times) == 1
        assert records[0].objects == records[1].objects


class TestNormalization:
    def test_nested_paths_and_string_labels(self):
        spec = make_spec(objects_path="result.items", labels_path="name",
                         confidence_path="score")
        payload = {"result": {"items": [
            {"name": "car", "score": 0.9},
            {"name": "tree"},
        ]}}
        record = normalize_response(spec, "7.jpg", payload)
        assert record.objects[0].synonyms == ("car",)
        assert record.objects[0].confidence == 0.9
        assert record.objects[1].confidence is None

    def test_missing_objects_field(self):
        with pytest.raises(UpstreamError):
            normalize_response(make_spec(), "7.jpg", {"nothing": []})


class TestRunEvaluation:
    def make_config(self, fixture_files, fixture_model_file, **overrides):
        settings = dict(
            ground_truth_path=str(fixture_files["truth"]),
            prediction_paths=tuple(str(p) for p in fixture_files["predictions"]),
            embeddings_path=str(fixture_model_file),
            top_ks=(1, 3, 5),
        )
        settings.update(overrides)
        return RunConfig(**settings)

    def test_street_scene_grid_at_k5(self, fixture_files, fixture_model_file):
        report = run_evaluation(self.make_config(fixture_files, fixture_model_file,
                                                 top_ks=(5,)))
        by_api = {row.api_id: row for row in report.rows}
        assert len(report.rows) == len(street_scene.PREDICTIONS)
        for api_id, (recall, precision) in street_scene.EXPECTED_EXACT.items():
            assert by_api[api_id].cells["recall"] == pytest.approx(recall, abs=0.005)
            assert by_api[api_id].cells["precision"] == \
                pytest.approx(precision, abs=0.005)
        for api_id, (recall, precision) in street_scene.EXPECTED_SEMANTIC.items():
            assert by_api[api_id].cells["recall_semantic"] == \
                pytest.approx(recall, abs=0.005)
            assert by_api[api_id].cells["precision_semantic"] == \
                pytest.approx(precision, abs=0.005)
        for row in report.rows:
            assert row.cells["wmd"] >= 0.0
            assert row.extras["mean_labels_per_object"] >= 1.0

    def test_single_image_micro_equals_example(self, fixture_files,
                                               fixture_model_file):
        report = run_evaluation(self.make_config(fixture_files, fixture_model_file,
                                                 top_ks=(5,)))
        row = next(r for r in report.rows
                   if r.api_id == "microsoft_computer_vision")
        assert row.cells["micro_precision"] == pytest.approx(0.6)
        assert row.cells["micro_recall"] == pytest.approx(0.12)

    def test_worker_counts_agree(self, fixture_files, fixture_model_file):
        reports = [
            run_evaluation(self.make_config(fixture_files, fixture_model_file,
                                            workers=workers))
            for workers in (1, 4)
        ]
        for row_a, row_b in zip(reports[0].rows, reports[1].rows):
            assert row_a == row_b

    def test_ledger_space_is_cleaned_once_per_api(self, monkeypatch, fixture_files,
                                                  fixture_model_file):
        from labeleval.bipartition import ConfusionLedger

        spaces = []
        build = ConfusionLedger.__init__
        monkeypatch.setattr(ConfusionLedger, "__init__", lambda ledger, space:
                            spaces.append(space) or build(ledger, space))
        config = self.make_config(fixture_files, fixture_model_file)
        report = run_evaluation(config)
        assert len(spaces) == len(street_scene.PREDICTIONS)
        assert len(report.rows) == len(spaces) * len(config.top_ks)

    def test_model_is_read_once_keeping_the_run_rows(self, monkeypatch,
                                                      fixture_files,
                                                      fixture_model_file):
        from labeleval import harness
        from labeleval.embeddings import load_model

        loads, hashed = [], []

        def recording_load(*args, **kwargs):
            loads.append(kwargs)
            return load_model(*args, **kwargs)

        def recording_hash(path, real=harness._sha256_file):
            hashed.append(str(path))
            return real(path)

        monkeypatch.setattr(harness, "load_model", recording_load)
        monkeypatch.setattr(harness, "_sha256_file", recording_hash)
        config = self.make_config(fixture_files, fixture_model_file)
        report = run_evaluation(config)
        assert len(loads) == 1
        wanted = loads[0]["wanted"]
        assert {"Parking_Meter", "lamp_post", "car"} <= wanted
        assert str(fixture_model_file) not in hashed
        assert report.provenance["embeddings_digest"] == \
            hashlib.sha256(fixture_model_file.read_bytes()).hexdigest()

        monkeypatch.setattr(harness, "load_model",
                            lambda path, fmt, wanted: load_model(path, fmt))
        full = run_evaluation(config)
        assert report.rows == full.rows
        assert report.provenance == full.provenance

    def test_k1_equals_k5_for_single_object_records(self, tmp_path,
                                                    fixture_model_file):
        truth = [GroundTruthRecord(image_id="1.jpg", labels=("car", "tree"))]
        predictions = [PredictionRecord(
            image_id="1.jpg", api_id="solo",
            objects=(PredictedObject(synonyms=("car",), confidence=0.9),))]
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_ground_truth(truth, gt_path)
        write_predictions(predictions, pred_path)
        report = run_evaluation(RunConfig(
            ground_truth_path=str(gt_path), prediction_paths=(str(pred_path),),
            embeddings_path=str(fixture_model_file), top_ks=(1, 5)))
        k1 = next(r for r in report.rows if r.k == 1)
        k5 = next(r for r in report.rows if r.k == 5)
        assert k1.cells == k5.cells

    def test_prediction_for_absent_image_counted(self, tmp_path, fixture_files,
                                                 fixture_model_file):
        ghost = PredictionRecord(
            image_id="ghost.jpg", api_id="clarifai",
            objects=(PredictedObject(synonyms=("car",), confidence=0.5),))
        extra = tmp_path / "extra.jsonl"
        write_predictions([ghost], extra)
        config = self.make_config(
            fixture_files, fixture_model_file, top_ks=(5,),
            prediction_paths=tuple(str(p) for p in fixture_files["predictions"])
            + (str(extra),))
        report = run_evaluation(config)
        row = next(r for r in report.rows if r.api_id == "clarifai")
        assert row.skips["missing_truth"] == 1
        recall, precision = street_scene.EXPECTED_EXACT["clarifai"]
        assert row.cells["recall"] == pytest.approx(recall, abs=0.005)

    def test_empty_truth_records_skipped_with_count(self, tmp_path,
                                                    fixture_model_file):
        truth = [GroundTruthRecord(image_id="1.jpg", labels=("car",)),
                 GroundTruthRecord(image_id="2.jpg", labels=())]
        predictions = [
            PredictionRecord(image_id=i, api_id="a",
                             objects=(PredictedObject(synonyms=("car",),
                                                      confidence=0.9),))
            for i in ("1.jpg", "2.jpg")]
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_ground_truth(truth, gt_path)
        write_predictions(predictions, pred_path)
        report = run_evaluation(RunConfig(
            ground_truth_path=str(gt_path), prediction_paths=(str(pred_path),),
            embeddings_path=str(fixture_model_file), top_ks=(5,)))
        assert report.rows[0].skips["empty_truth"] == 1
        assert report.rows[0].cells["precision"] == 1.0

    def test_empty_truth_is_counted_after_interning(self, tmp_path, fixture_model_file,
                                                    caplog):
        """A record is empty truth when its interned labels are: no label
        survives cleaning, or it has none. One warning counts every such
        record, predicted or not."""
        truth = [GroundTruthRecord(image_id="1.jpg", labels=("car",)),
                 GroundTruthRecord(image_id="2.jpg", labels=("!!!", "", "**")),
                 GroundTruthRecord(image_id="3.jpg", labels=())]
        predictions = [
            PredictionRecord(image_id=i, api_id="a",
                             objects=(PredictedObject(synonyms=("car",),
                                                      confidence=0.9),))
            for i in ("1.jpg", "2.jpg", "4.jpg")]
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_ground_truth(truth, gt_path)
        write_predictions(predictions, pred_path)
        with caplog.at_level(logging.WARNING, logger="labeleval.harness"):
            report = run_evaluation(RunConfig(
                ground_truth_path=str(gt_path), prediction_paths=(str(pred_path),),
                embeddings_path=str(fixture_model_file), top_ks=(1,)))
        assert [record.getMessage() for record in caplog.records] == [
            "skipping 2 ground-truth records with no usable labels"]
        assert report.rows[0].skips == {"missing_truth": 1, "empty_truth": 1,
                                        "wmd_empty_prediction": 0}

    def test_run_never_resolves_through_resolve_label(self, fixture_files,
                                                      fixture_model_file, monkeypatch):
        """The Vocabulary resolves each distinct cleaned text by its
        spellings; resolve_label, which cleans again, is for single labels."""
        from labeleval import embeddings

        config = self.make_config(fixture_files, fixture_model_file)
        expected = run_evaluation(config)

        def refuse(*args, **kwargs):
            raise AssertionError("a run resolved a label through resolve_label")

        monkeypatch.setattr(embeddings, "resolve_label", refuse)
        assert run_evaluation(config) == expected

    @pytest.mark.parametrize("top_ks,message", [
        ((), "non-empty integers"),
        ((0, 1), "each >= 1"),
        ((1.5,), r"integers, each >= 1, got \[1.5\]"),
        ((True, 3), r"integers, each >= 1, got \[True, 3\]"),
        (("3",), "integers"),
        ((3, 3), r"distinct, got \[3, 3\]"),
        ((1, 5, 1), "distinct"),
    ])
    def test_bad_top_ks_rejected(self, top_ks, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(ground_truth_path="", prediction_paths=(), embeddings_path="",
                      top_ks=top_ks)

    def test_no_overlap_raises(self, tmp_path, fixture_model_file):
        truth = [GroundTruthRecord(image_id="1.jpg", labels=("car",))]
        predictions = [PredictionRecord(
            image_id="other.jpg", api_id="a",
            objects=(PredictedObject(synonyms=("car",), confidence=0.9),))]
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_ground_truth(truth, gt_path)
        write_predictions(predictions, pred_path)
        with pytest.raises(EmptyDatasetError):
            run_evaluation(RunConfig(
                ground_truth_path=str(gt_path),
                prediction_paths=(str(pred_path),),
                embeddings_path=str(fixture_model_file)))

    def test_sentence_column_from_precomputed_file(self, tmp_path, fixture_files,
                                                   fixture_model_file):
        texts = {render_bow_text(street_scene.TRUTH_LABELS)}
        for api_id in street_scene.PREDICTIONS:
            from labeleval.labelset import top_k
            record = street_scene.prediction_record(api_id)
            texts.add(render_bow_text(top_k(record, 5).objects))
        vector_file = tmp_path / "sentence_vectors.jsonl"
        lines = []
        for text in sorted(texts):
            seed = int(text_digest(text)[:8], 16)
            vector = [1.0, float(seed % 997) / 997.0, float(seed % 131) / 131.0]
            lines.append(json.dumps({"digest": text_digest(text), "model": "m",
                                     "vector": vector}))
        vector_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = self.make_config(
            fixture_files, fixture_model_file, top_ks=(5,),
            sentence=ProviderConfig(mode="file", path=str(vector_file), model="m"))
        report = run_evaluation(config)
        assert all("sentence_similarity" in row.cells for row in report.rows)
        for row in report.rows:
            assert -1.0 <= row.cells["sentence_similarity"] <= 1.0

    def test_config_file_round_trip(self, tmp_path, fixture_files,
                                    fixture_model_file):
        payload = {
            "ground_truth": str(fixture_files["truth"]),
            "predictions": [str(p) for p in fixture_files["predictions"]],
            "embeddings": str(fixture_model_file),
            "top_ks": [5],
            "threshold": 0.4,
            "workers": 2,
            "output": {"path": str(tmp_path / "out"), "format": "csv"},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        config = RunConfig.from_file(config_path)
        assert config.top_ks == (5,)
        assert config.workers == 2
        report = run_evaluation(config)
        assert len(report.rows) == len(street_scene.PREDICTIONS)


class TestSentencePass:
    """The run embeds every distinct text of every (api, k) in one call."""

    TRUTH = {"1.jpg": ("car", "street"), "2.jpg": ("tree",), "10.jpg": ("dog",)}
    OBJECTS = {
        "a": {"1.jpg": [("car", 0.9), ("tree", 0.4)], "2.jpg": [("tree", 0.8)],
              "10.jpg": [("cat", 0.7), ("dog", 0.6)]},
        "b": {"1.jpg": [("car", 0.9)], "2.jpg": [("bush", 0.5), ("tree", 0.3)],
              "10.jpg": [("***", 0.9)]},
    }

    def write_inputs(self, tmp_path, objects=None):
        objects = objects or self.OBJECTS
        gt_path = tmp_path / "gt.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        write_ground_truth([GroundTruthRecord(image_id=i, labels=labels)
                            for i, labels in self.TRUTH.items()], gt_path)
        write_predictions([
            PredictionRecord(image_id=i, api_id=api_id, objects=tuple(
                PredictedObject(synonyms=(label,), confidence=c)
                for label, c in entries))
            for api_id, per_image in objects.items()
            for i, entries in per_image.items()], pred_path)
        return gt_path, pred_path

    def texts_in_parent_order(self, objects=None):
        """Truth and prediction texts per (api, k), images in natural order."""
        from labeleval.labelset import top_k

        texts = []
        for api_id, per_image in sorted((objects or self.OBJECTS).items()):
            for k in (1, 2):
                for image_id in sorted(per_image, key=natural_key):
                    record = PredictionRecord(
                        image_id=image_id, api_id=api_id, objects=tuple(
                            PredictedObject(synonyms=(label,), confidence=c)
                            for label, c in per_image[image_id]))
                    try:
                        predicted = render_bow_text(top_k(record, k).objects)
                    except EmptyBagError:
                        continue
                    texts += [render_bow_text(self.TRUTH[image_id]), predicted]
        return texts

    def run(self, tmp_path, model_file, texts, monkeypatch, objects=None):
        from labeleval import harness

        vector_file = tmp_path / "vectors.jsonl"
        vector_file.write_text("".join(
            json.dumps({"digest": text_digest(text), "model": "m",
                        "vector": [1.0, len(text) / 10.0, text.count("r") - 0.5]})
            + "\n" for text in texts), encoding="utf-8")
        calls = []
        real_fetch = harness.fetch_embeddings

        def counting_fetch(config, texts, **kwargs):
            calls.append(list(texts))
            return real_fetch(config, texts, **kwargs)

        monkeypatch.setattr(harness, "fetch_embeddings", counting_fetch)
        gt_path, pred_path = self.write_inputs(tmp_path, objects)
        provider = ProviderConfig(mode="file", path=str(vector_file), model="m")
        config = RunConfig(ground_truth_path=str(gt_path),
                           prediction_paths=(str(pred_path),),
                           embeddings_path=str(model_file), top_ks=(1, 2),
                           include_semantic=False, include_wmd=False,
                           sentence=provider)
        return calls, provider, config

    def test_one_call_for_every_distinct_text(self, tmp_path, fixture_model_file,
                                              monkeypatch):
        texts = self.texts_in_parent_order()
        calls, provider, config = self.run(tmp_path, fixture_model_file, texts,
                                           monkeypatch)
        report = run_evaluation(config)
        assert calls == [list(dict.fromkeys(texts))]
        assert len(calls[0]) < len(texts)  # texts repeat across (api, k)
        rows = {(row.api_id, row.k): row for row in report.rows}
        assert rows["b", 1].skips["sentence_empty_prediction"] == 1
        assert rows["a", 2].skips["sentence_empty_prediction"] == 0
        # Each cell is the mean of the pairwise scores in natural image order.
        pairs = list(zip(texts[::2], texts[1::2]))
        for api_id, k, images in (("a", 1, 3), ("a", 2, 3), ("b", 1, 2),
                                  ("b", 2, 2)):
            cell, pairs = pairs[:images], pairs[images:]
            scores = [sentence_score(t, p, provider) for t, p in cell]
            assert rows[api_id, k].cells["sentence_similarity"] == \
                sum(scores) / len(scores)

    def test_empty_cell_raises_before_any_provider_call(self, tmp_path,
                                                        fixture_model_file,
                                                        monkeypatch):
        objects = dict(self.OBJECTS, c={"2.jpg": [("***", 0.9)]})
        calls, _, config = self.run(tmp_path, fixture_model_file,
                                    self.texts_in_parent_order(objects),
                                    monkeypatch, objects)
        with pytest.raises(EmptyDatasetError,
                           match=re.escape("c: no prediction texts to embed")):
            run_evaluation(config)
        assert calls == []

    def test_missing_digest_names_the_first_missing_text(self, tmp_path,
                                                         fixture_model_file,
                                                         monkeypatch):
        texts = self.texts_in_parent_order()
        # The first missing text of (a, 2) precedes b's at k=1, though b's
        # image sorts first.
        first, later = "car tree", "bush"
        assert texts.index(first) < texts.index(later)
        kept = [t for t in texts if t not in (first, later)]
        _, _, config = self.run(tmp_path, fixture_model_file, kept, monkeypatch)
        with pytest.raises(ProviderUnavailableError,
                           match=text_digest(first)):
            run_evaluation(config)


class TestFetchCacheValidation:
    @pytest.mark.parametrize("bad_object", [
        {"labels": [7]},
        {"labels": ["car"], "confidence": 7.5},
    ])
    def test_bad_entry_names_its_path(self, tmp_path, bad_object):
        clock = FakeClock()
        transport = FakeTransport(clock)
        refs = make_images(tmp_path, 1)
        cache = tmp_path / "cache"
        fetch_predictions(make_spec(), refs, cache, transport=transport,
                          clock=clock.monotonic, sleep=clock.sleep)
        (entry,) = (cache / "vendor").glob("*.json")
        entry.write_text(json.dumps({"image_id": "0.jpg", "api_id": "vendor",
                                     "objects": [bad_object]}), encoding="utf-8")
        with pytest.raises(CacheCorruptError, match=re.escape(str(entry))):
            fetch_predictions(make_spec(), refs, cache, transport=transport,
                              clock=clock.monotonic, sleep=clock.sleep)
        assert len(transport.times) == 1


def test_digest_of_a_file_larger_than_one_chunk(tmp_path):
    from labeleval.harness import _sha256_file

    path = tmp_path / "model.bin"
    data = bytes(range(256)) * 12_000
    path.write_bytes(data)
    assert _sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_annotated_error_keeps_class_and_attributes(monkeypatch, fixture_files,
                                                    fixture_model_file):
    from labeleval import harness

    def failing_wmd(*args, **kwargs):
        raise UnresolvedTokenError("zzz")

    monkeypatch.setattr(harness, "dataset_wmd", failing_wmd)
    with pytest.raises(UnresolvedTokenError) as info:
        run_evaluation(RunConfig(
            ground_truth_path=str(fixture_files["truth"]),
            prediction_paths=(str(fixture_files["predictions"][0]),),
            embeddings_path=str(fixture_model_file), top_ks=(1,)))
    assert info.value.token == "zzz"
    assert str(info.value) == ("clarifai/<dataset>: "
                               "token not present in embedding store: 'zzz'")
