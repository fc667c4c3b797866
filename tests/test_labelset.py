import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import street_scene
from labeleval.embeddings import UNKNOWN_TOKEN, Vocabulary, clean_labels
from labeleval.errors import (
    BadConfidenceError,
    DataError,
    DuplicateImageError,
    EmptyInputError,
    ParseError,
)
from labeleval.labelset import (
    PredictedObject,
    PredictionRecord,
    _raw_labels,
    label_bag,
    metadata_stats,
    prediction_from_json,
    prediction_to_json,
    read_ground_truth,
    read_predictions,
    top_k,
    write_predictions,
)


def record_with_confidences(confidences):
    objects = tuple(PredictedObject(synonyms=(f"label{i}",), confidence=c)
                    for i, c in enumerate(confidences))
    return PredictionRecord(image_id="img", api_id="api", objects=objects)


class TestGroundTruthReader:
    def test_single_record(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "1", "labels": ["car", "tree"]}\n')
        records = read_ground_truth(path)
        assert len(records) == 1
        assert records[0].labels == ("car", "tree")

    def test_duplicate_image(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "1", "labels": ["a"]}\n'
                        '{"image_id": "1", "labels": ["b"]}\n')
        with pytest.raises(DuplicateImageError):
            read_ground_truth(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"image_id": "1", "labels": ["a"]}\nnot json\n')
        with pytest.raises(ParseError) as info:
            read_ground_truth(path)
        assert info.value.line_no == 2

    def test_street_scene_truth_has_25_labels(self, fixture_files):
        records = read_ground_truth(fixture_files["truth"])
        assert len(records) == 1
        assert len(records[0].labels) == 25


class TestPredictionReader:
    def test_synonym_set_preserved(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text(
            '{"image_id": "1", "api_id": "a", "objects": '
            '[{"labels": ["cab", "hack", "taxi", "taxicab"], "confidence": 0.9}]}\n')
        records = read_predictions(path)
        assert records[0].objects[0].synonyms == ("cab", "hack", "taxi", "taxicab")

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"image_id": "1", "api_id": "a", "objects": '
                        '[{"labels": ["x"], "confidence": 1.5}]}\n')
        with pytest.raises(BadConfidenceError):
            read_predictions(path)

    def test_empty_objects_is_valid(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"image_id": "1", "api_id": "a", "objects": []}\n')
        records = read_predictions(path)
        assert records[0].objects == ()

    def test_object_without_labels_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"image_id": "1", "api_id": "a", "objects": '
                        '[{"labels": []}]}\n')
        with pytest.raises(ParseError):
            read_predictions(path)

    def test_write_read_round_trip(self, tmp_path):
        records = [street_scene.prediction_record(api) for api in sorted(street_scene.PREDICTIONS)]
        path = tmp_path / "roundtrip.jsonl"
        write_predictions(records, path)
        assert read_predictions(path) == records

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_read_with_k_keeps_the_top_k(self, tmp_path, k):
        records = [
            PredictionRecord(image_id=str(i), api_id="a", objects=tuple(
                PredictedObject((f"l{i}{j}", f"s{j}"), c)
                for j, c in enumerate(confidences)))
            for i, confidences in enumerate([[0.2, None, 0.9, 0.5], [], [None, 0.3],
                                             [0.1, 0.1, 0.7]])]
        path = tmp_path / "pred.jsonl"
        write_predictions(records, path)
        assert read_predictions(path, {}, k) == [top_k(r, k) for r in records]
        assert read_predictions(path, None, None) == records

    def test_read_with_k_names_the_first_file_of_a_repeat(self, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        record = record_with_confidences([0.5, 0.9])
        write_predictions([record], first)
        write_predictions([dataclasses.replace(record, image_id="other"), record], second)
        seen: dict = {}
        read_predictions(first, seen, 1)
        with pytest.raises(DuplicateImageError) as info:
            read_predictions(second, seen, 1)
        assert info.value.line_no == 2
        assert str(info.value) == (f"{second} line 2: api/img: duplicate prediction, "
                                   f"first read from {first}")

    def test_records_hold_each_label_once(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text(''.join(
            json.dumps({"image_id": image_id, "api_id": "a",
                        "objects": [{"labels": ["street lamp"]}]}) + "\n"
            for image_id in ("1", "2")), encoding="utf-8")
        first, second = read_predictions(path)
        assert first.objects[0].synonyms[0] is second.objects[0].synonyms[0]
        truth = tmp_path / "truth.jsonl"
        truth.write_text('{"image_id": "1", "labels": ["street lamp"]}\n',
                         encoding="utf-8")
        [truth_record] = read_ground_truth(truth)
        assert truth_record.labels[0] is first.objects[0].synonyms[0]
        for value in (first, first.objects[0], truth_record):
            assert not hasattr(value, "__dict__")


# Small JSON documents built from the record fields, so that examples reach
# the field checks and not only the JSON parser.
_FIELDS = ("image_id", "api_id", "labels", "objects", "confidence")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=8)
_record_text = _json_values.map(json.dumps) | st.text(max_size=12)
_record_bytes = _record_text.map(str.encode) | st.binary(max_size=12)
_record_files = st.lists(
    st.tuples(_record_bytes, st.sampled_from([b"\n", b"\r\n", b"\r", b""])),
    max_size=4).map(lambda lines: b"".join(line + end for line, end in lines))

_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    """Malformed records are a DataError and never any other exception."""

    @_fuzz
    @given(blob=_record_files)
    def test_ground_truth_file(self, tmp_path, blob):
        path = tmp_path / "truth.jsonl"
        path.write_bytes(blob)
        try:
            records = read_ground_truth(path)
        except DataError:
            return
        assert all(isinstance(r.image_id, str) and r.image_id for r in records)

    @_fuzz
    @given(blob=_record_files)
    def test_prediction_file(self, tmp_path, blob):
        path = tmp_path / "predictions.jsonl"
        path.write_bytes(blob)
        try:
            records = read_predictions(path)
        except DataError:
            return
        assert all(prediction_from_json(prediction_to_json(r)) == r for r in records)

    @_fuzz
    @given(text=_record_text)
    def test_cache_codec(self, text):
        try:
            record = prediction_from_json(text)
        except DataError:
            return
        assert prediction_from_json(prediction_to_json(record)) == record

    @pytest.mark.parametrize("line", [
        "1" * 5000,  # past the interpreter's integer digit limit
        "[" * 100_000,  # nested past the recursion limit
        '{"image_id": "1", "api_id": "a", "objects": [{"labels": ["x"], '
        '"confidence": 1' + "0" * 400 + "}]}",  # too large for a float
    ], ids=["digits", "nesting", "huge-confidence"])
    def test_records_past_interpreter_limits(self, tmp_path, line):
        with pytest.raises(DataError):
            prediction_from_json(line)
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)
        with pytest.raises(DataError):
            read_ground_truth(path)


class TestTopK:
    def test_tie_keeps_file_order(self):
        record = record_with_confidences([0.9, 0.8, 0.8, 0.1, 0.05])
        kept = top_k(record, 3).objects
        assert [o.synonyms[0] for o in kept] == ["label0", "label1", "label2"]

    def test_k_larger_than_objects(self):
        record = record_with_confidences([0.9, 0.5, 0.1])
        assert len(top_k(record, 5).objects) == 3

    def test_k1_takes_most_confident(self):
        record = record_with_confidences([0.2, 0.9])
        assert top_k(record, 1).objects[0].synonyms == ("label1",)

    def test_absent_confidence_ranks_last(self):
        objects = (PredictedObject(synonyms=("a",), confidence=None),
                   PredictedObject(synonyms=("b",), confidence=0.1),
                   PredictedObject(synonyms=("c",), confidence=None))
        record = PredictionRecord(image_id="i", api_id="x", objects=objects)
        kept = top_k(record, 3).objects
        assert [o.synonyms[0] for o in kept] == ["b", "a", "c"]

    @given(st.lists(st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
                    max_size=8),
           st.integers(min_value=1, max_value=6))
    def test_idempotent(self, confidences, k):
        record = record_with_confidences(confidences)
        once = top_k(record, k)
        assert top_k(once, k) == once

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k(record_with_confidences([0.5]), 0)


class TestLabelBag:
    def test_prediction_bag_counts_every_synonym(self, fixture_store):
        record = street_scene.prediction_record("mobilenet_v2")
        bag = label_bag(record.objects, fixture_store)
        assert len(bag) == sum(len(o.synonyms) for o in record.objects)
        assert len(bag) == 12

    def test_truth_bag(self, fixture_store):
        bag = label_bag(["car", "tree"], fixture_store)
        assert bag == ["car", "tree"]

    def test_unresolvable_becomes_unknown(self, fixture_store):
        bag = label_bag([PredictedObject(synonyms=("zzqx",))], fixture_store)
        assert bag == [UNKNOWN_TOKEN]

    def test_permutation_tokens_resolve(self, fixture_store):
        bag = label_bag(["parking meter", "lamp post"], fixture_store)
        assert bag == ["Parking_Meter", "lamp_post"]


def stats_of(records, store, k):
    """``metadata_stats`` as ``stats`` calls it: on the records cut to their top
    k, through one Vocabulary over those records' labels."""
    ranked = [top_k(record, k) for record in records]
    return metadata_stats(ranked, Vocabulary(store, clean_labels(_raw_labels(ranked))))


class TestMetadataStats:
    def test_unknown_object_rate(self, fixture_store):
        objects = [PredictedObject(synonyms=("car",), confidence=0.9)] * 9
        objects.append(PredictedObject(synonyms=("zzqx",), confidence=0.1))
        record = PredictionRecord(image_id="1", api_id="a", objects=tuple(objects))
        unknown_rate, _ = stats_of([record], fixture_store, k=10)
        assert unknown_rate == pytest.approx(0.10)

    def test_single_label_objects_mean_one(self, fixture_store):
        record = street_scene.prediction_record("clarifai")
        _, labels_per_object = stats_of([record], fixture_store, k=5)
        assert labels_per_object == 1.0

    def test_empty_input(self, fixture_store):
        record = PredictionRecord(image_id="1", api_id="a", objects=())
        with pytest.raises(EmptyInputError):
            stats_of([record], fixture_store, k=5)

    def test_object_with_one_known_synonym_is_known(self, fixture_store):
        record = PredictionRecord(
            image_id="1", api_id="a",
            objects=(PredictedObject(synonyms=("zzqx", "car")),))
        unknown_rate, _ = stats_of([record], fixture_store, k=5)
        assert unknown_rate == 0.0
