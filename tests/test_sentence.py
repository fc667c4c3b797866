import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from helpers import sentence_score
from labeleval.errors import (
    CacheCorruptError,
    DimensionInconsistentError,
    EmptyBagError,
    ProviderUnavailableError,
)
from labeleval.labelset import PredictedObject
from labeleval.sentence import (
    ProviderConfig,
    fetch_embeddings,
    render_bow_text,
    text_digest,
)


def write_precomputed(path, model, vectors_by_text):
    lines = []
    for text, vector in vectors_by_text.items():
        lines.append(json.dumps({"digest": text_digest(text), "model": model,
                                 "vector": vector}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRendering:
    def test_truth_labels_in_order(self):
        assert render_bow_text(["street", "city"]) == "street city"

    def test_objects_then_synonyms(self):
        objects = [PredictedObject(synonyms=("cab", "hack", "taxi")),
                   PredictedObject(synonyms=("crutch",))]
        assert render_bow_text(objects) == "cab hack taxi crutch"

    def test_cleaning_applied(self):
        assert render_bow_text(["Parking  Meter!"]) == "parking meter"

    def test_empty_bag(self):
        with pytest.raises(EmptyBagError):
            render_bow_text([])
        with pytest.raises(EmptyBagError):
            render_bow_text(["***"])

    def test_pure_function(self):
        bag = ["a", "b", "c"]
        assert render_bow_text(bag) == render_bow_text(list(bag))


class TestPrecomputedProvider:
    def test_lookup(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        vectors = fetch_embeddings(config, ["alpha", "beta"])
        assert np.allclose(vectors[0], [1.0, 0.0])
        assert np.allclose(vectors[1], [0.0, 1.0])

    def test_deeply_nested_record_is_unreadable(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        config = ProviderConfig(mode="file", path=str(path), model="m")
        with pytest.raises(CacheCorruptError, match="line 1: unreadable vector record"):
            fetch_embeddings(config, ["alpha"])

    def test_missing_text_names_digest(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        with pytest.raises(ProviderUnavailableError) as info:
            fetch_embeddings(config, ["missing"])
        assert text_digest("missing") in str(info.value)

    def test_wrong_model_rows_ignored(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "other", {"alpha": [1.0]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        with pytest.raises(ProviderUnavailableError):
            fetch_embeddings(config, ["alpha"])

    def test_inconsistent_dimensions(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0, 0.0], "beta": [1.0]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        with pytest.raises(DimensionInconsistentError):
            fetch_embeddings(config, ["alpha", "beta"])

    @pytest.mark.parametrize("vector", [
        [float("nan"), 1.0], [1.0, float("inf")], [-float("inf"), 0.0], [[1.0, 2.0]],
        [[1.0], [2.0]], 1.0])
    def test_vector_must_be_flat_and_finite(self, tmp_path, vector):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0, 0.0], "beta": vector})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        with pytest.raises(CacheCorruptError) as info:
            fetch_embeddings(config, ["alpha", "beta"])
        assert str(info.value) == (f"{path}: vector for digest {text_digest('beta')} "
                                   "is not a 1-D array of finite numbers")

    def test_unrequested_bad_vector_is_not_read(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0, 0.0], "beta": [float("nan")]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        assert fetch_embeddings(config, ["alpha"])[0].tolist() == [1.0, 0.0]

    def test_orthogonal_vectors_score_zero(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [1.0, 0.0], "beta": [0.0, 1.0]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        assert sentence_score("alpha", "beta", config) == 0.0

    def test_identical_texts_score_one(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [0.3, 0.4, 0.5]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        assert sentence_score("alpha", "alpha", config) \
            == pytest.approx(1.0, abs=1e-12)

    def test_score_symmetric_under_swap(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_precomputed(path, "m", {"alpha": [0.3, 0.4, 0.5],
                                      "beta": [-1.0, 2.0, 0.25]})
        config = ProviderConfig(mode="file", path=str(path), model="m")
        assert sentence_score("alpha", "beta", config) \
            == sentence_score("beta", "alpha", config)


class FakePost:
    """Scripted provider endpoint: optionally fails before succeeding."""

    def __init__(self, dim=3, failures=0):
        self.dim = dim
        self.failures = failures
        self.calls = []
        self.sleeps = []

    def __call__(self, endpoint, payload, timeout):
        self.calls.append(payload)
        if self.failures > 0:
            self.failures -= 1
            raise ConnectionError("scripted failure")
        vectors = [[float(len(text))] * self.dim for text in payload["texts"]]
        return {"vectors": vectors}

    def sleep(self, seconds):
        self.sleeps.append(seconds)


class TestRemoteProvider:
    def config(self, tmp_path=None, **kwargs):
        return ProviderConfig(mode="remote", endpoint="http://provider.test/embed",
                              model="m",
                              cache_dir=str(tmp_path) if tmp_path else None,
                              **kwargs)

    def test_batching(self):
        post = FakePost()
        config = self.config(batch_size=2)
        texts = [f"text {i}" for i in range(5)]
        vectors = fetch_embeddings(config, texts, post=post, sleep=post.sleep)
        assert len(vectors) == 5
        assert [len(c["texts"]) for c in post.calls] == [2, 2, 1]

    def test_retry_with_backoff_then_success(self):
        post = FakePost(failures=2)
        config = self.config(max_retries=3)
        vectors = fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)
        assert len(vectors) == 1
        assert post.sleeps == [0.25, 0.5]

    def test_retries_exhausted(self):
        post = FakePost(failures=10)
        config = self.config(max_retries=2)
        with pytest.raises(ProviderUnavailableError):
            fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)
        assert len(post.calls) == 3

    def test_mismatched_vector_lengths(self):
        def post(endpoint, payload, timeout):
            return {"vectors": [[1.0, 2.0], [1.0]]}

        config = self.config()
        with pytest.raises(DimensionInconsistentError):
            fetch_embeddings(config, ["a", "b"], post=post)

    def test_wrong_vector_count(self):
        def post(endpoint, payload, timeout):
            return {"vectors": [[1.0]]}

        config = self.config()
        with pytest.raises(ProviderUnavailableError):
            fetch_embeddings(config, ["a", "b"], post=post)

    @pytest.mark.parametrize("vector", [
        ["x", 1], {"a": 1}, None, [[1.0, 2.0]], [float("nan"), 1.0], 2.0])
    def test_bad_reply_vector_is_unavailable_and_not_cached(self, tmp_path, vector):
        def post(endpoint, payload, timeout):
            return {"vectors": [[1.0, 2.0], vector]}

        with pytest.raises(ProviderUnavailableError,
                           match="not a 1-D array of finite numbers"):
            fetch_embeddings(self.config(tmp_path), ["a", "b"], post=post)
        assert not list(tmp_path.rglob(f"{text_digest('b')}.json"))

    @pytest.mark.parametrize("entry", ['{"vector": [NaN]}', '{"vector": [[1.0]]}',
                                       '{"vector": null}', '{"vector": ["x"]}',
                                       pytest.param("[" * 100_000, id="deeply-nested")])
    def test_bad_cache_entry_vector(self, tmp_path, entry):
        post = FakePost()
        config = self.config(tmp_path)
        fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)
        path = next(tmp_path.rglob("*.json"))
        path.write_text(entry, encoding="utf-8")
        with pytest.raises(CacheCorruptError, match=f"unreadable cache entry: {path}"):
            fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)

    def test_cache_serves_warm_requests(self, tmp_path):
        post = FakePost()
        config = self.config(tmp_path)
        cold = fetch_embeddings(config, ["abc", "defg"], post=post,
                                sleep=post.sleep)
        calls_after_cold = len(post.calls)
        warm = fetch_embeddings(config, ["abc", "defg"], post=post,
                                sleep=post.sleep)
        assert len(post.calls) == calls_after_cold
        for before, after in zip(cold, warm):
            assert np.array_equal(before, after)

    def test_corrupt_cache_entry(self, tmp_path):
        post = FakePost()
        config = self.config(tmp_path)
        fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)
        entry = next(tmp_path.rglob("*.json"))
        entry.write_text("{broken", encoding="utf-8")
        with pytest.raises(CacheCorruptError):
            fetch_embeddings(config, ["abc"], post=post, sleep=post.sleep)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        vectors = [[float(sum(map(ord, text))), 1.0] for text in payload["texts"]]
        body = json.dumps({"vectors": vectors}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def local_provider():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()


def test_wire_format_over_http(local_provider):
    config = ProviderConfig(mode="remote", endpoint=local_provider, model="m",
                            timeout=5.0)
    vectors = fetch_embeddings(config, ["hello", "world"])
    assert len(vectors) == 2
    assert vectors[0][0] == float(sum(map(ord, "hello")))
    score = sentence_score("same text", "same text", config)
    assert score == pytest.approx(1.0, abs=1e-12)
