import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from labeleval.embeddings import (
    EmbeddingStore,
    Permutation,
    clean_label,
    cosine,
    euclidean,
    load_binary_model,
    load_text_model,
    resolve_label,
    save_binary_model,
    save_text_model,
)
from labeleval.errors import (
    DataError,
    DimensionMismatchError,
    DuplicateTokenError,
    MalformedHeaderError,
    TruncatedRecordError,
    ZeroVectorError,
)


def write_text(tmp_path, content):
    path = tmp_path / "model.txt"
    path.write_text(content, encoding="utf-8")
    return path


class TestTextLoader:
    def test_small_model(self, tmp_path):
        path = write_text(tmp_path, "2 3\ncat 1 0 0\ndog 0 1 0\n")
        store = load_text_model(path)
        assert store.vocab_size == 2
        assert store.dim == 3
        assert np.allclose(store.get("cat"), [1, 0, 0])
        assert np.allclose(store.get("dog"), [0, 1, 0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = write_text(tmp_path, "1 2\ncat 1 0 0\n")
        with pytest.raises(DimensionMismatchError) as info:
            load_text_model(path)
        assert info.value.line_no == 2

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path, "")
        with pytest.raises(MalformedHeaderError):
            load_text_model(path)

    def test_duplicate_token(self, tmp_path):
        path = write_text(tmp_path, "2 1\ncat 1\ncat 2\n")
        with pytest.raises(DuplicateTokenError):
            load_text_model(path)

    def test_row_count_must_match_header(self, tmp_path):
        path = write_text(tmp_path, "3 1\ncat 1\ndog 2\n")
        with pytest.raises(MalformedHeaderError):
            load_text_model(path)

    @pytest.mark.parametrize("bad", ["nan", "-inf", "Infinity", "1e39"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        # 1e39 parses as a float64 but overflows float32 to infinity
        path = write_text(tmp_path, f"3 2\ncat 1 0\n\ndog 0 {bad}\nemu 1 1\n")
        with pytest.raises(DataError, match=r"line 4: non-finite"):
            load_text_model(path)

    def test_non_utf8_token_names_path(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"2 1\ncat 1\n\xff\xfe 2\n")
        with pytest.raises(DataError) as info:
            load_text_model(path)
        assert type(info.value) is DataError
        assert str(info.value) == f"{path}: not valid UTF-8 text"


class TestBinaryLoader:
    def test_matches_text_model(self, tmp_path):
        text_path = write_text(tmp_path, "2 3\ncat 1 0 0\ndog 0 1 0\n")
        store = load_text_model(text_path)
        binary_path = tmp_path / "model.bin"
        save_binary_model(store, binary_path)
        reloaded = load_binary_model(binary_path)
        assert reloaded.vocab_size == store.vocab_size
        for token in ("cat", "dog"):
            assert np.allclose(reloaded.get(token), store.get(token), atol=1e-6)

    def test_truncated_vector(self, tmp_path):
        path = tmp_path / "model.bin"
        blob = b"1 3\n" + b"cat " + np.array([1.0], dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(TruncatedRecordError) as info:
            load_binary_model(path)
        assert info.value.index == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_names_record(self, tmp_path, bad):
        path = tmp_path / "model.bin"
        records = [(b"cat", [1.0, 0.0]), (b"dog", [0.0, 1.0]), (b"emu", [bad, 1.0])]
        blob = b"3 2\n" + b"".join(
            token + b" " + np.array(values, dtype="<f4").tobytes() + b"\n"
            for token, values in records)
        path.write_bytes(blob)
        with pytest.raises(DataError, match=r"non-finite vector component in record 2"):
            load_binary_model(path)

    def test_non_utf8_token_names_record(self, tmp_path):
        path = tmp_path / "model.bin"
        vector = np.array([1.0], dtype="<f4").tobytes()
        path.write_bytes(b"2 1\ncat " + vector + b"\n\xff\xfe " + vector + b"\n")
        with pytest.raises(DataError) as info:
            load_binary_model(path)
        assert type(info.value) is DataError
        assert str(info.value) == f"{path}: record 1: token is not UTF-8"

    def test_zero_vocab(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"0 300\n")
        store = load_binary_model(path)
        assert store.vocab_size == 0
        assert store.dim == 300
        assert not resolve_label(store, "anything").is_resolved


class TestRoundTrip:
    def test_random_store_text_binary(self, tmp_path):
        rng = np.random.default_rng(7)
        entries = [(f"tok{i}", rng.normal(size=50).astype(np.float32))
                   for i in range(100)]
        store = EmbeddingStore(entries, dim=50)
        text_path = tmp_path / "roundtrip.txt"
        binary_path = tmp_path / "roundtrip.bin"
        save_text_model(store, text_path)
        save_binary_model(store, binary_path)
        from_text = load_text_model(text_path)
        from_binary = load_binary_model(binary_path)
        for token, vector in store.items():
            assert np.max(np.abs(from_text.get(token) - vector)) <= 1e-6
            assert np.max(np.abs(from_binary.get(token) - vector)) <= 1e-6


class TestCleaning:
    @pytest.mark.parametrize("raw,expected", [
        ("Parking Meter!", "parking meter"),
        ("  A   lot\tof  junk ", "a lotof junk"),
        ("UPPER-case_mix 3d", "uppercasemix 3d"),
        ("***", ""),
    ])
    def test_examples(self, raw, expected):
        assert clean_label(raw) == expected

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = clean_label(raw)
        assert clean_label(once) == once


class TestResolution:
    def test_title_underscore_permutation(self, fixture_store):
        resolution = resolve_label(fixture_store, "parking meter")
        assert resolution.token == "Parking_Meter"
        assert resolution.permutation is Permutation.TITLE_UNDERSCORE

    def test_lowercase_step(self):
        store = EmbeddingStore([("tree", np.ones(2, dtype=np.float32))], dim=2)
        resolution = resolve_label(store, "Tree")
        assert resolution.token == "tree"
        assert resolution.permutation is Permutation.AS_IS

    def test_no_space_permutation(self):
        store = EmbeddingStore([("lamppost", np.ones(2, dtype=np.float32))], dim=2)
        resolution = resolve_label(store, "Lamp Post")
        assert resolution.token == "lamppost"
        assert resolution.permutation is Permutation.NO_SPACE

    def test_underscore_permutation(self, fixture_store):
        resolution = resolve_label(fixture_store, "lamp post")
        assert resolution.token == "lamp_post"
        assert resolution.permutation is Permutation.UNDERSCORE

    def test_unknown(self, fixture_store):
        assert not resolve_label(fixture_store, "zzqx").is_resolved

    def test_empty_after_cleaning(self, fixture_store):
        assert not resolve_label(fixture_store, "!!!").is_resolved

    def test_deterministic(self, fixture_store):
        first = resolve_label(fixture_store, "parking meter")
        second = resolve_label(fixture_store, "parking meter")
        assert first == second

    def test_cleaned_store_tokens_resolve_to_themselves(self, fixture_store):
        for token in fixture_store.tokens():
            if clean_label(token) == token:  # already in canonical spelling
                assert resolve_label(fixture_store, token).token == token


class TestVectorMath:
    def test_cosine_identity(self):
        vector = np.array([0.3, -1.2, 4.0])
        assert cosine(vector, vector) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert cosine((1, 0), (0, 1)) == 0.0

    def test_cosine_45_degrees(self):
        # oracle: (1*1 + 1*0) / (sqrt(2) * 1)
        expected = 1.0 / math.sqrt(2.0)
        assert cosine((1, 1), (1, 0)) == pytest.approx(expected, abs=1e-9)

    def test_cosine_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine((0, 0), (1, 0))

    def test_cosine_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine((1, 0), (1, 0, 0))

    def test_euclidean_identity(self):
        assert euclidean((2.0, 3.0), (2.0, 3.0)) == 0.0

    def test_euclidean_345(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_euclidean_unit_cube_diagonal(self):
        # oracle: sqrt((2-1)^2 * 3)
        assert euclidean((1, 1, 1), (2, 2, 2)) == pytest.approx(math.sqrt(3.0),
                                                                abs=1e-12)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                    max_size=8))
    def test_symmetry_is_bit_exact(self, components):
        u = np.array(components)
        v = np.array(components[::-1]) + 1.0
        assert euclidean(u, v) == euclidean(v, u)
        if np.linalg.norm(u) > 0 and np.linalg.norm(v) > 0:
            assert cosine(u, v) == cosine(v, u)


class TestStoreInvariants:
    def test_vectors_are_read_only(self, tiny_store):
        with pytest.raises(ValueError):
            tiny_store.get("east")[0] = 5.0

    def test_wrong_width_vector_rejected(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddingStore([("bad", np.ones(3, dtype=np.float32))], dim=2)


class TestStoreMatrix:
    def test_lying_text_header_is_malformed(self, tmp_path):
        path = write_text(tmp_path, f"{10**12} 2\ncat 1 0\ndog 0 1\nemu 1 1\n")
        with pytest.raises(MalformedHeaderError, match="found 3"):
            load_text_model(path)

    def test_lying_binary_header_is_truncated(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(f"{10**12} 2\n".encode() + b"".join(
            token + b" " + np.array([1.0, 0.5], dtype="<f4").tobytes() + b"\n"
            for token in (b"cat", b"dog", b"emu")))
        with pytest.raises(TruncatedRecordError) as info:
            load_binary_model(path)
        assert info.value.index == 3

    def test_text_rows_beyond_header_name_the_line(self, tmp_path):
        path = write_text(tmp_path, "1 1\ncat 1\ndog 2\n")
        with pytest.raises(MalformedHeaderError, match="line 3"):
            load_text_model(path)

    def test_vectors_follow_one_rule(self, tiny_store):
        from labeleval.embeddings import UNKNOWN_TOKEN
        from labeleval.errors import UnresolvedTokenError

        vectors = tiny_store.vectors(["diagonal", UNKNOWN_TOKEN, "east"])
        assert vectors.dtype == np.float32
        assert vectors.tolist() == [[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]
        assert tiny_store.vectors([]).shape == (0, 2)
        with pytest.raises(UnresolvedTokenError):
            tiny_store.vectors(["east", "zzqx"])

    def test_loaded_rows_are_read_only(self, tmp_path):
        store = load_text_model(write_text(tmp_path, "2 2\ncat 1 0\ndog 0 1\n"))
        with pytest.raises(ValueError):
            store.get("dog")[0] = 5.0
        assert [token for token, _ in store.items()] == ["cat", "dog"]
        assert store.get("emu") is None
