import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from labeleval import embeddings
from labeleval.embeddings import (
    UNKNOWN_TOKEN,
    EmbeddingStore,
    Permutation,
    Vocabulary,
    clean_label,
    clean_labels,
    cosine,
    euclidean,
    load_binary_model,
    load_model,
    load_text_model,
    resolve_label,
    save_binary_model,
    save_text_model,
    spellings,
    wanted_tokens,
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

    SPELLED = EmbeddingStore(
        [(token, np.full(2, index + 1, dtype=np.float32)) for index, token in enumerate(
            ["tree", "lamppost", "lamp_post", "Parking_Meter", "red car", "Big_Red_Car"])],
        dim=2)

    @given(st.lists(st.sampled_from(["Tree", "lamp post", "Lamp  Post!", "lamppost",
                                     "parking meter", "Red Car", "big red car",
                                     "zzqx", "***", ""])
                    | st.text(alphabet="aeLT _!", max_size=8), max_size=12))
    def test_vocabulary_resolves_as_resolve_label(self, labels):
        """A Vocabulary walks the spellings of each cleaned text itself; it
        must land where resolve_label does on the raw label."""
        vocab = Vocabulary(self.SPELLED, clean_labels(labels))
        for raw in labels:
            expected = resolve_label(self.SPELLED, raw).token
            assert vocab.token(raw) == (UNKNOWN_TOKEN if expected is None else expected)


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


def binary_model(vocab, dim, records, end=b"\n"):
    """A binary model's bytes: a header, then each (token, values) record."""
    return f"{vocab} {dim}\n".encode() + b"".join(
        token + b" " + np.array(values, dtype="<f4").tobytes() + end
        for token, values in records)


class TestHugeHeaderDimension:
    """A dimension the file cannot hold one row of fails before any allocation."""

    def test_text(self, tmp_path):
        path = write_text(tmp_path, "1 99999999999999999999\ncat 1\n")
        with pytest.raises(MalformedHeaderError, match="cannot fit"):
            load_text_model(path)

    def test_binary(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"1 99999999999999999999\ncat " + bytes(4))
        with pytest.raises(TruncatedRecordError) as info:
            load_binary_model(path)
        assert info.value.index == 0


class TestErrorOrder:
    """Which of two faults in one model a load reports.

    Text is decoded 8 KB at a time and each line is checked as it is
    decoded, so a fault on an early line wins over bytes far later that are
    not UTF-8. A header whose first row cannot fit in the file fails before
    any row is read.
    """

    FAR = "".join(f"w{i} 0.5\n" for i in range(20_000)).encode()  # about 200 KB

    @pytest.mark.parametrize("row,error,message", [
        ("cat 1 2", DimensionMismatchError, "line 3: expected 1 components"),
        ("cat 1x", DataError, "line 3: unparseable number"),
        ("dog 2", DuplicateTokenError, "'dog'"),
    ], ids=["width", "number", "duplicate"])
    def test_early_line_fault_wins_over_later_bad_utf8(self, tmp_path, row, error,
                                                        message):
        path = tmp_path / "model.txt"
        path.write_bytes(f"20003 1\ndog 1\n{row}\n".encode() + self.FAR + b"\xff 1\n")
        for wanted in (None, {"dog"}):
            with pytest.raises(error, match=message):
                load_text_model(path, wanted=wanted)

    def test_bad_utf8_in_the_same_8kb_wins(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"3 1\ndog 1\ncat 1 2\n\xff 1\n")
        with pytest.raises(DataError, match="not valid UTF-8 text"):
            load_text_model(path)

    def test_text_row_that_cannot_fit(self, tmp_path):
        path = write_text(tmp_path, "1 3\n")
        with pytest.raises(MalformedHeaderError, match="a row of 3 components cannot fit"):
            load_text_model(path)

    def test_binary_record_that_cannot_fit(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"1 2\n\xff ")
        with pytest.raises(TruncatedRecordError) as info:
            load_binary_model(path)
        assert info.value.index == 0


class TestStrictNumbers:
    @pytest.mark.parametrize("bad", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
    def test_non_ascii_decimal_is_unparseable(self, tmp_path, bad):
        path = write_text(tmp_path, f"1 2\ncat {bad} 0\n")
        for wanted in (None, {"cat"}, {"dog"}):
            with pytest.raises(DataError) as info:
                load_text_model(path, wanted=wanted)
            assert type(info.value) is DataError
            assert str(info.value) == f"{path} line 2: unparseable number"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.lists(st.from_regex(
        r"[+-]?([0-9]{1,12}(\.[0-9]{0,12})?|\.[0-9]{1,12})([eE][+-]?[0-9]{1,2})?",
        fullmatch=True), min_size=1, max_size=6))
    def test_decimal_fields_round_like_float(self, tmp_path, fields):
        with np.errstate(over="ignore"):
            expected = np.array([np.float32(float(f)) for f in fields])
        path = write_text(tmp_path, f"1 {len(fields)}\nw {' '.join(fields)}\n")
        if not np.isfinite(expected).all():
            with pytest.raises(DataError, match="line 2: non-finite"):
                load_text_model(path)
            return
        loaded = load_text_model(path).get("w")
        assert loaded.view(np.uint32).tolist() == expected.view(np.uint32).tolist()


class TestRestrictedLoad:
    TEXT = "4 2\ncat 1 0\ndog 0 1\nparking_meter 2 2\nParking_Meter 3 3\n"

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_keeps_only_wanted_rows(self, tmp_path, fmt):
        path = write_text(tmp_path, self.TEXT)
        full = load_text_model(path)
        if fmt == "binary":
            path = tmp_path / "model.bin"
            save_binary_model(full, path)
        store = load_model(path, fmt, wanted={"dog", "Parking_Meter", "emu"})
        assert list(store.tokens()) == ["dog", "Parking_Meter"]
        assert store.get("Parking_Meter").tolist() == [3.0, 3.0]
        assert store.digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_wanted_spellings_resolve_as_the_full_store(self, fixture_model_file):
        full = load_text_model(fixture_model_file)
        labels = ["Parking Meter", "lamp post", "Lamp Post!", "car", "zzqx", "***"]
        store = load_text_model(fixture_model_file, wanted=wanted_tokens(
            map(clean_label, labels)))
        assert len(store) < len(full)
        for raw in labels:
            assert resolve_label(store, raw) == resolve_label(full, raw)

    def test_each_distinct_cleaned_label_is_spelled_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(embeddings, "spellings",
                            lambda cleaned, spell=spellings: calls.append(cleaned)
                            or spell(cleaned))
        labels = ["car", "lamp post", "car", "", "lamp post", "car", ""]
        assert wanted_tokens(labels) == {"car", "Car", "lamp post", "lamppost",
                                         "lamp_post", "Lamp_Post"}
        assert sorted(calls) == ["", "car", "lamp post"]

    def test_spellings_are_the_order_resolution_tries(self):
        assert spellings("parking meter") == (
            ("parking meter", Permutation.AS_IS),
            ("parkingmeter", Permutation.NO_SPACE),
            ("parking_meter", Permutation.UNDERSCORE),
            ("Parking_Meter", Permutation.TITLE_UNDERSCORE))
        assert spellings("") == ()

    @pytest.mark.parametrize("content,error,message", [
        ("3 1\ncat 1\ndog nan\nemu 2\n", DataError, "line 3: non-finite"),
        ("3 1\ncat 1\ndog 1e39\nemu 2\n", DataError, "line 3: non-finite"),
        ("3 1\ncat 1\ndog 1_0\nemu 2\n", DataError, "line 3: unparseable number"),
        ("3 1\ncat 1\ndog 1\ndog 2\n", DuplicateTokenError, "'dog'"),
        ("3 1\ncat 1\ndog 1 2\nemu 2\n", DimensionMismatchError, "line 3"),
        ("2 1\ncat 1\ndog 1\nemu 2\n", MalformedHeaderError, "line 4"),
        ("4 1\ncat 1\ndog 1\nemu 2\n", MalformedHeaderError, "found 3"),
    ], ids=["nan", "overflow", "underscore", "duplicate", "width", "extra-row",
            "missing-row"])
    def test_dropped_text_rows_are_still_checked(self, tmp_path, content, error,
                                                 message):
        path = write_text(tmp_path, content)
        for wanted in (None, {"cat"}, set()):
            with pytest.raises(error, match=message):
                load_text_model(path, wanted=wanted)

    @pytest.mark.parametrize("blob,error,message", [
        (binary_model(2, 1, [(b"cat", [1]), (b"dog", [np.nan])]), DataError,
         "non-finite vector component in record 1"),
        (binary_model(2, 1, [(b"cat", [1]), (b"cat", [2])]), DuplicateTokenError,
         "'cat'"),
        (binary_model(2, 1, [(b"cat", [1]), (b"\xff", [2])]), DataError,
         "record 1: token is not UTF-8"),
        (binary_model(1, 1, [(b"cat", [1])]) + b"junk", DataError,
         "4 trailing bytes"),
        (binary_model(3, 1, [(b"cat", [1]), (b"dog", [2])]), TruncatedRecordError,
         "index 2"),
    ], ids=["nan", "duplicate", "utf8", "trailing", "truncated"])
    def test_dropped_binary_records_are_still_checked(self, tmp_path, blob, error,
                                                      message):
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        for wanted in (None, {"cat"}, set()):
            with pytest.raises(error, match=message):
                load_binary_model(path, wanted=wanted)


class TestDigest:
    """The store's digest is the SHA-256 of the bytes the load read."""

    def test_text_model_larger_than_one_read(self, tmp_path):
        row = " ".join(f"{v:.5f}" for v in np.linspace(-1, 1, 8))
        rows = 100_000
        data = f"{rows} 8\n".encode() + "".join(
            f"t{i} {row}\n" for i in range(rows)).encode()
        assert len(data) > embeddings._READ_BYTES
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        store = load_text_model(path, wanted={"t0", "t99999"})
        assert list(store.tokens()) == ["t0", "t99999"]
        assert store.digest == hashlib.sha256(data).hexdigest()

    def test_binary_model_larger_than_one_read(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [(f"t{i}".encode(), rng.normal(size=1000)) for i in range(1100)]
        data = binary_model(len(records), 1000, records)
        assert len(data) > embeddings._READ_BYTES
        path = tmp_path / "model.bin"
        path.write_bytes(data)
        store = load_binary_model(path)
        assert len(store) == 1100
        assert store.get("t1099").tolist() == np.float32(records[-1][1]).tolist()
        assert store.digest == hashlib.sha256(data).hexdigest()


# Small model files: mostly well-formed, with the faults each check exists for.
_tokens = st.sampled_from([b"cat", b"dog", b"emu", b"Cat", b"", b"a_b", b"\xc3\xbc",
                           b"\xff", b"a\tb"])
_numbers = st.sampled_from([b"0", b"1", b"-2.5", b"1e3", b".5", b"+7", b"3.4e38",
                            b"1e39", b"nan", b"-inf", b"Infinity", b"1_0",
                            "\u0661".encode(), b"", b"0x1", b"1e-45", b"\t2"])
_ends = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b""])


@st.composite
def _text_models(draw):
    dim = draw(st.integers(0, 3))
    rows = draw(st.lists(st.tuples(
        _tokens, st.lists(_numbers, min_size=max(0, dim - 1), max_size=dim + 1),
        _ends), max_size=5))
    vocab = draw(st.sampled_from([len(rows), len(rows), max(0, len(rows) - 1),
                                  len(rows) + 1]))
    header = draw(st.sampled_from([f"{vocab} {dim}".encode(), b"", b"x y",
                                   f"{vocab} {10 ** 20}".encode()]))
    blob = header + b"\n" + b"".join(
        b" ".join([token, *numbers]) + end for token, numbers, end in rows)
    return draw(st.sampled_from([blob, blob, blob, blob[:-3]]) | st.binary(max_size=24))


_vectors = st.sampled_from([0.0, 1.0, -2.5, np.float32(3.4e38), np.nan, np.inf,
                            -np.inf, 1e-45])


@st.composite
def _binary_models(draw):
    dim = draw(st.integers(0, 3))
    records = draw(st.lists(st.tuples(
        _tokens, st.lists(_vectors, min_size=dim, max_size=dim),
        st.sampled_from([b"", b"\n", b"\n\n"])), max_size=5))
    vocab = draw(st.sampled_from([len(records), len(records),
                                  max(0, len(records) - 1), len(records) + 1]))
    header = draw(st.sampled_from([f"{vocab} {dim}\n".encode(), b"", b"x\n",
                                   f"{vocab} {10 ** 20}\n".encode(), b"\xff\n"]))
    blob = header + b"".join(token + b" " + np.array(values, dtype="<f4").tobytes()
                             + end for token, values, end in records)
    tail = draw(st.sampled_from([b"", b"", b"junk", b"\n"]))
    return draw(st.sampled_from([blob + tail, blob[:-2]]) | st.binary(max_size=24))


def _outcome(load, path, wanted=None):
    """The store, or the class of the DataError; any other exception fails."""
    try:
        return load(path, wanted=wanted)
    except DataError as exc:
        return type(exc)


class TestModelReaderFuzz:
    """Every model file loads or is a DataError, restricted loads agreeing."""

    _fuzz = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

    def check(self, load, path, wanted):
        full = _outcome(load, path)
        restricted = _outcome(load, path, wanted)
        if not isinstance(full, EmbeddingStore):
            assert restricted is full
            return
        assert isinstance(restricted, EmbeddingStore)
        assert list(restricted.tokens()) == [t for t in full.tokens() if t in wanted]
        for token in restricted.tokens():
            assert restricted.get(token).tobytes() == full.get(token).tobytes()
        assert restricted.dim == full.dim
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert restricted.digest == full.digest == digest

    @_fuzz
    @given(blob=_text_models(), wanted=st.sets(st.sampled_from(
        ["cat", "dog", "emu", "Cat", "", "a_b", "\u00fc", "zzz"])),
        read_bytes=st.sampled_from([4, 16, 1 << 22]))
    def test_text(self, tmp_path, blob, wanted, read_bytes):
        path = tmp_path / "model.txt"
        path.write_bytes(blob)
        with mock.patch.object(embeddings, "_READ_BYTES", read_bytes):
            self.check(load_text_model, path, wanted)

    @_fuzz
    @given(blob=_binary_models(), wanted=st.sets(st.sampled_from(
        ["cat", "dog", "emu", "Cat", "", "a_b", "\u00fc", "zzz"])),
        read_bytes=st.sampled_from([4, 16, 1 << 22]),
        block_rows=st.sampled_from([1, 2, 4096]))
    def test_binary(self, tmp_path, blob, wanted, read_bytes, block_rows):
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        with mock.patch.object(embeddings, "_READ_BYTES", read_bytes), \
                mock.patch.object(embeddings, "_BLOCK_ROWS", block_rows):
            self.check(load_binary_model, path, wanted)
