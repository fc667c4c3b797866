"""The model cache of ``load_model``: a repeat restricted load of the same
model bytes, text or binary, finds its rows in the model file through an
entry keyed by the file's SHA-256, size and format.

Every cached store must equal what the uncached loader gives, bit for bit;
an entry that fails a check, or cannot be written, changes nothing but the
time a load takes.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import logging
import os
import subprocess
import sys
import tempfile
import threading
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from labeleval import embeddings
from labeleval.embeddings import (
    EmbeddingStore,
    load_binary_model,
    load_model,
    load_text_model,
    save_binary_model,
    save_text_model,
)
from labeleval.errors import DataError

UNCACHED = {"text": load_text_model, "binary": load_binary_model}


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """A cache of the test's own, so what it holds is what the test made."""
    home = tmp_path / "cache_home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def cache_files(home: Path) -> list[str]:
    directory = home / "labeleval" / "models"
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def entry_path(home: Path, path: Path, fmt: str = "text") -> Path:
    blob = path.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    return home / "labeleval" / "models" / f"{digest}.{len(blob)}.{fmt}.v{embeddings._ENTRY_VERSION}"


def assert_same_store(got: EmbeddingStore, expected: EmbeddingStore) -> None:
    assert list(got.tokens()) == list(expected.tokens())
    assert got._matrix.dtype == expected._matrix.dtype == np.float32
    assert got._matrix.shape == expected._matrix.shape
    assert got._matrix.tobytes() == expected._matrix.tobytes()
    assert not got._matrix.flags.writeable
    assert (got.dim, got.digest, got.source_path) == \
        (expected.dim, expected.digest, expected.source_path)


@contextlib.contextmanager
def no_parse():
    """Both parsers, patched to fail: a load must come from the cache."""
    def parse(*args, **kwargs):
        raise AssertionError("the model was parsed")
    with mock.patch.object(embeddings, "_load_text", parse), \
            mock.patch.object(embeddings, "_load_binary", parse):
        yield


def outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


def write_model(directory: Path, fmt: str, store: EmbeddingStore) -> Path:
    path = directory / f"model.{'bin' if fmt == 'binary' else 'txt'}"
    (save_binary_model if fmt == "binary" else save_text_model)(store, path)
    return path


# a space ends a token early, which mostly fails the load; U+2028 breaks a
# line for ``str.splitlines`` but not in a model file; a binary model's token
# may hold a line break, anywhere but first
_token = st.text(alphabet="abü\t\x00  \n", max_size=4) | st.sampled_from(
    ["a\nb", "b\n", "é€", "😀"])
_component = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _binary_blob(tokens: list[str], vectors: list[list[float]], dim: int) -> bytes:
    return f"{len(tokens)} {dim}\n".encode() + b"".join(
        token.encode() + b" " + np.array(vector, dtype="<f4").tobytes() + b"\n"
        for token, vector in zip(tokens, vectors))


# a record's offset counts raw bytes, whichever way a text model's lines end
_line_end = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _models(draw):
    """A small model file's bytes and format, usually well-formed."""
    fmt = draw(st.sampled_from(["text", "binary"]))
    dim = draw(st.integers(0, 3))
    tokens = draw(st.lists(_token, max_size=6, unique=True))
    if fmt == "text":
        tokens = list(dict.fromkeys(token.replace("\n", "") for token in tokens))
    if tokens and draw(st.integers(0, 7)) == 0:
        tokens.append(tokens[0])  # fails the load
    vectors = draw(st.lists(st.lists(_component, min_size=dim, max_size=dim),
                            min_size=len(tokens), max_size=len(tokens)))
    if vectors and dim and draw(st.integers(0, 3)) == 0:
        vectors[-1][0] = draw(st.sampled_from([np.nan, np.inf]))  # fails the load
    if fmt == "binary":
        blob = _binary_blob(tokens, vectors, dim)
    else:
        end = draw(_line_end)
        blob = f"{len(tokens)} {dim}{end}".encode() + b"".join(
            (" ".join([token, *(repr(float(c)) for c in vector)]) + end).encode()
            for token, vector in zip(tokens, vectors))
    # a lone surrogate is never a token: it is not UTF-8
    wanted = draw(st.none() | st.sets(_token | st.sampled_from(["zz", "\ud800"]),
                                      max_size=4))
    return fmt, blob, wanted


# each UTF-8 length, code points on both sides of the surrogates, and
# control characters
_index_char = st.sampled_from("ab\x00\t\x7f\x80é€\uffff😀")


@st.composite
def _indexed_models(draw):
    """A well-formed text model whose tokens include prefixes of each other,
    and a ``wanted`` set of present and absent tokens."""
    words = draw(st.lists(st.text(_index_char, max_size=4), max_size=6))
    tokens = list(dict.fromkeys(
        word[:draw(st.integers(0, len(word)))] if draw(st.booleans()) else word
        for word in words + words))
    dim = draw(st.integers(0, 3))
    if not dim:
        tokens = [token for token in tokens if token]  # an empty line is skipped
    end = draw(_line_end)
    blob = f"{len(tokens)} {dim}{end}".encode() + b"".join(
        (" ".join([token, *(repr(float(c)) for c in draw(
            st.lists(_component, min_size=dim, max_size=dim)))]) + end).encode()
        for token in tokens)
    present = draw(st.sets(st.sampled_from(tokens), max_size=4)) if tokens else set()
    absent = draw(st.sets(st.text(_index_char, max_size=5) | st.sampled_from(
        ["zz", "a b", "a\nb", "\ud800"]), max_size=3))
    return blob, present | absent


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(model=_models())
    @example(model=("binary", _binary_blob([], [], 3), None))
    @example(model=("binary", _binary_blob([], [], 3), {"\ud800"}))
    @example(model=("binary", _binary_blob(["a\nü"], [[1.0, -2.0]], 2), None))
    @example(model=("binary", _binary_blob(["a\nü", "😀"], [[1.0], [2.0]], 1),
                    {"😀", "a\nü", "a", "\ud800"}))
    @example(model=("binary", _binary_blob(["é"], [[0.5]], 1), {"zz"}))
    def test_cold_and_warm_loads_equal_the_uncached_loader(self, model):
        fmt, blob, wanted = model
        with tempfile.TemporaryDirectory() as scratch, \
                mock.patch.dict(os.environ, {"XDG_CACHE_HOME": scratch}):
            path = Path(scratch) / "model"
            path.write_bytes(blob)
            expected = outcome(UNCACHED[fmt], path, wanted=wanted)
            cold = outcome(load_model, path, fmt, wanted=wanted)
            if not isinstance(expected, EmbeddingStore):
                # a failing model leaves nothing behind, and fails alike again
                assert cold == expected
                assert cache_files(Path(scratch)) == []
                assert outcome(load_model, path, fmt, wanted=wanted) == expected
                return
            assert_same_store(cold, expected)
            assert cache_files(Path(scratch)) == [
                entry_path(Path(scratch), path, fmt).name]
            if wanted is not None:  # an entry holds no rows: a full load parses
                with no_parse():
                    assert_same_store(load_model(path, fmt, wanted=wanted), expected)

    @settings(max_examples=150, deadline=None)
    @given(model=_indexed_models())
    def test_the_index_finds_what_the_parser_keeps(self, model):
        """A warm load looks up each wanted token's CRC-32 in the entry's index:
        it keeps what a parse keeps, in file order, whether the tokens are
        non-ASCII, empty or prefixes of each other, and whatever else is wanted."""
        blob, wanted = model
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.dict(os.environ, {"XDG_CACHE_HOME": directory}):
            path = Path(directory) / "model.txt"
            path.write_bytes(blob)
            every_row = load_text_model(path)
            kept = load_text_model(path, wanted=wanted)
            assert_same_store(load_model(path), every_row)  # cold: writes the entry
            with no_parse():
                assert_same_store(load_model(path, wanted=wanted), kept)

    @pytest.mark.parametrize("wanted", [{"uejgtcuo"}, {"iiwucoup"},
                                        {"uejgtcuo", "iiwucoup", "cat"}, None])
    def test_tokens_that_share_a_crc(self, tmp_path, cache_home, wanted):
        """Two tokens with one CRC-32 are both filed under it: each keeps its
        own row."""
        assert zlib.crc32(b"uejgtcuo") == zlib.crc32(b"iiwucoup")
        path = write_model(tmp_path, "text", EmbeddingStore(
            [("uejgtcuo", [1.0]), ("cat", [2.0]), ("iiwucoup", [3.0])], dim=1))
        expected = load_text_model(path, wanted=wanted)
        load_model(path)
        with no_parse() if wanted is not None else contextlib.nullcontext():
            assert_same_store(load_model(path, wanted=wanted), expected)

    @pytest.mark.parametrize("read_bytes", [1, 3, 16, embeddings._READ_BYTES])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_parse_blocks_and_wide_padding_keep_the_offsets(self, tmp_path, cache_home,
                                                            monkeypatch, caplog,
                                                            read_bytes, end):
        """A text parse flushes its numbers to the sink whenever it holds
        ``_READ_BYTES`` of them, so small reads flush blocks mid-parse; numbers
        padded with whitespace that numpy skips but that is more than one byte
        in UTF-8 make a line's bytes outnumber its characters. Neither moves
        a record: the warm load equals the parse, and the entry is the one a
        default read size writes."""
        path = tmp_path / "model.txt"
        path.write_bytes(end.join([
            "5 2", "cat 1\u00a0 2", "d\u00f6g 2\u3000 -1.5", "emu 0.25 4",
            "yak \u00a0\u30003 5", "ant 6 7\u00a0"]).encode() + end.encode())
        wanted = {"d\u00f6g", "emu", "ant", "zzz"}
        expected = load_text_model(path, wanted=wanted)
        assert len(expected) == 3
        with mock.patch.object(embeddings, "_READ_BYTES", read_bytes), \
                mock.patch.object(embeddings, "_HASH_BYTES", read_bytes), \
                caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            assert_same_store(load_model(path, wanted=wanted), expected)
            with no_parse():
                assert_same_store(load_model(path, wanted=wanted), expected)
        assert caplog.records == []
        entry = entry_path(cache_home, path).read_bytes()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "default_reads"))
        load_model(path)
        assert entry_path(tmp_path / "default_reads", path).read_bytes() == entry

    def test_a_warm_load_is_logged_and_does_not_parse(self, cache_home, caplog,
                                                       fixture_model_file):
        caplog.set_level(logging.DEBUG, logger="labeleval.embeddings")
        cold = load_model(fixture_model_file, wanted={"car", "lamp_post"})
        with no_parse():
            warm = load_model(fixture_model_file, wanted={"car", "lamp_post"})
        assert_same_store(warm, cold)
        records = [r for r in caplog.records if r.name == "labeleval.embeddings"]
        assert [r.getMessage().split(":")[0] for r in records] == [
            "model cache miss", "model cache entry written", "model cache hit"]
        assert {r.levelno for r in records} == {logging.DEBUG}


    def test_a_file_rewritten_between_the_key_and_the_parse(self, tmp_path,
                                                            cache_home, caplog):
        # the load begins with the first bytes' size, the parse reads the second
        path = write_model(tmp_path, "text", EmbeddingStore(
            [("cat", [1.0, 2.0])], dim=2))
        first = path.read_bytes()
        second = b"1 2\ncat 3 4\n"
        real_load_text = embeddings._load_text

        def rewritten(*args):
            path.write_bytes(second)
            return real_load_text(*args)

        with mock.patch.object(embeddings, "_load_text", rewritten), \
                caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            store = load_model(path)
        assert store.get("cat").tolist() == [3.0, 4.0]
        assert store.digest == hashlib.sha256(second).hexdigest()
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        assert "changed while it was read" in caplog.records[0].getMessage()
        assert cache_files(cache_home) == []
        # neither the first bytes nor the second are served the other's rows
        for blob, vector in ((first, [1.0, 2.0]), (second, [3.0, 4.0]),
                             (first, [1.0, 2.0])):
            path.write_bytes(blob)
            assert load_model(path).get("cat").tolist() == vector
            assert load_model(path).digest == hashlib.sha256(blob).hexdigest()

    def test_an_entry_is_named_by_the_bytes_the_parse_read(self, tmp_path, cache_home):
        """A file rewritten to the same size while it is parsed leaves the entry
        of the bytes that were parsed, which serves those bytes alone."""
        path = tmp_path / "model.txt"
        first, second = b"1 2\ncat 1 2\n", b"1 2\ncat 3 4\n"
        path.write_bytes(first)
        real_load_text = embeddings._load_text

        def rewritten(*args):
            path.write_bytes(second)
            return real_load_text(*args)

        with mock.patch.object(embeddings, "_load_text", rewritten):
            assert load_model(path).get("cat").tolist() == [3.0, 4.0]
        assert cache_files(cache_home) == [entry_path(cache_home, path).name]
        with no_parse():
            assert load_model(path, wanted={"cat"}).get("cat").tolist() == [3.0, 4.0]
        path.write_bytes(first)
        assert load_model(path).get("cat").tolist() == [1.0, 2.0]
        assert len(cache_files(cache_home)) == 2

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_a_file_rewritten_between_the_hash_and_the_row_reads(self, tmp_path,
                                                                 cache_home, caplog,
                                                                 fmt):
        """A warm read that finds the file changed under it, at the same size,
        warns once and parses the new bytes: it never returns the rows of one
        version under the digest of the other."""
        path = write_model(tmp_path, fmt, EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
        load_model(path)
        second = (save_binary_model if fmt == "binary" else save_text_model)
        second(EmbeddingStore([("cat", [3.0, 4.0])], dim=2), tmp_path / "second")
        second = (tmp_path / "second").read_bytes()
        assert len(second) == path.stat().st_size
        real_read_entry = embeddings._read_entry

        def rewritten(*args):
            before = path.stat().st_mtime_ns
            with path.open("r+b") as handle:  # in place: the descriptor reads it
                handle.write(second)
            # a coarse clock may stamp the rewrite as the file was; the read
            # can only see a change that its stat shows
            os.utime(path, ns=(before + 10**9, before + 10**9))
            return real_read_entry(*args)

        with mock.patch.object(embeddings, "_read_entry", rewritten), \
                caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            store = load_model(path, fmt, wanted={"cat"})
        assert_same_store(store, UNCACHED[fmt](path, wanted={"cat"}))
        assert store.get("cat").tolist() == [3.0, 4.0]
        assert store.digest == hashlib.sha256(second).hexdigest()
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "changed while it was read" in record.getMessage()

    def test_a_text_model_whose_lines_end_in_two_ways(self, tmp_path, cache_home,
                                                       caplog):
        """Universal newlines hide which lines ended in "\\r\\n": such a model
        is parsed, with a warning, and leaves no entry."""
        path = tmp_path / "model.txt"
        path.write_bytes(b"2 1\r\ncat 1\ndog 2\r\n")
        for _ in range(2):
            with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
                assert_same_store(load_model(path, wanted={"dog"}),
                                  load_text_model(path, wanted={"dog"}))
        assert [record.levelno for record in caplog.records] == [logging.WARNING] * 2
        assert "more than one way" in caplog.records[0].getMessage()
        assert cache_files(cache_home) == []


@contextlib.contextmanager
def hash_passes():
    """Counts the passes ``load_model`` makes over the model file: a parse, or
    the hash pass of a cache read. Each opens one ``_HashingFile``."""
    spy = mock.Mock(wraps=embeddings._HashingFile)
    with mock.patch.object(embeddings, "_HashingFile", spy):
        yield spy


class TestHashPasses:
    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_a_first_load_reads_the_file_once(self, tmp_path, cache_home, fmt):
        path = write_model(tmp_path, fmt, EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
        with hash_passes() as spy:
            cold = load_model(path)
        spy.assert_called_once_with(path)  # the parse hashes what it reads
        assert cache_files(cache_home) == [entry_path(cache_home, path, fmt).name]
        with hash_passes() as spy, no_parse():
            assert_same_store(load_model(path, wanted={"cat"}), cold)
        spy.assert_called_once_with(path)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_a_full_load_parses_and_keeps_the_entry_there(self, tmp_path, cache_home,
                                                          fmt):
        path = write_model(tmp_path, fmt, EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
        load_model(path)
        entry = entry_path(cache_home, path, fmt)
        os.utime(entry, ns=(0, 0))
        before = entry.stat()
        with hash_passes() as spy:
            assert_same_store(load_model(path), UNCACHED[fmt](path))
        assert spy.call_args_list == [mock.call(path)] * 2  # the parse, the expected
        after = entry.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, 0)
        assert cache_files(cache_home) == [entry.name]

    def test_only_an_entry_of_the_same_size_and_format_costs_a_hash(self, tmp_path,
                                                                    cache_home):
        path, other = tmp_path / "model.bin", tmp_path / "other.bin"
        path.write_bytes(_binary_blob(["cat"], [[1.0]], 1))
        other.write_bytes(_binary_blob(["dog"], [[2.0]], 1))  # the same size
        directory = cache_home / "labeleval" / "models"
        directory.mkdir(parents=True)
        size = path.stat().st_size
        version = embeddings._ENTRY_VERSION
        for name in (f"{'0' * 64}.{size}.text.v{version}",
                     f"{'0' * 64}.{size + 1}.binary.v{version}",
                     f"{'0' * 64}.1{size}.binary.v{version}"):
            (directory / name).write_bytes(b"another file's entry")
        wanted = {"cat", "dog"}
        expected = [load_binary_model(path, wanted=wanted),
                    load_binary_model(other, wanted=wanted)]
        with hash_passes() as spy:
            assert_same_store(load_model(path, wanted=wanted), expected[0])
        spy.assert_called_once_with(path)  # the parse alone
        # model.bin's entry now costs other.bin a hash pass, then a parse
        with hash_passes() as spy:
            assert_same_store(load_model(other, wanted=wanted), expected[1])
        assert spy.call_args_list == [mock.call(other)] * 2
        with hash_passes() as spy, no_parse():
            assert_same_store(load_model(path, wanted=wanted), expected[0])
            assert_same_store(load_model(other, wanted=wanted), expected[1])
        assert spy.call_args_list == [mock.call(path), mock.call(other)]


class _FailingHandle:
    """A model file handle whose ``readinto`` fails once it has read ``reads``
    times, as a disk that stops answering midway."""

    def __init__(self, handle, reads: int):
        self._handle, self._reads = handle, reads

    def readinto(self, buffer) -> int:
        if not self._reads:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        self._reads -= 1
        return self._handle.readinto(buffer)

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        self._handle.close()


@contextlib.contextmanager
def reads_fail_after(reads: int):
    """Every ``_HashingFile`` opened meanwhile fails its read number ``reads``."""
    real = embeddings._HashingFile.__init__

    def init(self, path):
        real(self, path)
        self._handle = _FailingHandle(self._handle, reads)

    with mock.patch.object(embeddings._HashingFile, "__init__", init):
        yield


class TestHashPass:
    """The pass that only hashes, read ahead by a helper thread in two
    buffers of ``_HASH_BYTES``: the digest of the bytes, no thread left."""

    @pytest.mark.parametrize("block", [1, 3, 16, embeddings._HASH_BYTES])
    def test_the_digest_is_that_of_the_bytes(self, tmp_path, block):
        path = tmp_path / "input"
        blob = os.urandom(3 * block + block // 2 + 1)
        threads = threading.active_count()
        with mock.patch.object(embeddings, "_HASH_BYTES", block):
            for size in sorted({0, 1, block - 1, block, block + 1, len(blob)}):
                path.write_bytes(blob[:size])
                assert embeddings.sha256(path) == hashlib.sha256(blob[:size]).hexdigest()
                assert threading.active_count() == threads

    @pytest.mark.parametrize("size,threads", [(0, 0), (16, 0), (17, 1), (100, 1)])
    def test_a_file_of_one_block_starts_no_thread(self, tmp_path, size, threads):
        path = tmp_path / "input"
        path.write_bytes(b"x" * size)
        spy = mock.Mock(wraps=threading.Thread)
        with mock.patch.object(embeddings, "_HASH_BYTES", 16), \
                mock.patch.object(threading, "Thread", spy):
            assert embeddings.sha256(path) == hashlib.sha256(b"x" * size).hexdigest()
        assert spy.call_count == threads

    # 40 bytes: ten reads of 4 and one at the end, or one whole read and one
    @pytest.mark.parametrize("block,reads", [(4, 0), (4, 1), (4, 5), (4, 10),
                                             (embeddings._HASH_BYTES, 0),
                                             (embeddings._HASH_BYTES, 1)])
    def test_a_failed_read_is_raised_as_it_was(self, tmp_path, block, reads):
        path = tmp_path / "input"
        path.write_bytes(b"x" * 40)
        threads = threading.active_count()
        with mock.patch.object(embeddings, "_HASH_BYTES", block), \
                reads_fail_after(reads), pytest.raises(OSError) as raised:
            embeddings.sha256(path)
        assert type(raised.value) is OSError
        assert str(raised.value) == f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("block", [4, embeddings._HASH_BYTES])
    def test_a_failed_read_fails_a_warm_load_as_it_did(self, tmp_path, cache_home,
                                                       fmt, block):
        path = write_model(tmp_path, fmt, EmbeddingStore(
            [("cat", [1.0, 2.0]), ("dog", [3.0, 4.0])], dim=2))
        load_model(path)
        threads = threading.active_count()
        with mock.patch.object(embeddings, "_HASH_BYTES", block), \
                reads_fail_after(1), no_parse(), pytest.raises(OSError) as raised:
            load_model(path, wanted={"cat"})
        assert type(raised.value) is OSError
        assert str(raised.value) == f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        assert threading.active_count() == threads
        assert cache_files(cache_home) == [entry_path(cache_home, path, fmt).name]

    def test_a_hash_that_fails_stops_the_reader(self, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"x" * 100)

        class Interrupted:
            def update(self, data):
                raise KeyboardInterrupt

        threads = threading.active_count()
        with mock.patch.object(embeddings, "_HASH_BYTES", 4), \
                embeddings._HashingFile(path) as model:
            model.sha256 = Interrupted()
            with pytest.raises(KeyboardInterrupt):
                model.hash_pass()
        assert threading.active_count() == threads


class TestKeying:
    def test_content_edited_at_the_same_path_is_a_miss(self, tmp_path, cache_home):
        path = write_model(tmp_path, "text", EmbeddingStore(
            [("cat", [1.0, 2.0])], dim=2))
        load_model(path)
        path.write_text("1 2\ncat 3 4\n", encoding="utf-8")
        store = load_model(path)
        assert store.get("cat").tolist() == [3.0, 4.0]
        assert len(cache_files(cache_home)) == 2

    def test_the_same_bytes_as_binary_never_read_the_text_entry(self, tmp_path,
                                                                cache_home):
        """Each format has an entry of its own, which serves only its store."""
        # valid both ways: text reads 1234, binary reads the bytes b"1234"
        path = tmp_path / "model"
        path.write_bytes(b"1 1\nab 1234\n")
        as_text = load_model(path, "text")
        assert as_text.get("ab").tolist() == [1234.0]
        assert cache_files(cache_home) == [entry_path(cache_home, path, "text").name]
        as_binary = load_model(path, "binary")
        assert as_binary.get("ab").tobytes() == b"1234"
        assert_same_store(as_binary, load_binary_model(path))
        assert cache_files(cache_home) == sorted(
            entry_path(cache_home, path, fmt).name for fmt in ("text", "binary"))
        with no_parse():
            for _ in range(2):
                assert_same_store(load_model(path, "binary", wanted={"ab"}), as_binary)
                assert_same_store(load_model(path, "text", wanted={"ab"}), as_text)
        # neither entry serves the other format, even under its name
        text_entry, binary_entry = (entry_path(cache_home, path, fmt)
                                    for fmt in ("text", "binary"))
        binary_entry.write_bytes(text_entry.read_bytes())
        assert_same_store(load_model(path, "binary", wanted={"ab"}), as_binary)
        assert binary_entry.read_bytes() != text_entry.read_bytes()


def each_format(argname: str, values: list, ids: list[str]):
    """Parametrize ``fmt`` and ``argname`` over both formats and ``values``; a
    text case is named by its id alone, a binary one by ``binary-<id>``."""
    return pytest.mark.parametrize(f"fmt, {argname}", [
        pytest.param(fmt, value, id=name if fmt == "text" else f"binary-{name}")
        for fmt in ("text", "binary") for value, name in zip(values, ids)])


def _arrays(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry's CRC-32s, record offsets and record lengths, as copies."""
    vocab = int(data[:embeddings._HEADER_BYTES].split()[-3])
    index = data[embeddings._HEADER_BYTES:]
    return (np.frombuffer(index, "<u4", vocab).copy(),
            np.frombuffer(index, "<u8", vocab, 4 * vocab).copy(),
            np.frombuffer(index, "<u4", vocab, 12 * vocab).copy())


def _forged(data: bytes, crcs, offsets, lengths) -> bytes:
    """An entry of other arrays, its header's CRC-32 made to match them."""
    index = crcs.astype("<u4").tobytes() + offsets.astype("<u8").tobytes() + \
        lengths.astype("<u4").tobytes()
    fields = data[:embeddings._HEADER_BYTES].split()
    header = b" ".join([*fields[:-3], str(len(crcs)).encode(), fields[-2],
                        str(zlib.crc32(index)).encode()])
    return header.ljust(embeddings._HEADER_BYTES - 1) + b"\n" + index


def _truncate(entry: Path, data: bytes) -> bytes:
    return data[:-5]


def _garble_table(entry: Path, data: bytes) -> bytes:
    """The index's last byte, a record's length, made another byte."""
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _garble_token(entry: Path, data: bytes) -> bytes:
    """A CRC-32 of the index made another; the header's CRC-32 no longer
    matches."""
    start = embeddings._HEADER_BYTES
    return data[:start] + bytes([data[start] ^ 0x80]) + data[start + 1:]


def _garble_header(entry: Path, data: bytes) -> bytes:
    return b"X" + data[1:]


def _header_without_numbers(entry: Path, data: bytes) -> bytes:
    """A header line that does not end in V, D and the index's CRC-32."""
    header = b"labeleval-model-cache".ljust(embeddings._HEADER_BYTES - 1) + b"\n"
    return header + data[embeddings._HEADER_BYTES:]


def _other_models_entry(entry: Path, data: bytes) -> bytes:
    """The entry of a model of the same shape and format, at this model's key."""
    fmt = entry.name.split(".")[2]
    directory = entry.parents[3] / "other"
    directory.mkdir()
    other = write_model(directory, fmt, EmbeddingStore(
        [("cat", [9.0, 9.0]), ("dog", [8.0, 8.0])], dim=2))
    load_model(other)
    return entry_path(entry.parents[2], other, fmt).read_bytes()


def _offsets_swapped(entry: Path, data: bytes) -> bytes:
    """The two records' offsets and lengths swapped: each token filed at the
    other's record, so a lookup by CRC-32 alone would find neither."""
    crcs, offsets, lengths = _arrays(data)
    return data[:embeddings._HEADER_BYTES] + crcs.tobytes() + \
        offsets[::-1].tobytes() + lengths[::-1].tobytes()


def _row_out_of_range(entry: Path, data: bytes) -> bytes:
    """Every record the index names, past the model file's end, with the
    header's CRC-32 made to match."""
    crcs, offsets, lengths = _arrays(data)
    return _forged(data, crcs, offsets + 10_000, lengths)


def _record_not_a_row(entry: Path, data: bytes) -> bytes:
    """Each record two bytes shorter, with the header's CRC-32 made to match:
    a binary vector too short, a text line cut in its last number."""
    crcs, offsets, lengths = _arrays(data)
    return _forged(data, crcs, offsets, lengths - 2)


def _record_cut_at_an_exponent(entry: Path, data: bytes) -> bytes:
    """Each record four bytes shorter, with the header's CRC-32 made to match:
    a binary vector too short, a text line cut before its last ``e+00``, so
    that what is left of the line still parses, to the same number."""
    crcs, offsets, lengths = _arrays(data)
    return _forged(data, crcs, offsets, lengths - 4)


_DAMAGES = [_truncate, _garble_table, _garble_token, _garble_header,
            _header_without_numbers, _other_models_entry, _offsets_swapped,
            _row_out_of_range, _record_not_a_row, _record_cut_at_an_exponent]


class TestBadEntries:
    @each_format("damage", _DAMAGES, [damage.__name__ for damage in _DAMAGES])
    def test_is_ignored_and_rewritten(self, tmp_path, cache_home, caplog, fmt, damage):
        store = EmbeddingStore([("cat", [1.0, 2.0]), ("dog", [3.0, 4.0])], dim=2)
        path = write_model(tmp_path, fmt, store)
        load_model(path)
        entry = entry_path(cache_home, path, fmt)
        good = entry.read_bytes()
        entry.write_bytes(damage(entry, good))
        assert entry.read_bytes() != good
        with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            assert_same_store(load_model(path, wanted={"cat"}),
                              UNCACHED[fmt](path, wanted={"cat"}))
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        assert str(entry) in caplog.records[0].getMessage()
        assert entry.read_bytes() == good
        assert entry.name in cache_files(cache_home)

    @each_format("wanted", [None, {"cat", "dog"}], ["None", "wanted1"])
    def test_a_token_twice_in_the_table(self, tmp_path, cache_home, caplog, fmt,
                                        wanted):
        """An index that files the first record twice, in place of the second,
        is rebuilt, not read with the first token at two rows. A full load
        never reads the entry, so it parses, with no warning, and leaves the
        entry that is there as it is."""
        path = write_model(tmp_path, fmt, EmbeddingStore(
            [("cat", [1.0, 2.0]), ("dog", [3.0, 4.0])], dim=2))
        load_model(path)
        entry = entry_path(cache_home, path, fmt)
        good = entry.read_bytes()
        crcs, offsets, lengths = _arrays(good)
        first = int(np.argmin(offsets))
        entry.write_bytes(_forged(good, crcs[[first, first]], offsets[[first, first]],
                                  lengths[[first, first]]))
        with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            assert_same_store(load_model(path, wanted=wanted),
                              UNCACHED[fmt](path, wanted=wanted))
        if wanted is None:  # the entry is neither read nor written again
            assert caplog.records == []
            assert entry.read_bytes() != good
            return
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        # the reason alone: the entry's path holds the test's name
        reason = record.getMessage().split(" ignored (", 1)[1]
        first_byte = len(path.read_bytes().split(b"\n", 1)[0]) + 1
        assert reason.startswith(
            f"{path} byte {first_byte}: duplicate token in model: 'cat'); ")
        assert entry.read_bytes() == good

    def test_a_text_record_inside_a_line(self, tmp_path, cache_home, caplog):
        """An index that files ``at`` at the tail of the line of ``cat``, with
        the header's CRC-32 made to match, is rebuilt: a text record is read
        only as a whole line."""
        path = write_model(tmp_path, "text", EmbeddingStore(
            [("cat", [1.0, 2.0]), ("at", [3.0, 4.0])], dim=2))
        load_model(path)
        entry = entry_path(cache_home, path)
        good = entry.read_bytes()
        crcs, offsets, lengths = _arrays(good)
        cat, at = (int(np.flatnonzero(crcs == zlib.crc32(token))[0])
                   for token in (b"cat", b"at"))
        offsets[at], lengths[at] = offsets[cat] + 1, lengths[cat] - 1
        entry.write_bytes(_forged(good, crcs, offsets, lengths))
        with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            assert_same_store(load_model(path, wanted={"at"}),
                              load_text_model(path, wanted={"at"}))
        [record] = caplog.records
        assert f"the record at byte {offsets[at]} is not a whole line" in \
            record.getMessage()
        assert entry.read_bytes() == good

    def test_an_unreadable_entry_counts_as_a_miss(self, tmp_path, cache_home):
        path = write_model(tmp_path, "text", EmbeddingStore([("cat", [1.0])], dim=1))
        entry = entry_path(cache_home, path)
        entry.mkdir(parents=True)  # opening it fails with an OSError
        assert_same_store(load_model(path, wanted={"cat"}),
                          load_text_model(path, wanted={"cat"}))


def _older_entries_go(tmp_path: Path, cache_home: Path, fmt: str) -> None:
    """A load in ``fmt`` removes every entry of the model's bytes under another
    layout version, and leaves every other file: other models' entries, the
    other format's entry of the same bytes and temporary files, which
    ``write_entry`` names ``<entry name>.<random>.tmp``; such a file is not
    an entry."""
    path = write_model(tmp_path, fmt, EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    size = path.stat().st_size
    directory = cache_home / "labeleval" / "models"
    directory.mkdir(parents=True)
    other_fmt = "binary" if fmt == "text" else "text"
    older = [f"{digest}.text.v1", f"{digest}.text.v2", f"{digest}.binary.v2",
             f"{digest}.{size}.text.v3", f"{digest}.{size}.binary.v3"]
    others = [f"{'0' * 64}.text.v1", f"{'0' * 64}.text.v2", f"{digest}.text.v1.x",
              f"{'0' * 64}.{size}.{fmt}.v3", f"{size}.{fmt}.abc123.tmp",
              f"{entry_path(cache_home, path, fmt).name}.v7abc_1.tmp",
              entry_path(cache_home, path, other_fmt).name]
    for name in [*older, *others]:
        (directory / name).write_bytes(b"an older entry")
    assert not embeddings._holds_entry_of(directory, size, fmt)
    assert_same_store(load_model(path), UNCACHED[fmt](path))
    assert cache_files(cache_home) == sorted([entry_path(cache_home, path, fmt).name,
                                              *others])
    for name in others:
        assert (directory / name).read_bytes() == b"an older entry"


class TestSupersededEntries:
    def test_the_models_older_entry_goes_and_no_other(self, tmp_path, cache_home):
        _older_entries_go(tmp_path, cache_home, "text")

    def test_a_binary_entry_supersedes_the_same_older_entries(self, tmp_path,
                                                              cache_home):
        _older_entries_go(tmp_path, cache_home, "binary")

    def test_an_older_entry_that_cannot_go_is_left(self, tmp_path, cache_home, caplog):
        path = write_model(tmp_path, "text", EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        older = cache_home / "labeleval" / "models" / f"{digest}.text.v1"
        (older / "inside").mkdir(parents=True)  # unlinking a directory fails
        caplog.set_level(logging.DEBUG, logger="labeleval.embeddings")
        assert_same_store(load_model(path), load_text_model(path))
        assert entry_path(cache_home, path).is_file() and older.is_dir()
        assert {record.levelno for record in caplog.records} == {logging.DEBUG}
        assert any(f"{older} not removed" in record.getMessage()
                   for record in caplog.records)


def _fails_alike_and_leaves_no_entry(path: Path, blob: bytes, fmt: str,
                                     cache_home: Path) -> None:
    path.write_bytes(blob)
    with pytest.raises(DataError) as uncached:
        UNCACHED[fmt](path)
    for _ in range(2):
        with pytest.raises(type(uncached.value)) as cached:
            load_model(path)
        assert str(cached.value) == str(uncached.value)
        assert cache_files(cache_home) == []


class TestFailingModels:
    @pytest.mark.parametrize("blob", [b"2 2\ncat 1 2\ncat 3 4\n", b"1 2\ncat 1 nan\n",
                                      b"3 2\ncat 1 2\n", b"1 2\ncat 1 2 3\n"])
    def test_leave_no_entry_and_fail_alike_again(self, tmp_path, cache_home, blob):
        _fails_alike_and_leaves_no_entry(tmp_path / "model.txt", blob, "text",
                                         cache_home)

    @pytest.mark.parametrize("blob", [
        b"2 1\ncat \x00\x00\x80?\ncat \x00\x00\x80?\n",  # a token twice
        b"1 1\ncat \x00\x00\xc0\x7f\n",                     # NaN
        b"2 1\ncat \x00\x00\x80?\ndo",                      # truncated
        b"1 1\ncat \x00\x00\x80?\nextra",                   # trailing bytes
        b"1 1\n\xff \x00\x00\x80?\n",                       # not UTF-8
        b"1 1 1\ncat \x00\x00\x80?\n",                      # header
    ], ids=["duplicate", "nan", "truncated", "trailing", "not-utf8", "header"])
    def test_a_binary_model_leaves_no_entry_and_fails_alike_again(self, tmp_path,
                                                                  cache_home, blob):
        _fails_alike_and_leaves_no_entry(tmp_path / "model.bin", blob, "binary",
                                         cache_home)

    def test_a_missing_file_raises_as_before(self, tmp_path, cache_home):
        with pytest.raises(FileNotFoundError, match="nothing.txt"):
            load_model(tmp_path / "nothing.txt")
        assert cache_files(cache_home) == []


def _each_load_warns_once(tmp_path: Path, monkeypatch, caplog, fmt: str) -> None:
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = write_model(tmp_path, fmt, EmbeddingStore([("cat", [1.0, 2.0])], dim=2))
    expected = UNCACHED[fmt](path)
    with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"), \
            hash_passes() as spy:
        for _ in range(2):
            assert_same_store(load_model(path), expected)
    assert [record.levelno for record in caplog.records] == [logging.WARNING] * 2
    # no entry can be there, so only the parse reads
    assert spy.call_args_list == [mock.call(path)] * 2


class TestUnwritableCache:
    def test_a_cache_that_cannot_be_made(self, tmp_path, monkeypatch, caplog):
        _each_load_warns_once(tmp_path, monkeypatch, caplog, "text")

    def test_a_binary_load_with_a_cache_that_cannot_be_made(self, tmp_path,
                                                            monkeypatch, caplog):
        _each_load_warns_once(tmp_path, monkeypatch, caplog, "binary")

    def test_a_full_disk_midway(self, tmp_path, cache_home, caplog, monkeypatch):
        """The disk fills once the entry's temporary file is made, as the entry
        is written to it whole: the load warns once and leaves neither the
        entry nor its temporary file."""
        rows = [(f"t{i}", [float(i)] * 4) for i in range(10)]
        path = write_model(tmp_path, "text", EmbeddingStore(rows, dim=4))

        class FullDisk:
            """The entry's temporary file, with no room for its bytes."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        real_fdopen = os.fdopen
        monkeypatch.setattr(embeddings.os, "fdopen",
                            lambda *args: FullDisk(real_fdopen(*args)))
        with caplog.at_level(logging.WARNING, logger="labeleval.embeddings"):
            assert_same_store(load_model(path, wanted={"t1", "t9"}),
                              load_text_model(path, wanted={"t1", "t9"}))
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        assert "No space left" in caplog.records[0].getMessage()
        assert cache_files(cache_home) == []


class TestCacheLocation:
    def test_directories_are_private(self, tmp_path, cache_home):
        load_model(write_model(tmp_path, "text", EmbeddingStore([("a", [1.0])], dim=1)))
        for directory in (cache_home, cache_home / "labeleval",
                          cache_home / "labeleval" / "models"):
            assert directory.stat().st_mode & 0o777 == 0o700

    def test_without_xdg_cache_home_the_entry_goes_under_home(self, tmp_path,
                                                              monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert embeddings._cache_dir() == \
            tmp_path / "home" / ".cache" / "labeleval" / "models"
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/dir")
        assert embeddings._cache_dir() == \
            tmp_path / "home" / ".cache" / "labeleval" / "models"

    def test_a_cli_run_writes_nothing_under_the_real_home(self, model_cache_home,
                                                          fixture_model_file):
        def snapshot(directory: Path):
            return sorted((str(p), p.stat().st_mtime_ns) for p in directory.rglob("*")) \
                if directory.exists() else None

        real = Path(os.path.expanduser("~")) / ".cache" / "labeleval"
        before = snapshot(real)
        assert os.environ["XDG_CACHE_HOME"] == str(model_cache_home)
        src = str(Path(embeddings.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "labeleval.cli", "inspect-embeddings",
             str(fixture_model_file)], capture_output=True, text=True, env=env,
            timeout=120)
        assert result.returncode == 0, result.stderr
        assert entry_path(model_cache_home, fixture_model_file).is_file()
        assert snapshot(real) == before
