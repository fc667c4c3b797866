"""Word-embedding store: text/binary model IO, label resolution, vector math.

Models follow the common word2vec layouts. Text: a "V D" header line then V
rows of "token c1 ... cD". Binary: the same ascii header, then V records of
token bytes, a single 0x20, and D little-endian float32 values with an
optional trailing newline. Every component must be finite.

A parse reads the file once, 4 MB (binary) or 8 KB (text) at a time: the
same bytes feed the store's SHA-256 digest, and every row is checked; the
whole binary records each read completes are checked as one block. Given
``wanted`` tokens, a load keeps only their rows, so a run holds the few
thousand rows its labels can resolve to, not the whole model. The rules
every row keeps, a token seen once and finite components, live in one
``_RowSink``, which the text parse, the binary parse and a cache read all
fill; each names a fault's place its own way (``<file> line <n>``,
``<file>: record <i>``, ``<file> byte <b>`` of a record a cache read found).

``load_model`` keeps an index of what a parse of either format has checked
in a cache entry named by the digest of the bytes the parse read, the file's
size and the format: for each token, its CRC-32 and the span of its record
in the model file, sorted by CRC-32. An entry holds no rows. Only when the
cache holds an entry of the file's size and format does a load given
``wanted`` hash the file first; if the entry of those bytes is there, it
looks up each wanted token's CRC-32, reads each record filed there from the
model file, through the descriptor it hashed, and keeps those that hold a
wanted token, with no parse. That hash pass, like ``sha256``'s, reads ahead:
a helper thread reads the next block while the caller hashes the last, both
outside the interpreter lock, and is joined before the pass ends; it is the
package's one thread besides the caller's. Any other load, and every load of
all rows, reads the file once, as a parse that hashes what it reads, and
writes the entry once the parse has passed every check, unless it is there
already. A read re-checks the entry's header, size and the CRC-32 of its
index, that each record it reads is whole (a text record is a line), that
each it keeps converts as the parse converts it, and that the file's size
and modification time did not change while it was read; the rows it keeps
go through the sink, so none is there twice and each is finite. An entry
that fails a check is ignored, removed and written again. An entry is
written whole by ``write_entry``, the writer of the fetch and sentence
caches too; a cache that cannot be written is logged once per load, and the
load goes on without it. The entries live in
``$XDG_CACHE_HOME/labeleval/models`` (``~/.cache/labeleval/models`` when
that is unset). ``load_text_model`` and ``load_binary_model`` always parse.

A run resolves its labels once, into a ``Vocabulary``; the scalar ``cosine``
and ``euclidean`` stay as the reference the vectorised scoring is checked
against.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import logging
import math
import os
import queue
import re
import sys
import tempfile
import threading
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    DuplicateTokenError,
    MalformedHeaderError,
    TruncatedRecordError,
    UnresolvedTokenError,
    ZeroVectorError,
)

logger = logging.getLogger(__name__)

#: Distinguished token standing in for every label the store cannot resolve.
UNKNOWN_TOKEN = "<unk>"

#: Binary bytes read, or text parsed, at a time; the whole binary records one
#: read completes are checked as one block.
_READ_BYTES = 1 << 22

#: Bytes a hash pass reads at a time, into each of its two buffers.
_HASH_BYTES = 1 << 20

_DISALLOWED = re.compile(r"[^a-z0-9 ]+")
_MULTISPACE = re.compile(r" +")


def clean_label(raw: str) -> str:
    """Lowercase, strip characters outside [a-z0-9 ], collapse spaces, trim.

    A label that is already clean is returned itself, not a copy of it.
    """
    cleaned = _MULTISPACE.sub(" ", _DISALLOWED.sub("", raw.lower())).strip()
    return raw if cleaned == raw else cleaned


def clean_labels(labels: Iterable[str]) -> dict[str, str]:
    """Each distinct raw label, in first-seen order, mapped to its cleaned text."""
    cleaned: dict[str, str] = {}
    for raw in labels:
        if raw not in cleaned:
            cleaned[raw] = clean_label(raw)
    return cleaned


class Permutation(enum.Enum):
    """Spelling variant that matched during label resolution."""

    AS_IS = "as_is"
    NO_SPACE = "no_space"
    UNDERSCORE = "underscore"
    TITLE_UNDERSCORE = "title_underscore"


@dataclass(frozen=True)
class LabelResolution:
    """Outcome of resolving one raw label against a store."""

    raw_label: str
    token: str | None
    permutation: Permutation | None

    @property
    def is_resolved(self) -> bool:
        return self.token is not None


class EmbeddingStore:
    """Immutable token -> vector index over one read-only float32 matrix.

    Row r of the V x D matrix is the vector of the r-th token, in load
    order. ``vectors`` is the one place a token becomes a vector. A loaded
    store carries the SHA-256 hex digest of its file in ``digest``.
    """

    __slots__ = ("dim", "source_path", "digest", "_row", "_matrix")

    def __init__(self, entries: Iterable[tuple[str, np.ndarray]], dim: int,
                 source_path: str = ""):
        row: dict[str, int] = {}
        vectors: list[np.ndarray] = []
        for token, vector in entries:
            if token in row:
                raise DuplicateTokenError(token)
            row[token] = len(row)
            arr = np.asarray(vector, dtype=np.float32)
            if arr.shape != (dim,):
                raise DimensionMismatchError(
                    f"vector for {token!r} has {arr.size} components, expected {dim}")
            vectors.append(arr)
        self._adopt(row, np.array(vectors, dtype=np.float32).reshape(len(row), dim),
                    source_path, "")

    @classmethod
    def _from_matrix(cls, row: dict[str, int], matrix: np.ndarray,
                     source_path: str, digest: str) -> "EmbeddingStore":
        return cls.__new__(cls)._adopt(row, matrix, source_path, digest)

    def _adopt(self, row: dict[str, int], matrix: np.ndarray,
               source_path: str, digest: str) -> "EmbeddingStore":
        """Take a filled matrix read-only; ``row`` maps each token to its row."""
        matrix.setflags(write=False)
        self.dim, self.source_path, self.digest = matrix.shape[1], source_path, digest
        self._row, self._matrix = row, matrix
        return self

    @property
    def vocab_size(self) -> int:
        return len(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, token: str) -> bool:
        return token in self._row

    def get(self, token: str) -> np.ndarray | None:
        return self._matrix[self._row[token]] if token in self._row else None

    def tokens(self) -> Iterator[str]:
        return iter(self._row)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return ((token, self._matrix[row]) for token, row in self._row.items())

    def vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """The tokens' float32 vectors, one row each, as a new array.

        ``UNKNOWN_TOKEN`` maps to the origin; any other token the store lacks
        raises UnresolvedTokenError.
        """
        try:
            index = np.array([-1 if token == UNKNOWN_TOKEN else self._row[token]
                              for token in tokens], dtype=np.intp)
        except KeyError as exc:
            raise UnresolvedTokenError(exc.args[0]) from None
        gathered = np.zeros((len(index), self.dim), dtype=np.float32)
        known = index >= 0
        gathered[known] = self._matrix[index[known]]
        return gathered


def _parse_header(line: str, path: Path) -> tuple[int, int]:
    """The header line's V and D; ``line`` comes without its line end."""
    parts = line.split()
    if len(parts) != 2:
        raise MalformedHeaderError(f"{path}: expected 'V D' header, got {line!r}")
    try:
        vocab, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeaderError(f"{path}: non-integer header fields: {line!r}") from None
    if vocab < 0 or dim < 0:
        raise MalformedHeaderError(f"{path}: negative header fields: {line!r}")
    # A loader bounds the dimension by the row the file must hold; with no
    # rows, only numpy bounds it, at the widest float32 array it can size.
    if not vocab and 4 * dim > sys.maxsize:
        raise MalformedHeaderError(f"{path}: dimension too large: {line!r}")
    return vocab, dim


def _first_bad_row(matrix: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, if any.

    A row's float64 sum is finite exactly when each float32 component is.
    """
    with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN, as it should
        bad = np.flatnonzero(~np.isfinite(matrix.sum(axis=1, dtype=np.float64)))
    return int(bad[0]) if bad.size else None


class _HashingFile(io.RawIOBase):
    """A binary file whose every byte read also goes into a SHA-256 digest.

    A parse reads it through ``readinto``, hashing inline; a reader that
    only needs the digest takes ``hash_pass``.
    """

    _handle = None  # still None if the open fails; the finalizer closes it anyway

    def __init__(self, path: Path):
        self._handle = path.open("rb", buffering=0)
        self.size = os.fstat(self._handle.fileno()).st_size
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self._handle.fileno()

    def readinto(self, buffer) -> int:
        count = self._handle.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count

    def hash_pass(self) -> str:
        """Read the file to its end, hashing every byte; the hex digest.

        A file of at most ``_HASH_BYTES`` is read and hashed in this
        thread, into a buffer of its own size. A larger one is read ahead:
        a helper thread reads the next block into one of two buffers while
        this thread hashes the other, since a read and a hash each release
        the interpreter lock. The blocks come back in order, an error in
        the reader is raised here, and the reader is stopped and joined on
        every exit.
        """
        if self.size <= _HASH_BYTES:
            buffer = bytearray(self.size or 1)
            while self.readinto(buffer):
                pass
            return self.sha256.hexdigest()
        free: queue.SimpleQueue = queue.SimpleQueue()  # buffers to fill; None stops
        full: queue.SimpleQueue = queue.SimpleQueue()  # (buffer, count) or (None, error)
        for _ in range(2):
            free.put(bytearray(_HASH_BYTES))

        def read() -> None:
            try:
                while (buffer := free.get()) is not None:
                    count = self._handle.readinto(buffer)
                    full.put((buffer, count))
                    if not count:
                        return
            except BaseException as exc:  # raised in the hashing thread
                full.put((None, exc))

        reader = threading.Thread(target=read, name="labeleval-hash-read")
        reader.start()
        try:
            while True:
                buffer, count = full.get()
                if buffer is None:
                    raise count
                if not count:
                    return self.sha256.hexdigest()
                self.sha256.update(memoryview(buffer)[:count])
                free.put(buffer)
        finally:
            free.put(None)
            reader.join()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
        super().close()


def _open_hashed(path: Path) -> io.BufferedReader:
    """The file through its ``raw.sha256``, behind a ``_READ_BYTES`` buffer that
    ``read`` fills; a ``TextIOWrapper`` pulls 8 KB per ``read1``, past it."""
    return io.BufferedReader(_HashingFile(path), _READ_BYTES)


def sha256(path: str | Path) -> str:
    """The SHA-256 hex digest of a file's bytes, in one ``hash_pass``."""
    with _HashingFile(Path(path)) as handle:
        return handle.hash_pass()


def write_entry(path: Path, data: bytes) -> None:
    """Write a cache entry through a temporary file of its own beside it, then
    move that into place, so writers of one entry never share a name; the
    temporary file is removed if the write fails."""
    fd, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


class _RowSink:
    """The rows a load keeps, taken one parsed block at a time: the one home
    of the rules every model row keeps, for a parse and a cache read alike.

    ``add`` records every token of the file, so a duplicate is caught on any
    row, and raised at the place (line, record or row) that ``where`` names.
    Every block is checked for NaN and infinities before its rows are copied
    out: all of them, or, given ``wanted``, those whose token is in it.
    ``store`` raises the first non-finite row, then a count of rows other
    than ``vocab``.
    """

    __slots__ = ("seen", "_vocab", "_where", "_first_bad", "_kept", "_wanted",
                 "_matrix")

    def __init__(self, vocab: int, fits: int, dim: int,
                 wanted: AbstractSet[str] | None, where: Callable[[int], str]):
        self.seen: dict[str, int] = {}  # every token read -> its row in the file
        self._vocab, self._where = vocab, where
        self._first_bad: int | None = None  # the place of the first non-finite row
        self._kept = self.seen if wanted is None else {}
        self._wanted = wanted
        # kept rows have distinct tokens, all wanted, and the file holds them
        capacity = min(vocab, fits, len(wanted) if wanted is not None else vocab)
        self._matrix = np.zeros((capacity, dim), dtype=np.float32)

    def add(self, token: str, place: int) -> None:
        """Give a token the next row; a token seen before is an error at ``place``."""
        if token in self.seen:
            raise DuplicateTokenError(token, f"{self._where(place)}: ")
        self.seen[token] = len(self.seen)

    def block(self, tokens: Sequence[str], rows: np.ndarray,
              places: Sequence[int]) -> None:
        """Keep the rows of a block's tokens, the last ones added; ``places``
        names each row in an error."""
        bad = _first_bad_row(rows)
        if bad is not None and self._first_bad is None:
            self._first_bad = places[bad]
        if self._wanted is None:
            first = len(self.seen) - len(tokens)
            self._matrix[first:first + len(tokens)] = rows
        else:
            for index, token in enumerate(tokens):
                if token in self._wanted:
                    self._matrix[len(self._kept)] = rows[index]
                    self._kept[token] = len(self._kept)

    def store(self, path: Path, digest: str) -> EmbeddingStore:
        """The kept rows as a store, once the rows pass the sink's last checks;
        called when the load has passed its own, with the digest of the bytes
        it read."""
        if self._first_bad is not None:
            raise DataError(f"{self._where(self._first_bad)}: non-finite vector component")
        if len(self.seen) != self._vocab:
            raise MalformedHeaderError(
                f"{path}: header declares {self._vocab} rows, found {len(self.seen)}")
        return EmbeddingStore._from_matrix(
            self._kept, self._matrix[:len(self._kept)], str(path), digest)


def _text_lines(handle: io.TextIOBase, path: Path) -> Iterator[str]:
    """The lines of a text handle; undecodable bytes are a DataError."""
    try:
        yield from handle
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8 text") from None


def _parse_numbers(fields: list[str], dim: int) -> np.ndarray | None:
    """The float64 rows of space-separated number fields, or None if one is bad.

    numpy's C parser takes only ASCII decimal syntax (no ``_`` separators, no
    other digits) and rounds each number to the nearest float64, as
    ``float`` does.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # all fields blank: no data
        try:
            rows = np.loadtxt(fields, dtype=np.float64, delimiter=" ",
                              comments=None, ndmin=2)
        except ValueError:
            return None
    # a blank line of fields is skipped, not parsed, so it shows as a short count
    return rows if rows.shape == (len(fields), dim) else None


def _parse_block(fields: list[str], dim: int, line_nos: Sequence[int],
                 path: Path) -> np.ndarray:
    """A block's float32 rows; an unparseable number is a DataError naming its line.

    A number beyond float32 range becomes an infinity, which the caller
    rejects.
    """
    if not dim:
        return np.zeros((len(fields), 0), dtype=np.float32)
    rows = _parse_numbers(fields, dim)
    if rows is None:
        # re-walk the block a line at a time, so the error names the first bad line
        rows = np.empty((len(fields), dim))
        for index, (numbers, line_no) in enumerate(zip(fields, line_nos)):
            row = _parse_numbers([numbers], dim)
            if row is None:
                raise DataError(f"{path} line {line_no}: unparseable number")
            rows[index] = row
    return rows.astype(np.float32)


def load_text_model(path: str | Path, *,
                    wanted: AbstractSet[str] | None = None) -> EmbeddingStore:
    """Load a text-format model. Raises on header/row inconsistencies.

    A component that is NaN, infinite, too large for float32 or not an ASCII
    decimal number is a DataError naming its line; text that is not UTF-8 is
    a DataError too. With ``wanted``, only the rows of those tokens are kept,
    but every row is still checked.
    """
    return _load_text(Path(path), wanted)


def _load_text(path: Path, wanted: AbstractSet[str] | None,
               entry: _EntryWriter | None = None) -> EmbeddingStore:
    with _open_hashed(path) as binary, \
            io.TextIOWrapper(binary, encoding="utf-8") as text, \
            np.errstate(over="ignore"):  # a float32 overflow is rejected below
        lines = _text_lines(text, path)
        header = next(lines, "")
        if not header.strip():
            raise MalformedHeaderError(f"{path}: empty file")
        vocab, dim = _parse_header(header.rstrip("\n"), path)
        # A row takes 2 bytes a component (a space and a digit), and at least
        # 1, so no header sizes a matrix beyond the file.
        fits = binary.raw.size // max(1, 2 * dim)
        if vocab and not fits:
            raise MalformedHeaderError(
                f"{path}: a row of {dim} components cannot fit in the file")
        sink = _RowSink(vocab, fits, dim, wanted, lambda line_no: f"{path} line {line_no}")
        seen = sink.seen
        # Each line is checked as it is decoded; its numbers wait in a block
        # of about _READ_BYTES, parsed at once.
        tokens: list[str] = []
        fields: list[str] = []
        line_nos: list[int] = []
        held = 0
        # for the entry: each row's line and the bytes of its line after its token
        row_lines: list[int] = []
        tails: list[int] = []
        try:
            for line_no, line in enumerate(lines, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                found = line.count(" ")
                if found != dim:
                    raise DimensionMismatchError(
                        f"{path} line {line_no}: expected {dim} components, "
                        f"found {found}", line_no=line_no)
                if len(seen) == vocab:
                    raise MalformedHeaderError(
                        f"{path} line {line_no}: header declares only {vocab} rows")
                token, _, numbers = line.partition(" ")
                sink.add(token, line_no)
                tokens.append(token)
                fields.append(numbers)
                line_nos.append(line_no)
                held += len(numbers)
                if held >= _READ_BYTES:
                    sink.block(tokens, _parse_block(fields, dim, line_nos, path), line_nos)
                    if entry is not None:
                        row_lines += line_nos
                        tails += _byte_lengths(fields)
                    tokens, fields, line_nos, held = [], [], [], 0
        except DataError:
            _parse_block(fields, dim, line_nos, path)  # an earlier bad number first
            raise
        sink.block(tokens, _parse_block(fields, dim, line_nos, path), line_nos)
        store = sink.store(path, binary.raw.sha256.hexdigest())
        if entry is not None and entry.needed(store.digest):
            # Universal newlines hide how each line ended; offsets that count
            # raw bytes hold only if every line ended alike.
            ending = {None: 1, "\n": 1, "\r": 1, "\r\n": 2}.get(text.newlines)
            if ending is None:
                entry.fail("its lines end in more than one way")
                return store
            keys = [token.encode("utf-8") for token in seen]
            lengths = np.fromiter(map(len, keys), np.int64, len(keys)) + np.array(
                [*tails, *_byte_lengths(fields)], dtype=np.int64)
            if dim:
                lengths += 1  # the space after the token
            line_at = np.array([*row_lines, *line_nos], dtype=np.int64)
            offsets = (len(header.rstrip("\n").encode("utf-8")) + ending
                       + (line_at - 2) * ending + np.cumsum(lengths) - lengths)
            entry.commit(keys, offsets, lengths, dim, store.digest)
    return store


def _byte_lengths(texts: list[str]) -> Iterator[int]:
    """Each text's length in UTF-8 bytes; ASCII text is not encoded to count."""
    return map(len, texts if all(map(str.isascii, texts)) else
               (text.encode("utf-8") for text in texts))


def _record_token(raw: bytes, index: int, path: Path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: record {index}: token is not UTF-8") from None


def load_binary_model(path: str | Path, *,
                      wanted: AbstractSet[str] | None = None) -> EmbeddingStore:
    """Load a binary-format model; a bad vector or token names its record index.

    With ``wanted``, only the rows of those tokens are kept, but every record
    is still checked.
    """
    return _load_binary(Path(path), wanted)


def _load_binary(path: Path, wanted: AbstractSet[str] | None,
                 entry: _EntryWriter | None = None) -> EmbeddingStore:
    with _open_hashed(path) as source:
        header = source.readline()
        if not header.endswith(b"\n"):
            raise MalformedHeaderError(f"{path}: missing header line")
        try:
            vocab, dim = _parse_header(header[:-1].decode("ascii"), path)
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{path}: non-ascii header") from None
        record_bytes = 4 * dim
        # A record takes a space and its vector at least, so no header sizes a
        # matrix beyond the file; records past the end are truncated.
        fits = (source.raw.size - len(header)) // (record_bytes + 1)
        if vocab and not fits:
            raise TruncatedRecordError(0, path)
        sink = _RowSink(vocab, fits, dim, wanted, lambda index: f"{path}: record {index}")
        # Each read is walked for the records it completes, which go to the
        # sink as one block; only the bytes of an unfinished record are held,
        # from byte ``base`` of the file.
        data, index, base, offsets = b"", 0, len(header), []
        while index < vocab and (chunk := source.read(_READ_BYTES)):
            data += chunk
            view = memoryview(data)
            end, tokens, vectors = 0, [], []
            while index < vocab:
                start = end
                while start < len(data) and data[start] == 0x0A:  # may end a record
                    start += 1
                space = data.find(b" ", start)
                if space < 0 or space + 1 + record_bytes > len(data):
                    break
                token = _record_token(data[start:space], index, path)
                sink.add(token, index)
                tokens.append(token)
                offsets.append(base + start)
                end = space + 1 + record_bytes
                vectors.append(view[space + 1:end])
                index += 1
            rows = np.frombuffer(b"".join(vectors), dtype="<f4")
            sink.block(tokens, rows.reshape(len(tokens), dim),
                       range(index - len(tokens), index))
            data, base = data[end:], base + end
        if index < vocab:  # the file ends inside this record
            token, space, _ = data.lstrip(b"\n").partition(b" ")
            if space:  # its token is checked first
                _record_token(token, index, path)
            raise TruncatedRecordError(index, path)
        trailing = len(data.lstrip(b"\n"))
        while chunk := source.read(_READ_BYTES):
            trailing += len(chunk if trailing else chunk.lstrip(b"\n"))
        if trailing:
            raise DataError(f"{path}: {trailing} trailing bytes after last record")
    store = sink.store(path, source.raw.sha256.hexdigest())
    if entry is not None and entry.needed(store.digest):
        keys = [token.encode("utf-8") for token in sink.seen]
        lengths = np.fromiter(map(len, keys), np.int64, len(keys)) + 1 + record_bytes
        entry.commit(keys, np.array(offsets, dtype=np.int64), lengths, dim, store.digest)
    return store


#: The formats ``load_model`` takes; "auto" picks by the file suffix.
MODEL_FORMATS = ("auto", "text", "binary")


def _model_format(path: Path, fmt: str) -> str:
    """The format a load of ``fmt`` reads: for "auto", binary for a .bin
    suffix and text otherwise."""
    if fmt not in MODEL_FORMATS:
        raise ValueError(f"unknown model format: {fmt!r}")
    if fmt == "auto":
        return "binary" if path.suffix == ".bin" else "text"
    return fmt


def model_header(path: str | Path, fmt: str = "auto") -> tuple[int, int]:
    """The V and D a model file's header line declares, read as a load of
    ``fmt`` reads that line; a restricted store holds fewer than V rows."""
    path = Path(path)
    if _model_format(path, fmt) == "binary":
        with path.open("rb") as handle:
            line = handle.readline().decode("ascii")
    else:
        with path.open(encoding="utf-8") as handle:
            line = handle.readline()
    return _parse_header(line.rstrip("\n"), path)


def load_model(path: str | Path, fmt: str = "auto", *,
               wanted: AbstractSet[str] | None = None) -> EmbeddingStore:
    """Dispatch on format; 'auto' treats a .bin suffix as binary.

    With ``wanted``, the store keeps only the rows of those tokens, and a
    model whose bytes were loaded before in the same format is read through
    its cache entry; any other load parses, and leaves an entry (see the
    module docstring). The store is the same either way.
    """
    path = Path(path)
    fmt = _model_format(path, fmt)
    parse = _load_binary if fmt == "binary" else _load_text
    size, directory = path.stat().st_size, _cache_dir()
    # Only an entry of this size and format can be this file's; without one,
    # the file is not hashed twice. An entry holds no rows, so a load of
    # every row parses.
    if wanted is not None and _holds_entry_of(directory, size, fmt):
        store = _cached_store(directory, path, fmt, wanted)
        if store is not None:
            return store
    else:
        logger.debug("model cache miss: %s", path)
    return parse(path, wanted, _EntryWriter(directory, path, fmt, size))


# A cache entry: a header of _HEADER_BYTES, then three arrays of V items in
# one order: the CRC-32 of each token's UTF-8 bytes, sorted, as little-endian
# uint32; the byte offset in the model file of the token's record, as uint64;
# and the record's length, as uint32. A binary record runs from its token to
# its vector's last byte; a text record is its line, from the token, without
# the line end. A read given ``wanted`` looks up each wanted token's CRC-32
# and keeps a record only if it holds that very token, so a shared CRC-32
# costs one more record read, never a wrong row. The header is one ASCII
# line, padded with spaces, naming the layout version, the model's format and
# digest, V, D and the CRC-32 of the arrays. The digest ties the offsets to
# the bytes they index. The same bytes can be a valid model in both formats,
# with other rows, so each format has its own entry. The entry's name also
# holds the model file's size, so that a load can tell from the directory's
# listing alone that no entry is its file's.
_ENTRY_VERSION = 4
_HEADER_BYTES = 128


def _entry_name(digest: str, size: int, fmt: str) -> str:
    return f"{digest}.{size}.{fmt}.v{_ENTRY_VERSION}"


def _holds_entry_of(directory: Path, size: int, fmt: str) -> bool:
    """Whether the cache holds an entry of a model file of ``size`` bytes read
    in ``fmt``; one it cannot list holds none."""
    suffix = _entry_name("", size, fmt)
    try:
        return any(name.endswith(suffix) for name in os.listdir(directory))
    except OSError:
        return False


def _entry_header(fmt: str, digest: str, vocab: int, dim: int, crc: int) -> bytes:
    line = f"labeleval-model-cache {_ENTRY_VERSION} {fmt} {digest} {vocab} {dim} {crc}"
    return line.encode("ascii").ljust(_HEADER_BYTES - 1) + b"\n"


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/labeleval/models``, or ``~/.cache/labeleval/models``
    when that is unset (or, as the XDG rules say, not an absolute path)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "labeleval", "models")


class _BadEntry(Exception):
    """A cache entry that fails a check on read."""


def _cached_store(directory: Path, path: Path, fmt: str,
                  wanted: AbstractSet[str]) -> EmbeddingStore | None:
    """The store the model's cache entry finds in the model file, or None when
    there is no entry, or it cannot be read, or it fails a check, or the file
    changed while it was read. The file is hashed and its records read
    through one descriptor. An entry that fails a check is removed, so that
    the parse writes it again."""
    with _HashingFile(path) as model:
        before = os.fstat(model.fileno())
        digest = model.hash_pass()
        entry = directory / _entry_name(digest, before.st_size, fmt)
        try:
            with entry.open("rb") as handle:
                store = _read_entry(handle, model.fileno(), path, fmt, digest, wanted)
        except (FileNotFoundError, NotADirectoryError):
            logger.debug("model cache miss: %s", path)
            return None
        except (OSError, _BadEntry, DataError) as exc:  # a DataError is the sink's
            logger.warning("model cache entry %s ignored (%s); loading %s again",
                           entry, exc, path)
            with contextlib.suppress(OSError):
                entry.unlink()
            return None
        after = os.fstat(model.fileno())
    if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
        logger.warning("model file %s changed while it was read; loading it again", path)
        return None
    logger.debug("model cache hit: %s from %s", path, entry)
    return store


def _read_entry(handle: io.BufferedReader, model: int, path: Path, fmt: str,
                digest: str, wanted: AbstractSet[str]) -> EmbeddingStore:
    head = handle.read(_HEADER_BYTES)
    try:
        vocab, dim, crc = (int(field) for field in head.split()[-3:])
    except ValueError:
        raise _BadEntry("unreadable header") from None
    if head != _entry_header(fmt, digest, vocab, dim, crc):
        raise _BadEntry("header does not name this model")
    expected = _HEADER_BYTES + 16 * vocab
    size = os.fstat(handle.fileno()).st_size
    if size != expected:
        raise _BadEntry(f"{size} bytes, expected {expected}")
    index = handle.read(16 * vocab)
    if zlib.crc32(index) != crc:
        raise _BadEntry("index does not match its CRC-32")
    crcs = np.frombuffer(index, "<u4", vocab)
    # a lone surrogate encodes to bytes that are not UTF-8, so it is not found
    keys = {token: token.encode("utf-8", "surrogatepass") for token in wanted}
    probes = np.fromiter(map(zlib.crc32, keys.values()), dtype=np.uint32,
                         count=len(keys))
    starts = np.searchsorted(crcs, probes, side="left").tolist()
    stops = np.searchsorted(crcs, probes, side="right").tolist()
    filed = [(at, token) for token, first, stop in zip(keys, starts, stops)
             for at in range(first, stop)]
    at = np.array([at for at, _ in filed], dtype=np.intp)
    offsets = np.frombuffer(index, "<u8", vocab, 4 * vocab)[at].tolist()
    lengths = np.frombuffer(index, "<u4", vocab, 12 * vocab)[at].tolist()
    candidates = sorted(zip(offsets, lengths, (token for _, token in filed)))
    end = os.fstat(model).st_size
    tokens, places, vectors = [], [], []
    for offset, length, token in candidates:
        if offset + length > end:
            raise _BadEntry(f"a record runs past the end of {path}")
        # with the byte on each side: a text record is a whole line, between
        # line ends or a line end and the file's end
        edged = os.pread(model, length + 2, offset - 1)
        record = edged[1:length + 1]
        if fmt == "text" and not (edged[:1] in (b"\n", b"\r")
                                  and edged[length + 1:] in (b"", b"\n", b"\r")):
            raise _BadEntry(f"the record at byte {offset} is not a whole line")
        name, space, vector = record.partition(b" ")
        if name != keys[token]:
            continue  # another token of the same CRC-32
        # the token, then a space and the vector; a text line of no
        # components is the token alone
        if bool(space) != (fmt == "binary" or dim > 0) or \
                fmt == "binary" and len(vector) != 4 * dim:
            raise _BadEntry(f"the record at byte {offset} is not a row")
        tokens.append(token)
        places.append(offset)
        vectors.append(vector)
    if fmt == "binary":
        rows = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(len(tokens), dim)
    else:  # bytes of a file changed meanwhile that are not UTF-8 fail as numbers
        numbers = [vector.decode("utf-8", "replace") for vector in vectors]
        rows = _parse_block(numbers, dim, places, path)  # as the parse converts it
    sink = _RowSink(len(tokens), len(tokens), dim, None, lambda offset: f"{path} byte {offset}")
    for token, offset in zip(tokens, places):
        sink.add(token, offset)
    sink.block(tokens, rows, places)
    return sink.store(path, digest)


class _EntryWriter:
    """The cache entry of one parse, written whole once the parse has passed
    every check.

    ``needed`` tells whether to build it: not when the entry of the bytes the
    parse read is there already, nor when the file's size changed meanwhile.
    ``commit`` puts it in place under their digest, through ``write_entry``,
    and removes the entries of other layout versions kept for the same bytes. A write that fails is
    logged once, and the load goes on without the entry.
    """

    def __init__(self, directory: Path, model: Path, fmt: str, size: int):
        self._directory, self._model, self._fmt, self._size = directory, model, fmt, size

    def fail(self, why: object) -> None:
        logger.warning("model cache entry for %s not written (%s)", self._model, why)

    def needed(self, digest: str) -> bool:
        with contextlib.suppress(OSError):
            if self._model.stat().st_size == self._size:
                return not (self._directory / _entry_name(digest, self._size, self._fmt)).exists()
        self.fail("the model file changed while it was read")
        return False

    def commit(self, keys: Sequence[bytes], offsets: np.ndarray, lengths: np.ndarray,
               dim: int, digest: str) -> None:
        """Write the entry of the records of ``keys``, the tokens' UTF-8 bytes,
        in file order, at ``offsets`` and of ``lengths`` bytes."""
        crcs = np.fromiter(map(zlib.crc32, keys), dtype="<u4", count=len(keys))
        order = np.argsort(crcs, kind="stable")
        index = b"".join([crcs[order].tobytes(), offsets[order].astype("<u8").tobytes(),
                          lengths[order].astype("<u4").tobytes()])
        entry = self._directory / _entry_name(digest, self._size, self._fmt)
        try:
            # the cache base, labeleval and models: each made private if missing
            for made in (self._directory.parents[1], self._directory.parent,
                         self._directory):
                made.mkdir(mode=0o700, parents=True, exist_ok=True)
            write_entry(entry, _entry_header(self._fmt, digest, len(keys), dim,
                                             zlib.crc32(index)) + index)
        except OSError as exc:  # the load's own outcome stands
            self.fail(exc)
            return
        logger.debug("model cache entry written: %s", entry)
        for superseded in self._directory.glob(f"{digest}.*"):
            version = superseded.name.rpartition(".v")[2]
            if version.isdigit() and int(version) != _ENTRY_VERSION:
                try:
                    superseded.unlink()
                except OSError as exc:
                    logger.debug("superseded model cache entry %s not removed (%s)",
                                 superseded, exc)


def _check_serializable(store: EmbeddingStore, breaks: str = " \n") -> None:
    # Called before a writer opens its file, so a rejected save leaves the path
    # as it was. Neither loader reads a non-finite component back. Both
    # serializations write a token as UTF-8 and end it at a space; ``breaks``
    # also holds what else ends one when read back.
    bad = _first_bad_row(store._matrix)
    if bad is not None:
        token = next(token for token, row in store._row.items() if row == bad)
        raise DataError(f"vector for {token!r} has a non-finite component and "
                        "cannot be serialized")
    for token in store._row:
        if any(character in token for character in breaks):
            raise DataError(
                f"token contains whitespace and cannot be serialized: {token!r}")
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise DataError(
                f"token is not valid UTF-8 and cannot be serialized: {token!r}") from None


def save_text_model(store: EmbeddingStore, path: str | Path) -> None:
    """Write a text model. 9 significant digits keep float32 exact."""
    # the reader's universal newlines end a line at "\r" too
    _check_serializable(store, " \n\r")
    if store.dim == 0 and "" in store:  # the reader skips a blank line
        raise DataError("an empty token with no components cannot be "
                        "serialized as text")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{store.vocab_size} {store.dim}\n")
        for token, vector in store.items():
            handle.write(" ".join([token, *(f"{float(c):.8e}" for c in vector)]) + "\n")


def save_binary_model(store: EmbeddingStore, path: str | Path) -> None:
    _check_serializable(store)
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"{store.vocab_size} {store.dim}\n".encode("ascii"))
        for token, vector in store.items():
            handle.write(b"%s %s\n" % (token.encode("utf-8"),
                                       np.asarray(vector, dtype="<f4").tobytes()))


def spellings(cleaned: str) -> tuple[tuple[str, Permutation], ...]:
    """The store tokens a cleaned label may resolve to, in the order tried.

    The cleaned label as-is, then with spaces removed, then with spaces
    replaced by underscores, then with each word capitalized and joined by
    underscores. An empty label has none.
    """
    if not cleaned:
        return ()
    return (
        (cleaned, Permutation.AS_IS),
        (cleaned.replace(" ", ""), Permutation.NO_SPACE),
        (cleaned.replace(" ", "_"), Permutation.UNDERSCORE),
        ("_".join(w.capitalize() for w in cleaned.split(" ")),
         Permutation.TITLE_UNDERSCORE),
    )


def wanted_tokens(cleaned_labels: Iterable[str]) -> set[str]:
    """Every token the cleaned labels may resolve to: the rows a load keeps.

    Each distinct cleaned label is spelled once. A store restricted to these
    tokens resolves the labels as the whole model does.
    """
    return {token for cleaned in set(cleaned_labels) for token, _ in spellings(cleaned)}


def _first_spelling(store: EmbeddingStore,
                    cleaned: str) -> tuple[str | None, Permutation | None]:
    """The first of a cleaned label's ``spellings`` present in the store, and
    its permutation; (None, None) when none is."""
    for spelling, permutation in spellings(cleaned):
        if spelling in store:
            return spelling, permutation
    return None, None


def resolve_label(store: EmbeddingStore, raw: str) -> LabelResolution:
    """Resolve a raw label, cleaned, by the first of its ``spellings`` present
    in the store."""
    token, permutation = _first_spelling(store, clean_label(raw))
    return LabelResolution(raw_label=raw, token=token, permutation=permutation)


class Vocabulary:
    """Every label of a run, cleaned and resolved once.

    Maps each raw label to its cleaned text and to a row of ``vectors``, which
    holds only the store rows the labels resolve to, raw (float32) as loaded,
    with float64 norms beside them. Row 0 is the origin: every label that
    does not resolve sits there, as ``UNKNOWN_TOKEN``, so it has norm 0 and
    lies at each word's norm from that word. Resolution depends only on the
    cleaned text, so each distinct cleaned text is resolved once, by its
    ``spellings``, and no label is cleaned again. Lookups are for the labels
    it was built from.
    """

    __slots__ = ("tokens", "vectors", "norms", "_cleaned", "_row")

    def __init__(self, store: EmbeddingStore, cleaned_of: Mapping[str, str]):
        """``cleaned_of`` maps each raw label to its cleaned text, as ``clean_labels``."""
        tokens = [UNKNOWN_TOKEN]
        token_row = {UNKNOWN_TOKEN: 0}
        row_of: dict[str, int] = {}
        row_of_cleaned: dict[str, int] = {}
        for raw, cleaned in cleaned_of.items():
            row = row_of_cleaned.get(cleaned)
            if row is None:
                token, _ = _first_spelling(store, cleaned)
                if token is None:
                    row = 0
                else:
                    row = token_row.get(token)
                    if row is None:
                        row = token_row[token] = len(tokens)
                        tokens.append(token)
                row_of_cleaned[cleaned] = row
            row_of[raw] = row
        vectors = store.vectors(tokens)
        vectors.setflags(write=False)
        # the scalar cosine's norm, row by row, so both paths divide alike
        norms = np.array([math.sqrt(float(np.dot(v, v)))
                          for v in vectors.astype(np.float64)], dtype=np.float64)
        norms.setflags(write=False)
        self.tokens = tuple(tokens)
        self.vectors = vectors
        self.norms = norms
        self._cleaned = cleaned_of
        self._row = row_of

    def cleaned(self, raw: str) -> str:
        return self._cleaned[raw]

    def row(self, raw: str) -> int:
        """Row of a raw label; 0 when it does not resolve."""
        return self._row[raw]

    def token(self, raw: str) -> str:
        """Store token of a raw label, or UNKNOWN_TOKEN."""
        return self.tokens[self._row[raw]]

    def gather(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The rows' vectors upcast to float64, and their norms."""
        index = np.fromiter(rows, dtype=np.intp, count=len(rows))
        return self.vectors[index].astype(np.float64), self.norms[index]


def _as_float64(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"vector dimensions differ: {a.shape} vs {b.shape}")
    return a, b


def cosine(u, v) -> float:
    """Cosine similarity (u.v)/(|u||v|), clamped to [-1, 1]."""
    a, b = _as_float64(u, v)
    norm_a = math.sqrt(float(np.dot(a, a)))
    norm_b = math.sqrt(float(np.dot(b, b)))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine undefined for zero vector")
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    return min(1.0, max(-1.0, value))


def euclidean(u, v) -> float:
    """Euclidean distance |u - v|."""
    a, b = _as_float64(u, v)
    diff = a - b
    return math.sqrt(float(np.dot(diff, diff)))
