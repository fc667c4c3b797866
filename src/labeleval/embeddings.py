"""Word-embedding store: text/binary model IO, label resolution, vector math.

Models follow the common word2vec layouts. Text: a "V D" header line then V
rows of "token c1 ... cD". Binary: the same ascii header, then V records of
token bytes, a single 0x20, and D little-endian float32 values with an
optional trailing newline. Every component must be finite.

A load reads the file once, in blocks: the same bytes feed the store's
SHA-256 digest, and every row is checked. Given ``wanted`` tokens, a load
keeps only their rows, so a run holds the few thousand rows its labels can
resolve to, not the whole model.

A run resolves its labels once, into a ``Vocabulary``; the scalar ``cosine``
and ``euclidean`` stay as the reference the vectorised scoring is checked
against.
"""

from __future__ import annotations

import enum
import hashlib
import io
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

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

#: Distinguished token standing in for every label the store cannot resolve.
UNKNOWN_TOKEN = "<unk>"

#: Bytes a model load reads at a time, and records a binary load checks at a time.
_READ_BYTES = 1 << 22
_BLOCK_ROWS = 4096

_DISALLOWED = re.compile(r"[^a-z0-9 ]+")
_MULTISPACE = re.compile(r" +")


def clean_label(raw: str) -> str:
    """Lowercase, strip characters outside [a-z0-9 ], collapse spaces, trim."""
    lowered = raw.lower()
    kept = _DISALLOWED.sub("", lowered)
    return _MULTISPACE.sub(" ", kept).strip()


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
            _add_token(row, token)
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


def _add_token(row: dict[str, int], token: str) -> int:
    """Give a token the next row; a token seen before is an error."""
    if token in row:
        raise DuplicateTokenError(token)
    row[token] = index = len(row)
    return index


def _parse_header(line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise MalformedHeaderError(f"expected 'V D' header, got {line!r}")
    try:
        vocab, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedHeaderError(f"non-integer header fields: {line!r}") from None
    if vocab < 0 or dim < 0:
        raise MalformedHeaderError(f"negative header fields: {line!r}")
    # A loader bounds the dimension by the row the file must hold; with no
    # rows, only numpy bounds it, at the widest float32 array it can size.
    if not vocab and 4 * dim > sys.maxsize:
        raise MalformedHeaderError(f"dimension too large: {line!r}")
    return vocab, dim


def _first_bad_row(matrix: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, if any.

    A row's float64 sum is finite exactly when each float32 component is.
    """
    with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN, as it should
        bad = np.flatnonzero(~np.isfinite(matrix.sum(axis=1, dtype=np.float64)))
    return int(bad[0]) if bad.size else None


class _HashingFile(io.RawIOBase):
    """A binary file whose every byte read also goes into a SHA-256 digest."""

    def __init__(self, path: Path):
        self._handle = path.open("rb", buffering=0)
        self.size = os.fstat(self._handle.fileno()).st_size
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._handle.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self._handle.close()
        super().close()


def _open_hashed(path: Path) -> io.BufferedReader:
    """The file, read ``_READ_BYTES`` at a time through its ``raw.sha256``."""
    return io.BufferedReader(_HashingFile(path), _READ_BYTES)


class _RowSink:
    """The rows a load keeps, taken one parsed block at a time.

    Every token of the file is recorded, so a duplicate is caught on any row,
    and every block is checked for NaN and infinities before its rows are
    copied out: all of them, or, given ``wanted``, those whose token is in it.
    ``first_bad`` is the place (line or record) of the first non-finite row.
    """

    __slots__ = ("seen", "first_bad", "_kept", "_wanted", "_matrix")

    def __init__(self, vocab: int, fits: int, dim: int,
                 wanted: AbstractSet[str] | None):
        self.seen: dict[str, int] = {}  # every token read -> its row in the file
        self.first_bad: int | None = None
        self._kept = self.seen if wanted is None else {}
        self._wanted = wanted
        # kept rows have distinct tokens, all wanted, and the file holds them
        capacity = min(vocab, fits, len(wanted) if wanted is not None else vocab)
        self._matrix = np.zeros((capacity, dim), dtype=np.float32)

    def block(self, tokens: Sequence[str], rows: np.ndarray,
              places: Sequence[int]) -> None:
        """Keep a block's rows; ``places`` names each row in an error."""
        bad = _first_bad_row(rows)
        if bad is not None and self.first_bad is None:
            self.first_bad = places[bad]
        if self._wanted is None:
            first = len(self.seen) - len(tokens)
            self._matrix[first:first + len(tokens)] = rows
        else:
            for index, token in enumerate(tokens):
                if token in self._wanted:
                    self._matrix[len(self._kept)] = rows[index]
                    self._kept[token] = len(self._kept)

    def store(self, path: Path, digest: str) -> EmbeddingStore:
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
    path = Path(path)
    with _open_hashed(path) as binary, \
            io.TextIOWrapper(binary, encoding="utf-8") as text, \
            np.errstate(over="ignore"):  # a float32 overflow is rejected below
        lines = _text_lines(text, path)
        header = next(lines, "")
        if not header.strip():
            raise MalformedHeaderError(f"{path}: empty file")
        vocab, dim = _parse_header(header)
        # A row takes 2 bytes a component (a space and a digit), and at least
        # 1, so no header sizes a matrix beyond the file.
        fits = binary.raw.size // max(1, 2 * dim)
        if vocab and not fits:
            raise MalformedHeaderError(
                f"{path}: a row of {dim} components cannot fit in the file")
        sink = _RowSink(vocab, fits, dim, wanted)
        seen = sink.seen
        # Each line is checked as it is decoded; its numbers wait in a block
        # of about _READ_BYTES, parsed at once.
        tokens: list[str] = []
        fields: list[str] = []
        line_nos: list[int] = []
        held = 0
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
                _add_token(seen, token)
                tokens.append(token)
                fields.append(numbers)
                line_nos.append(line_no)
                held += len(numbers)
                if held >= _READ_BYTES:
                    sink.block(tokens, _parse_block(fields, dim, line_nos, path), line_nos)
                    tokens, fields, line_nos, held = [], [], [], 0
        except DataError:
            _parse_block(fields, dim, line_nos, path)  # an earlier bad number first
            raise
        sink.block(tokens, _parse_block(fields, dim, line_nos, path), line_nos)
    if sink.first_bad is not None:
        raise DataError(f"{path} line {sink.first_bad}: non-finite vector component")
    if len(seen) != vocab:
        raise MalformedHeaderError(
            f"{path}: header declares {vocab} rows, found {len(seen)}")
    return sink.store(path, binary.raw.sha256.hexdigest())


class _RecordReader:
    """The records of a binary model, read a chunk at a time.

    Only the bytes not yet taken are held, so memory stays at about a chunk
    unless one record is longer.
    """

    __slots__ = ("_source", "_data", "_view", "_pos")

    def __init__(self, source: io.BufferedReader):
        self._source = source
        self._data = b""
        self._view = memoryview(self._data)
        self._pos = 0

    def _more(self, pos: int) -> bool:
        """Keep the held bytes from ``pos`` on, plus the next chunk, if any."""
        chunk = self._source.read(_READ_BYTES)
        if chunk:
            self._data = self._data[pos:] + chunk
            self._view = memoryview(self._data)
            self._pos = 0
        return bool(chunk)

    def record(self, size: int) -> tuple[bytes | None, memoryview | None]:
        """The next record's token bytes and its ``size`` vector bytes.

        Newlines before the token (one may end the previous record) are
        skipped. Either part is None when the stream ends before it does.
        """
        while True:
            data, pos = self._data, self._pos
            while pos < len(data) and data[pos] == 0x0A:
                pos += 1
            space = data.find(b" ", pos)
            end = space + 1 + size
            if 0 <= space and end <= len(data):
                self._pos = end
                return data[pos:space], self._view[space + 1:end]
            if not self._more(pos):
                return (None, None) if space < 0 else (data[pos:space], None)

    def trailing(self) -> int:
        """How many bytes follow the newlines after the last record, reading them all."""
        while True:
            rest = self._data[self._pos:].lstrip(b"\n")
            if rest or not self._more(len(self._data)):
                break
        left = len(rest)
        while chunk := self._source.read(_READ_BYTES):
            left += len(chunk)
        return left


def load_binary_model(path: str | Path, *,
                      wanted: AbstractSet[str] | None = None) -> EmbeddingStore:
    """Load a binary-format model; a bad vector or token names its record index.

    With ``wanted``, only the rows of those tokens are kept, but every record
    is still checked.
    """
    path = Path(path)
    with _open_hashed(path) as source:
        header = source.readline()
        if not header.endswith(b"\n"):
            raise MalformedHeaderError(f"{path}: missing header line")
        try:
            vocab, dim = _parse_header(header[:-1].decode("ascii"))
        except UnicodeDecodeError:
            raise MalformedHeaderError(f"{path}: non-ascii header") from None
        record_bytes = 4 * dim
        # A record takes a space and its vector at least, so no header sizes a
        # matrix or a block beyond the file; records past the end are truncated.
        fits = (source.raw.size - len(header)) // (record_bytes + 1)
        if vocab and not fits:
            raise TruncatedRecordError(0)
        sink = _RowSink(vocab, fits, dim, wanted)
        block_rows = min(_BLOCK_ROWS, fits)
        block_bytes = bytearray(block_rows * record_bytes)
        block = np.frombuffer(block_bytes, dtype="<f4").reshape(block_rows, dim)
        records = _RecordReader(source)
        tokens: list[str] = []
        for index in range(vocab):
            raw_token, vector = records.record(record_bytes)
            if raw_token is None:
                raise TruncatedRecordError(index)
            try:
                token = raw_token.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: record {index}: token is not UTF-8") from None
            if vector is None:
                raise TruncatedRecordError(index)
            _add_token(sink.seen, token)
            start = len(tokens) * record_bytes
            block_bytes[start:start + record_bytes] = vector
            tokens.append(token)
            if len(tokens) == len(block) or index == vocab - 1:
                sink.block(tokens, block[:len(tokens)],
                           range(index + 1 - len(tokens), index + 1))
                tokens.clear()
        trailing = records.trailing()
        if trailing:
            raise DataError(f"{path}: {trailing} trailing bytes after last record")
    if sink.first_bad is not None:
        raise DataError(f"{path}: non-finite vector component in record {sink.first_bad}")
    return sink.store(path, source.raw.sha256.hexdigest())


def load_model(path: str | Path, fmt: str = "auto", *,
               wanted: AbstractSet[str] | None = None) -> EmbeddingStore:
    """Dispatch on format; 'auto' treats a .bin suffix as binary.

    With ``wanted``, the store keeps only the rows of those tokens.
    """
    if fmt == "auto":
        fmt = "binary" if Path(path).suffix == ".bin" else "text"
    if fmt == "text":
        return load_text_model(path, wanted=wanted)
    if fmt == "binary":
        return load_binary_model(path, wanted=wanted)
    raise ValueError(f"unknown model format: {fmt!r}")


def _checked_token(token: str) -> str:
    # Both serializations delimit the token with whitespace.
    if " " in token or "\n" in token:
        raise DataError(f"token contains whitespace and cannot be serialized: {token!r}")
    return token


def save_text_model(store: EmbeddingStore, path: str | Path) -> None:
    """Write a text model. 9 significant digits keep float32 exact."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{store.vocab_size} {store.dim}\n")
        for token, vector in store.items():
            rendered = " ".join(f"{float(c):.8e}" for c in vector)
            handle.write(f"{_checked_token(token)} {rendered}\n")


def save_binary_model(store: EmbeddingStore, path: str | Path) -> None:
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"{store.vocab_size} {store.dim}\n".encode("ascii"))
        for token, vector in store.items():
            handle.write(_checked_token(token).encode("utf-8"))
            handle.write(b" ")
            handle.write(np.asarray(vector, dtype="<f4").tobytes())
            handle.write(b"\n")


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


def resolve_label(store: EmbeddingStore, raw: str) -> LabelResolution:
    """Resolve a raw label by trying its ``spellings`` in order.

    The first token present in the store wins.
    """
    for candidate, permutation in spellings(clean_label(raw)):
        if candidate in store:
            return LabelResolution(raw_label=raw, token=candidate,
                                   permutation=permutation)
    return LabelResolution(raw_label=raw, token=None, permutation=None)


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
                # the first spelling present wins, as in resolve_label
                token = next((spelling for spelling, _ in spellings(cleaned)
                              if spelling in store), None)
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
