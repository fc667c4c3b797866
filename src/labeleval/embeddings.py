"""Word-embedding store: text/binary model IO, label resolution, vector math.

Models follow the common word2vec layouts. Text: a "V D" header line then V
rows of "token c1 ... cD". Binary: the same ascii header, then V records of
token bytes, a single 0x20, and D little-endian float32 values with an
optional trailing newline. Every component must be finite.

A run resolves its labels once, into a ``Vocabulary``; the scalar ``cosine``
and ``euclidean`` stay as the reference the vectorised scoring is checked
against.
"""

from __future__ import annotations

import enum
import math
import os
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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

_DISALLOWED = re.compile(r"[^a-z0-9 ]+")
_MULTISPACE = re.compile(r" +")


def clean_label(raw: str) -> str:
    """Lowercase, strip characters outside [a-z0-9 ], collapse spaces, trim."""
    lowered = raw.lower()
    kept = _DISALLOWED.sub("", lowered)
    return _MULTISPACE.sub(" ", kept).strip()


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
    order. ``vectors`` is the one place a token becomes a vector.
    """

    __slots__ = ("dim", "source_path", "_row", "_matrix")

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
                    source_path)

    @classmethod
    def _from_matrix(cls, row: dict[str, int], matrix: np.ndarray,
                     source_path: str) -> "EmbeddingStore":
        return cls.__new__(cls)._adopt(row, matrix, source_path)

    def _adopt(self, row: dict[str, int], matrix: np.ndarray,
               source_path: str) -> "EmbeddingStore":
        """Take a filled matrix read-only; ``row`` maps each token to its row."""
        matrix.setflags(write=False)
        self.dim, self.source_path = matrix.shape[1], source_path
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
    return vocab, dim


def _first_bad_row(matrix: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, if any.

    A row's float64 sum is finite exactly when each float32 component is.
    """
    bad = np.flatnonzero(~np.isfinite(matrix.sum(axis=1, dtype=np.float64)))
    return int(bad[0]) if bad.size else None


def _text_lines(handle, path: Path) -> Iterator[str]:
    """The lines of a text handle; undecodable bytes are a DataError."""
    try:
        yield from handle
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8 text") from None


def load_text_model(path: str | Path) -> EmbeddingStore:
    """Load a text-format model. Raises on header/row inconsistencies.

    A component that is NaN, infinite, or too large for float32 is a
    DataError naming its line; text that is not UTF-8 is a DataError too.
    """
    path = Path(path)
    line_nos = array("i")
    row: dict[str, int] = {}
    # a component beyond float32 range casts to inf (quietly), rejected below
    with path.open("r", encoding="utf-8") as handle, np.errstate(over="ignore"):
        lines = _text_lines(handle, path)
        header = next(lines, "")
        if not header.strip():
            raise MalformedHeaderError(f"{path}: empty file")
        vocab, dim = _parse_header(header)
        # A row takes 2 bytes a component (a space and a digit), and at least
        # 1, so no header sizes the matrix beyond the file.
        fits = os.fstat(handle.fileno()).st_size // max(1, 2 * dim)
        matrix = np.zeros((min(vocab, fits), dim), dtype=np.float32)
        line_no = 1
        for raw_line in lines:
            line_no += 1
            line = raw_line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise DimensionMismatchError(
                    f"{path} line {line_no}: expected {dim} components, "
                    f"found {len(parts) - 1}", line_no=line_no)
            if len(row) == vocab:
                raise MalformedHeaderError(
                    f"{path} line {line_no}: header declares only {vocab} rows")
            index = _add_token(row, parts[0])
            try:
                matrix[index] = list(map(float, parts[1:]))
            except ValueError:
                raise DataError(f"{path} line {line_no}: unparseable number") from None
            line_nos.append(line_no)
    bad = _first_bad_row(matrix)
    if bad is not None:
        raise DataError(f"{path} line {line_nos[bad]}: non-finite vector component")
    if len(row) != vocab:
        raise MalformedHeaderError(
            f"{path}: header declares {vocab} rows, found {len(row)}")
    return EmbeddingStore._from_matrix(row, matrix, str(path))


def load_binary_model(path: str | Path) -> EmbeddingStore:
    """Load a binary-format model; a bad vector or token names its record index."""
    path = Path(path)
    blob = path.read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise MalformedHeaderError(f"{path}: missing header line")
    try:
        header = blob[:newline].decode("ascii")
    except UnicodeDecodeError:
        raise MalformedHeaderError(f"{path}: non-ascii header") from None
    vocab, dim = _parse_header(header)
    record_bytes = 4 * dim
    offset = newline + 1
    # A record takes a space and its vector at least, so no header sizes the
    # matrix beyond the file; records past the end are truncated.
    fits = (len(blob) - offset) // (record_bytes + 1)
    matrix = np.zeros((min(vocab, fits), dim), dtype=np.float32)
    row: dict[str, int] = {}
    for index in range(vocab):
        # Tolerate a newline left over from the previous record.
        while offset < len(blob) and blob[offset:offset + 1] == b"\n":
            offset += 1
        space = blob.find(b" ", offset)
        if space < 0:
            raise TruncatedRecordError(index)
        try:
            token = blob[offset:space].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: record {index}: token is not UTF-8") from None
        start = space + 1
        end = start + record_bytes
        if end > len(blob):
            raise TruncatedRecordError(index)
        matrix[_add_token(row, token)] = np.frombuffer(
            blob, dtype="<f4", count=dim, offset=start)
        offset = end
    while offset < len(blob) and blob[offset:offset + 1] == b"\n":
        offset += 1
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes after last record")
    bad = _first_bad_row(matrix)
    if bad is not None:
        raise DataError(f"{path}: non-finite vector component in record {bad}")
    return EmbeddingStore._from_matrix(row, matrix, str(path))


def load_model(path: str | Path, fmt: str = "auto") -> EmbeddingStore:
    """Dispatch on format; 'auto' treats a .bin suffix as binary."""
    if fmt == "auto":
        fmt = "binary" if Path(path).suffix == ".bin" else "text"
    if fmt == "text":
        return load_text_model(path)
    if fmt == "binary":
        return load_binary_model(path)
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


def resolve_label(store: EmbeddingStore, raw: str) -> LabelResolution:
    """Resolve a raw label by trying its spelling permutations in order.

    Tries the cleaned label as-is, then with spaces removed, then with spaces
    replaced by underscores, then with each word capitalized and joined by
    underscores. The first token present in the store wins.
    """
    cleaned = clean_label(raw)
    if not cleaned:
        return LabelResolution(raw_label=raw, token=None, permutation=None)
    candidates = (
        (cleaned, Permutation.AS_IS),
        (cleaned.replace(" ", ""), Permutation.NO_SPACE),
        (cleaned.replace(" ", "_"), Permutation.UNDERSCORE),
        ("_".join(w.capitalize() for w in cleaned.split(" ")),
         Permutation.TITLE_UNDERSCORE),
    )
    for candidate, permutation in candidates:
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
    cleaned text, so labels that clean alike are resolved once. Lookups are
    for the labels it was built from.
    """

    __slots__ = ("tokens", "vectors", "norms", "_cleaned", "_row")

    def __init__(self, store: EmbeddingStore, labels: Iterable[str]):
        tokens = [UNKNOWN_TOKEN]
        token_row = {UNKNOWN_TOKEN: 0}
        cleaned_of: dict[str, str] = {}
        row_of: dict[str, int] = {}
        row_of_cleaned: dict[str, int] = {}
        for raw in labels:
            if raw in cleaned_of:
                continue
            cleaned = clean_label(raw)
            row = row_of_cleaned.get(cleaned)
            if row is None:
                token = resolve_label(store, cleaned).token if cleaned else None
                if token is None:
                    row = 0
                else:
                    row = token_row.get(token)
                    if row is None:
                        row = token_row[token] = len(tokens)
                        tokens.append(token)
                row_of_cleaned[cleaned] = row
            cleaned_of[raw] = cleaned
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
