"""Aggregated bag-of-words similarity through a sentence-embedding provider.

The truth and prediction label bags are rendered to deterministic
space-joined texts of their cleaned labels, read off the interned sides'
Vocabulary, and embedded out-of-process, either by lookup in a
precomputed vector file or over HTTP. The wire format is a POST of
{"model": ..., "texts": [...]} answered by {"vectors": [[...], ...]};
precomputed files are newline-delimited {"digest", "model", "vector"}
records keyed by the sha256 hex digest of the text. Replies, cache entries
and vector-file lines all decode through ``labelset._parse_json``. Every
vector a run uses must be a 1-D array of finite numbers with a non-zero
norm: each is converted and checked once, as it is read, and a vector-file
record's bad vector is an error only when its digest is asked for.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .embeddings import write_entry
from .errors import (
    CacheCorruptError,
    DimensionInconsistentError,
    EmptyBagError,
    ParseError,
    ProviderUnavailableError,
)
from .labelset import (TEXT_ONLY, InternedObjects, InternedTruth, PredictedObject,
                       _is_int, _is_number, _parse_json, intern_bag, read_lines)

#: Environment variable that overrides the remote provider endpoint.
ENDPOINT_ENV_VAR = "LABELEVAL_SENTENCE_ENDPOINT"


@dataclass(frozen=True)
class ProviderConfig:
    """Where sentence vectors come from.

    mode 'file' reads a precomputed vector file at ``path``; mode 'remote'
    POSTs batches to ``endpoint`` with retry/backoff and caches replies under
    ``cache_dir`` keyed by (model, text digest).
    """

    mode: str
    model: str
    path: str | None = None
    endpoint: str | None = None
    timeout: float = 10.0
    max_retries: int = 3
    batch_size: int = 16
    cache_dir: str | None = None

    def __post_init__(self):
        if self.mode not in ("file", "remote"):
            raise ValueError(f"unknown provider mode: {self.mode!r}")
        for name in ("model", "path", "endpoint", "cache_dir"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name != "model")):
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.mode == "file" and not self.path:
            raise ValueError("file provider requires a path")
        if self.mode == "remote" and not self.endpoint:
            raise ValueError("remote provider requires an endpoint")
        for name, least in (("batch_size", 1), ("max_retries", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        # requests cannot schedule an infinite timeout, and fails every POST
        if not (_is_number(self.timeout) and 0 < self.timeout < math.inf):
            raise ValueError("timeout must be a finite positive number")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_bow_text(bag: Sequence[str | PredictedObject] | InternedTruth
                    | InternedObjects) -> str:
    """Join a label bag into one cleaned, space-separated string.

    Accepts an interned side, truth labels in file order, or PredictedObject
    entries in post-top-k order; object synonyms keep their listed order.
    Raw bags are interned first, so every text is read off a Vocabulary.
    """
    if not isinstance(bag, (InternedTruth, InternedObjects)):
        bag = intern_bag(bag, TEXT_ONLY)
    words = [word for word in map(bag.vocab.cleaned, bag.raw) if word]
    if not words:
        raise EmptyBagError("no renderable labels in bag")
    return " ".join(words)


def _vector(value) -> np.ndarray | None:
    """``value`` as a sentence vector, a 1-D float64 array of finite numbers
    with a non-zero norm, which ``cosine`` needs; None when it is not one."""
    try:
        vector = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    finite = vector.ndim == 1 and np.isfinite(vector).all()
    # cosine divides by the root of v.v, so a square that underflows fails too
    return vector if finite and float(np.dot(vector, vector)) > 0.0 else None


def _load_precomputed(path: str, model: str) -> dict[str, np.ndarray | None]:
    """The model's digest -> vector table; None marks a vector ``_vector``
    rejects, which is an error only when its digest is asked for."""
    def parse(line: str) -> tuple[str, np.ndarray | None] | None:
        record = _parse_json(line)
        digest = record.get("digest") if isinstance(record, dict) else None
        if not isinstance(digest, str):  # a table key, so never a list
            raise CacheCorruptError("unreadable vector record")
        if record.get("model") != model:
            return None
        return digest, _vector(record.get("vector"))

    return dict(entry for entry in read_lines(path, parse) if entry)


class _DiskCache:
    """One JSON file per (model, digest), written by ``write_entry``: a reader
    sees a whole entry or none, and two writers of one entry both succeed."""

    def __init__(self, root: str, model: str):
        self._dir = Path(root) / hashlib.sha256(model.encode("utf-8")).hexdigest()[:16]
        self._dir.mkdir(parents=True, exist_ok=True)

    def get(self, digest: str) -> np.ndarray | None:
        path = self._dir / f"{digest}.json"
        if not path.exists():
            return None
        try:
            entry = _parse_json(path.read_bytes())
        except ParseError:
            entry = None
        vector = _vector(entry.get("vector")) if isinstance(entry, dict) else None
        if vector is None:
            raise CacheCorruptError(f"unreadable cache entry: {path}")
        return vector

    def put(self, digest: str, vector: np.ndarray) -> None:
        write_entry(self._dir / f"{digest}.json",
                    json.dumps({"vector": [float(x) for x in vector]}).encode("utf-8"))


def _post_json(endpoint: str, payload: dict, timeout: float) -> dict:
    import requests

    response = requests.post(endpoint, json=payload, timeout=timeout)
    response.raise_for_status()
    return _parse_json(response.content)


def _fetch_remote(config: ProviderConfig, wanted: dict[str, str],
                  post: Callable[[str, dict, float], dict],
                  sleep: Callable[[float], None]) -> dict[str, np.ndarray]:
    """Vectors of the ``wanted`` digest -> text entries, from cache or endpoint."""
    endpoint = config.endpoint
    cache = _DiskCache(config.cache_dir, config.model) if config.cache_dir else None
    resolved: dict[str, np.ndarray] = {}
    missing: list[tuple[str, str]] = []
    for digest, text in wanted.items():
        cached = cache.get(digest) if cache else None
        if cached is not None:
            resolved[digest] = cached
        else:
            missing.append((digest, text))
    for start in range(0, len(missing), config.batch_size):
        batch = missing[start:start + config.batch_size]
        payload = {"model": config.model, "texts": [text for _, text in batch]}
        reply = None
        for attempt in range(config.max_retries + 1):
            try:
                reply = post(endpoint, payload, config.timeout)
                break
            except Exception as exc:
                if attempt == config.max_retries:
                    raise ProviderUnavailableError(
                        f"provider at {endpoint} failed after "
                        f"{config.max_retries + 1} attempts: {exc}") from exc
                sleep(0.25 * 2 ** attempt)
        vectors = reply.get("vectors") if isinstance(reply, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(batch):
            raise ProviderUnavailableError(
                f"provider returned {0 if not isinstance(vectors, list) else len(vectors)}"
                f" vectors for {len(batch)} texts")
        for (digest, _), vector in zip(batch, vectors):
            arr = _vector(vector)
            if arr is None:
                raise ProviderUnavailableError(
                    f"provider at {endpoint} returned a vector that is not a 1-D "
                    f"array of finite numbers with a non-zero norm")
            resolved[digest] = arr
            if cache:
                cache.put(digest, arr)
    return resolved


def fetch_embeddings(config: ProviderConfig, texts: Sequence[str], *,
                     post: Callable[[str, dict, float], dict] = _post_json,
                     sleep: Callable[[float], None] = time.sleep) -> list[np.ndarray]:
    """One vector per input text, from the provider's digest -> vector table."""
    if not texts:
        raise ValueError("texts must be non-empty")
    digests = [text_digest(text) for text in texts]
    if config.mode == "file":
        table = _load_precomputed(config.path, config.model)
    else:
        table = _fetch_remote(config, dict(zip(digests, texts)), post, sleep)
    out = []
    for digest in digests:
        if digest not in table:
            raise ProviderUnavailableError(
                f"precomputed file {config.path} lacks digest {digest}"
                f" for model {config.model!r}")
        vector = table[digest]
        if vector is None:  # only a precomputed file keeps a rejected vector
            raise CacheCorruptError(
                f"{config.path}: vector for digest {digest} is not a 1-D array "
                f"of finite numbers with a non-zero norm")
        out.append(vector)
    dims = {v.shape for v in out}
    if len(dims) > 1:
        raise DimensionInconsistentError(
            f"{config.mode} provider vector lengths differ: {sorted(dims)}")
    return out
