"""Evaluation orchestration and optional prediction fetching.

Fetching and evaluating are separate phases: ``fetch_predictions`` talks to a
rate-limited endpoint and fills a persistent response cache, while
``run_evaluation`` is pure file-in, report-out and never touches the network.
Images are processed in natural ascending image_id order ("2" before "10"),
one at a time.

Scoring interns every label of the run once, into a Vocabulary, before any
image is scored; each image's truth side, and its WMD nBOW, is then built
once and shared by every API, and each (api, image) is scored at every k by
one kernel call. The kernel builds that image's objects, similarity grid
and WMD cost block once, at the largest k, and each k reads their prefix.
Every metric family, WMD and the sentence text included, reads those
interned sides; the per-(api, k) reductions (means, the confusion ledger,
``dataset_wmd``) run after the kernel.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import report as reporting
from .bipartition import (
    ConfusionLedger,
    ExampleScores,
    MatchResult,
    exact_intersection,
    label_based_scores,
    mean_scores,
    scores_from_counts,
)
from .embeddings import (
    Vocabulary,
    clean_labels,
    cosine,
    load_model,
    wanted_tokens,
)
from .errors import (
    AuthMissingError,
    BadConfidenceError,
    CacheCorruptError,
    DataError,
    DuplicateImageError,
    EmptyBagError,
    EmptyDatasetError,
    EvaluationError,
    QuotaExhaustedError,
    UpstreamError,
)
from .labelset import (
    GroundTruthRecord,
    InternedObjects,
    InternedTruth,
    PredictedObject,
    PredictionRecord,
    intern_objects,
    intern_truth,
    object_stats,
    prediction_from_json,
    prediction_to_json,
    read_ground_truth,
    read_predictions,
    top_k,
)
from .semantic import DEFAULT_THRESHOLD, semantic_intersection, similarity_matrix
from .sentence import ProviderConfig, fetch_embeddings, render_bow_text
from .wmd import NBow, build_nbow, dataset_wmd, prefix_wmd

logger = logging.getLogger(__name__)

_NATURAL_CHUNKS = re.compile(r"(\d+)")


def natural_key(value: str):
    """Sort key ordering embedded integers numerically: '2.jpg' < '10.jpg'."""
    return tuple(
        (0, int(chunk), "") if chunk.isdigit() else (1, 0, chunk)
        for chunk in _NATURAL_CHUNKS.split(value)
    )


# -- fetching ----------------------------------------------------------------

@dataclass(frozen=True)
class ApiClientSpec:
    """One upstream classifier endpoint plus its response-shape adapter.

    The *_path fields are dot-separated key paths into the JSON response:
    objects_path locates the predicted-object array, labels_path the label
    string or array inside each object, confidence_path (optional) the score.
    """

    api_id: str
    endpoint: str
    auth_env_var: str = ""
    requests_per_period: int = 60
    period_seconds: float = 60.0
    max_total: int | None = None
    objects_path: str = "objects"
    labels_path: str = "labels"
    confidence_path: str | None = "confidence"

    def __post_init__(self):
        if not (all(isinstance(value, str) for value in (
                self.api_id, self.endpoint, self.auth_env_var, self.objects_path,
                self.labels_path)) and isinstance(self.confidence_path, (str, type(None)))):
            raise ValueError("api_id, endpoint, auth_env_var and the *_path fields "
                             "must be strings")
        if self.requests_per_period < 1:
            raise ValueError("requests_per_period must be >= 1")
        if self.period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        if self.max_total is not None and not (
                isinstance(self.max_total, int) and self.max_total >= 0):
            raise ValueError("max_total must be a non-negative integer")

    @classmethod
    def from_json(cls, payload: Mapping) -> "ApiClientSpec":
        return cls(
            api_id=payload["api_id"],
            endpoint=payload["endpoint"],
            auth_env_var=payload.get("auth_env_var", ""),
            requests_per_period=payload.get("requests_per_period", 60),
            period_seconds=payload.get("period_seconds", 60.0),
            max_total=payload.get("max_total"),
            objects_path=payload.get("objects_path", "objects"),
            labels_path=payload.get("labels_path", "labels"),
            confidence_path=payload.get("confidence_path", "confidence"),
        )


@dataclass(frozen=True)
class ImageRef:
    image_id: str
    path: str

    def load_bytes(self) -> bytes:
        return Path(self.path).read_bytes()


class SlidingWindowLimiter:
    """Allows at most ``limit`` acquisitions in any window of ``period``."""

    def __init__(self, limit: int, period: float,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self._limit = limit
        self._period = period
        self._clock = clock
        self._sleep = sleep
        self._issued: deque[float] = deque()

    def acquire(self) -> float:
        now = self._clock()
        while self._issued and self._issued[0] <= now - self._period:
            self._issued.popleft()
        if len(self._issued) >= self._limit:
            wait = self._issued[0] + self._period - now
            if wait > 0:
                self._sleep(wait)
            now = self._clock()
            while self._issued and self._issued[0] <= now - self._period:
                self._issued.popleft()
        self._issued.append(now)
        return now


def _dig(payload, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            raise UpstreamError(f"response lacks field path {dotted!r}")
        value = value[part]
    return value


def normalize_response(spec: ApiClientSpec, image_id: str,
                       payload: Mapping) -> PredictionRecord:
    """Map a raw endpoint response onto a PredictionRecord via field paths."""
    raw_objects = _dig(payload, spec.objects_path)
    if not isinstance(raw_objects, list):
        raise UpstreamError(f"field {spec.objects_path!r} is not an array")
    objects = []
    for entry in raw_objects:
        labels = _dig(entry, spec.labels_path)
        if isinstance(labels, str):
            labels = [labels]
        if not isinstance(labels, list) or not labels:
            raise UpstreamError(f"field {spec.labels_path!r} is not a label list")
        confidence = None
        if spec.confidence_path is not None:
            try:
                raw_confidence = _dig(entry, spec.confidence_path)
            except UpstreamError:
                raw_confidence = None  # absent confidence ranks below present ones
            if raw_confidence is not None:
                try:
                    confidence = float(raw_confidence)
                except (TypeError, ValueError):
                    raise UpstreamError(
                        f"confidence field is not numeric: {raw_confidence!r}") \
                        from None
                if not (0.0 <= confidence <= 1.0):
                    raise BadConfidenceError(confidence)
        objects.append(PredictedObject(synonyms=tuple(labels), confidence=confidence))
    return PredictionRecord(image_id=image_id, api_id=spec.api_id,
                            objects=tuple(objects))


def _requests_transport(url: str, headers: Mapping[str, str], body: bytes,
                        timeout: float = 30.0) -> tuple[int, bytes]:
    import requests

    response = requests.post(url, headers=dict(headers), data=body, timeout=timeout)
    return response.status_code, response.content


_RETRYABLE = {429, 500, 502, 503, 504}
_FETCH_ATTEMPTS = 3


def fetch_predictions(spec: ApiClientSpec, refs: Sequence[ImageRef],
                      cache_dir: str | Path, *,
                      transport: Callable[..., tuple[int, bytes]] | None = None,
                      clock: Callable[[], float] = time.monotonic,
                      sleep: Callable[[float], None] = time.sleep,
                      env: Mapping[str, str] | None = None) -> list[PredictionRecord]:
    """Fetch (or reuse cached) predictions for every image reference.

    The cache holds one normalized record per (api_id, image digest); cached
    images cost zero upstream requests and do not count against max_total.
    Transient failures (connection errors, 429, 5xx) are retried up to three
    attempts with exponential backoff.
    """
    env = os.environ if env is None else env
    if spec.auth_env_var and not env.get(spec.auth_env_var):
        raise AuthMissingError(
            f"environment variable {spec.auth_env_var!r} is required but not set")
    transport = transport or _requests_transport
    limiter = SlidingWindowLimiter(spec.requests_per_period, spec.period_seconds,
                                   clock=clock, sleep=sleep)
    headers = {"Content-Type": "application/octet-stream"}
    if spec.auth_env_var:
        headers["Authorization"] = f"Bearer {env[spec.auth_env_var]}"
    cache_root = Path(cache_dir) / spec.api_id
    cache_root.mkdir(parents=True, exist_ok=True)
    issued = 0
    records: list[PredictionRecord] = []
    for ref in refs:
        body = ref.load_bytes()
        digest = hashlib.sha256(body).hexdigest()
        cache_path = cache_root / f"{digest}.json"
        if cache_path.exists():
            try:
                cached = prediction_from_json(cache_path.read_text(encoding="utf-8"))
            except (DataError, UnicodeDecodeError) as exc:
                raise CacheCorruptError(
                    f"unreadable cache entry: {cache_path}: {exc}") from None
            # The entry is keyed by image bytes, which other ids may share.
            records.append(replace(cached, image_id=ref.image_id, api_id=spec.api_id))
            continue
        if spec.max_total is not None and issued + 1 > spec.max_total:
            raise QuotaExhaustedError(
                f"request #{issued + 1} for {spec.api_id} exceeds "
                f"max_total={spec.max_total}")
        issued += 1
        record = _fetch_one(spec, ref, body, headers, transport, limiter, sleep)
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(prediction_to_json(record), encoding="utf-8")
        tmp.replace(cache_path)
        records.append(record)
    return records


def _fetch_one(spec, ref, body, headers, transport, limiter, sleep) -> PredictionRecord:
    last_error: Exception | None = None
    for attempt in range(_FETCH_ATTEMPTS):
        limiter.acquire()
        try:
            status, content = transport(spec.endpoint, headers, body)
        except Exception as exc:
            last_error = exc
        else:
            if status == 200:
                try:
                    payload = json.loads(content)
                except json.JSONDecodeError:
                    raise UpstreamError(
                        f"{spec.api_id}: non-JSON response for {ref.image_id}",
                        status=status) from None
                return normalize_response(spec, ref.image_id, payload)
            if status not in _RETRYABLE:
                raise UpstreamError(
                    f"{spec.api_id}: status {status} for {ref.image_id}",
                    status=status)
            last_error = UpstreamError(f"status {status}", status=status)
        if attempt < _FETCH_ATTEMPTS - 1:
            sleep(0.5 * 2 ** attempt)
    raise UpstreamError(
        f"{spec.api_id}: {ref.image_id} failed after {_FETCH_ATTEMPTS} attempts: "
        f"{last_error}")


# -- evaluation --------------------------------------------------------------

@dataclass
class RunConfig:
    ground_truth_path: str
    prediction_paths: tuple[str, ...]
    embeddings_path: str
    embeddings_format: str = "auto"
    top_ks: tuple[int, ...] = (1, 3, 5)
    threshold: float = DEFAULT_THRESHOLD
    workers: int = 1  # validated for existing configs; scoring runs in one thread
    include_semantic: bool = True
    include_label_based: bool = True
    include_wmd: bool = True
    sentence: ProviderConfig | None = None
    output_path: str = "report"
    output_format: str = "json_lines"

    def __post_init__(self):
        if not self.top_ks or any(isinstance(k, bool) or not isinstance(k, int) or k < 1
                                  for k in self.top_ks):
            raise ValueError(f"top_ks must be non-empty integers, each >= 1, "
                             f"got {list(self.top_ks)!r}")
        if len(set(self.top_ks)) != len(self.top_ks):
            raise ValueError(f"top_ks must be distinct, got {list(self.top_ks)!r}")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        sentence = payload.get("sentence")
        return cls(
            ground_truth_path=payload["ground_truth"],
            prediction_paths=tuple(payload["predictions"]),
            embeddings_path=payload["embeddings"],
            embeddings_format=payload.get("embeddings_format", "auto"),
            top_ks=tuple(payload.get("top_ks", (1, 3, 5))),
            threshold=payload.get("threshold", DEFAULT_THRESHOLD),
            workers=payload.get("workers", 1),
            include_semantic=payload.get("semantic", True),
            include_label_based=payload.get("label_based", True),
            include_wmd=payload.get("wmd", True),
            sentence=ProviderConfig(**sentence) if sentence else None,
            output_path=payload.get("output", {}).get("path", "report"),
            output_format=payload.get("output", {}).get("format", "json_lines"),
        )


@dataclass(frozen=True)
class _Scored:
    """One (api, k, image) unit as the per-image kernel leaves it."""

    truth: InternedTruth
    objects: InternedObjects
    match: MatchResult
    exact: ExampleScores
    semantic: ExampleScores | None
    wmd: float | None  # None when WMD is off or a side is empty


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _annotate(exc: EvaluationError, api_id: str, image_id: str) -> None:
    """Prefix the failing unit to the error's message, keeping the error."""
    exc.args = (f"{api_id}/{image_id}: {exc}",)


def run_evaluation(config: RunConfig) -> reporting.MetricReport:
    """Score every api_id x k combination and assemble the metric report.

    Output is deterministic: images are reduced in natural ascending
    image_id order, and the provenance block echoes only evaluation-relevant
    settings. The records are read before the model, which keeps only the
    rows the run's labels may resolve to. Every truth record is interned
    once; one none of whose labels survives cleaning is skipped and counted
    as empty truth.
    """
    truth_records = read_ground_truth(config.ground_truth_path)
    by_api: dict[str, dict[str, PredictionRecord]] = {}
    for path in config.prediction_paths:
        for record in read_predictions(path):
            per_image = by_api.setdefault(record.api_id, {})
            if record.image_id in per_image:
                raise DuplicateImageError(record.image_id)
            per_image[record.image_id] = record

    if not by_api:
        raise EmptyDatasetError("no prediction records found")

    cleaned = clean_labels(_run_labels(truth_records, by_api.values()))
    store = load_model(config.embeddings_path, config.embeddings_format,
                       wanted=wanted_tokens(cleaned.values()))
    provenance = {
        "ground_truth_digest": _sha256_file(config.ground_truth_path),
        "prediction_digests": {str(p): _sha256_file(p)
                               for p in config.prediction_paths},
        "embeddings_digest": store.digest,
        "config": {
            "top_ks": list(config.top_ks),
            "threshold": config.threshold,
            "semantic": config.include_semantic,
            "label_based": config.include_label_based,
            "wmd": config.include_wmd,
            "sentence_model": config.sentence.model if config.sentence else None,
        },
    }

    vocab = Vocabulary(store, cleaned)
    truths: dict[str, InternedTruth] = {}
    empty_truth: set[str] = set()
    for record in truth_records:
        truth = intern_truth(record.labels, vocab)
        if truth.labels:
            truths[record.image_id] = truth
        else:
            empty_truth.add(record.image_id)
    if empty_truth:
        logger.warning("skipping %d ground-truth records with no usable labels",
                       len(empty_truth))
    eval_ids = {api_id: sorted((i for i in per_image if i in truths),
                               key=natural_key)
                for api_id, per_image in by_api.items()}
    for api_id in sorted(by_api):
        if not eval_ids[api_id]:
            raise EmptyDatasetError(f"{api_id}: no images overlap the ground truth")
    scored = _score_units(
        [(api_id, k, image_id) for api_id in sorted(by_api)
         for image_id in eval_ids[api_id] for k in config.top_ks],
        truths, by_api, config)
    sentence = (_sentence_mean(scored, eval_ids, truths, config)
                if config.sentence is not None else {})

    rows: list[reporting.ReportRow] = []
    for api_id in sorted(by_api):
        per_image = by_api[api_id]
        skip_missing_truth = sum(1 for i in per_image
                                 if i not in truths and i not in empty_truth)
        skip_empty_truth = sum(1 for i in per_image if i in empty_truth)
        # the label space is cleaned once per API; each k's ledger starts empty
        blank_ledger = (ConfusionLedger(sorted({label for image_id in eval_ids[api_id]
                                                for label in truths[image_id].labels}))
                        if config.include_label_based else None)
        for k in config.top_ks:
            results = [scored[api_id, k, image_id] for image_id in eval_ids[api_id]]
            # each score dataclass's fields, in order, are its columns
            cells = dict(vars(mean_scores([r.exact for r in results])))
            if config.include_semantic:
                semantic_mean = mean_scores([r.semantic for r in results])
                cells.update((f"{name}_semantic", value)
                             for name, value in vars(semantic_mean).items())
            if config.include_label_based:
                ledger = blank_ledger.fresh()
                for r in results:
                    ledger.accumulate(r.truth, r.objects, r.match)
                cells.update(vars(label_based_scores(ledger)))
            skips = {"missing_truth": skip_missing_truth,
                     "empty_truth": skip_empty_truth}
            if config.include_wmd:
                try:
                    wmd_result = dataset_wmd([r.wmd for r in results])
                except EvaluationError as exc:
                    _annotate(exc, api_id, "<dataset>")
                    raise
                cells["wmd"] = wmd_result.value
                skips["wmd_empty_prediction"] = wmd_result.skipped
            if config.sentence is not None:
                (cells["sentence_similarity"],
                 skips["sentence_empty_prediction"]) = sentence[api_id, k]
            unknown_rate, labels_per_object = object_stats(
                [r.objects for r in results])
            rows.append(reporting.ReportRow(
                api_id=api_id, k=k, cells=cells,
                extras={"unknown_object_rate": unknown_rate,
                        "mean_labels_per_object": labels_per_object},
                skips=skips))

    columns = reporting.columns_for(rows[0].cells.keys())
    return reporting.MetricReport(columns=columns, rows=rows,
                                  provenance=provenance)


def _run_labels(truth_records: Iterable[GroundTruthRecord],
                predictions: Iterable[Mapping[str, PredictionRecord]]) -> Iterator[str]:
    """Every raw label the run may score: truth labels and object synonyms."""
    for truth in truth_records:
        yield from truth.labels
    for per_image in predictions:
        for record in per_image.values():
            for obj in record.objects:
                yield from obj.synonyms


def _score_image(truth: InternedTruth, truth_nbow: NBow | None,
                 record: PredictionRecord, ks: Sequence[int],
                 config: RunConfig) -> list[_Scored]:
    """The per-image kernel: one (api, image) at each k of ``ks``, in order.

    The objects are interned, and the similarity grid and the WMD cost
    block built, once, at the largest k; each k reads their prefix, since
    ``top_k`` is a stable sort. ``truth_nbow`` is the truth side's WMD bag,
    built once per image; None turns WMD off.
    """
    objects = intern_objects(top_k(record, max(ks)).objects, truth.vocab)
    grid = similarity_matrix(truth, objects) if config.include_semantic else None
    prefixes = [objects.prefix(k) for k in ks]
    distances = ([None] * len(ks) if truth_nbow is None else
                 prefix_wmd(truth_nbow, [side.rows for side in prefixes], truth.vocab))
    scored: list[_Scored] = []
    for k, objects_k, distance in zip(ks, prefixes, distances):
        n_truth, n_objects = len(truth.labels), len(objects_k)
        match = exact_intersection(truth, objects_k)
        semantic = None
        if grid is not None:
            semantic_match = semantic_intersection(grid.prefix(k), config.threshold)
            semantic = scores_from_counts(semantic_match.matched, n_truth, n_objects)
        scored.append(_Scored(truth=truth, objects=objects_k, match=match,
                              exact=scores_from_counts(match.matched, n_truth,
                                                       n_objects),
                              semantic=semantic, wmd=distance))
    return scored


def _score_units(units: Sequence[tuple[str, int, str]],
                 truths: Mapping[str, InternedTruth],
                 by_api: Mapping[str, Mapping[str, PredictionRecord]],
                 config: RunConfig) -> dict[tuple[str, int, str], _Scored]:
    """Score (api_id, k, image_id) units, keyed by unit.

    The units of one (api, image) go to the per-image kernel together, so
    it interns, grids and costs that image's objects once for all their ks.
    Each image's truth nBOW is built once and shared by every API.
    """
    ks_of: dict[tuple[str, str], list[int]] = {}
    for api_id, k, image_id in units:
        ks_of.setdefault((api_id, image_id), []).append(k)
    truth_nbows: dict[str, NBow | None] = {}
    scored: dict[tuple[str, int, str], _Scored] = {}
    for (api_id, image_id), ks in ks_of.items():
        truth = truths[image_id]
        if image_id not in truth_nbows:
            truth_nbows[image_id] = (build_nbow(truth.bag)
                                     if config.include_wmd and truth.bag else None)
        try:
            results = _score_image(truth, truth_nbows[image_id],
                                   by_api[api_id][image_id], ks, config)
        except EvaluationError as exc:
            _annotate(exc, api_id, image_id)
            raise
        scored.update(((api_id, k, image_id), result)
                      for k, result in zip(ks, results))
    return scored


def _sentence_mean(scored: Mapping[tuple[str, int, str], _Scored],
                   eval_ids: Mapping[str, Sequence[str]],
                   truths: Mapping[str, InternedTruth],
                   config: RunConfig) -> dict[tuple[str, int], tuple[float, int]]:
    """Each (api, k)'s mean sentence similarity and empty-prediction skips.

    Truth texts are rendered once; one provider call embeds every distinct text.
    """
    truth_texts = {image_id: render_bow_text(truth) for image_id, truth in truths.items()}
    rows: dict[str, int] = {}  # distinct text -> its vector's index
    pairs: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for api_id in sorted(eval_ids):
        for k in config.top_ks:
            cell = pairs[api_id, k] = []
            for image_id in eval_ids[api_id]:
                try:
                    predicted = render_bow_text(scored[api_id, k, image_id].objects)
                except EmptyBagError:
                    continue
                cell.append((rows.setdefault(truth_texts[image_id], len(rows)),
                             rows.setdefault(predicted, len(rows))))
            if not cell:
                raise EmptyDatasetError(f"{api_id}: no prediction texts to embed")
    vectors = fetch_embeddings(config.sentence, list(rows))
    return {(api_id, k): (sum(cosine(vectors[a], vectors[b]) for a, b in cell)
                          / len(cell), len(eval_ids[api_id]) - len(cell))
            for (api_id, k), cell in pairs.items()}
