"""Evaluation orchestration and optional prediction fetching.

Fetching and evaluating are separate phases: ``fetch_predictions`` talks to a
rate-limited endpoint and fills a persistent response cache, while
``run_evaluation`` is pure file-in, report-out and never touches the network.
Images are processed in natural ascending image_id order ("2" before "10"),
one at a time.

Each prediction record keeps only its top max(k) objects from the read on,
the only ones scored. Scoring interns every label of the run once, into a
Vocabulary, before any image is scored; each image's truth side, and its WMD
nBOW, is then built once and shared by every API, and each (api, image) is
scored at every k by one kernel call. The kernel builds that image's
objects, exact match, similarity grid and WMD cost block once, at the
largest k, and each k reads their prefix.
Every metric family, WMD and the sentence text included, reads those
interned sides. Reductions happen as each image is scored: the kernel appends
each k's results to one cell per (api, k), which the report reads once.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import time
from collections import deque
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, groupby
from operator import add
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import report as reporting
from .bipartition import (
    ConfusionLedger,
    ExampleScores,
    exact_intersection,
    label_based_scores,
    mean_scores,
    scores_from_counts,
)
from .embeddings import (
    MODEL_FORMATS,
    Vocabulary,
    clean_labels,
    cosine,
    load_model,
    sha256,
    wanted_tokens,
    write_entry,
)
from .errors import (
    AuthMissingError,
    CacheCorruptError,
    DataError,
    EmptyBagError,
    EmptyDatasetError,
    EvaluationError,
    ParseError,
    QuotaExhaustedError,
    UpstreamError,
)
from .labelset import (
    InternedTruth,
    PredictionRecord,
    _is_int,
    _is_number,
    _parse_json,
    _parse_object,
    _raw_labels,
    _require_id,
    intern_objects,
    intern_truth,
    object_counts,
    object_stats,
    prediction_from_json,
    prediction_to_json,
    read_ground_truth,
    read_predictions,
)
from .semantic import DEFAULT_THRESHOLD, semantic_intersection, similarity_matrix
from .sentence import ProviderConfig, fetch_embeddings, render_bow_text
from .wmd import NBow, build_nbow, cost_matrix, dataset_wmd, solve_transport

logger = logging.getLogger(__name__)

_NATURAL_CHUNKS = re.compile(r"(\d+)")


def natural_key(value: str):
    """Sort key ordering embedded integers numerically: '2.jpg' < '10.jpg'."""
    return tuple(
        (0, int(chunk), "") if chunk.isdigit() else (1, 0, chunk)
        for chunk in _NATURAL_CHUNKS.split(value)
    )


# -- fetching ----------------------------------------------------------------

def _from_json(cls, payload, what: str, prefix: str = ""):
    """A ``cls`` dataclass from ``payload``, which must be a JSON object
    (``what`` names it). A field without a default must be present, else
    KeyError names it after ``prefix``; an absent field keeps its default,
    and a key that names no field is ignored."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} must hold a JSON object")
    for field in fields(cls):
        if field.default is MISSING and field.name not in payload:
            raise KeyError(prefix + field.name)
    return cls(**{field.name: payload[field.name] for field in fields(cls)
                  if field.name in payload})


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
        _require_id(self.api_id, "api_id")  # it names every record fetched
        # it also names the cache directory, which it must not leave or replace
        if self.api_id in (".", "..") or any(c in self.api_id for c in "/\\\0"):
            raise ValueError(f"api_id must name one directory: not '.' or '..', "
                             f"and no '/', '\\' or NUL, got {self.api_id!r}")
        if not (_is_int(self.requests_per_period) and self.requests_per_period >= 1):
            raise ValueError("requests_per_period must be >= 1")
        # an infinite period would make the limiter sleep forever, which sleep refuses
        if not (_is_number(self.period_seconds) and 0 < self.period_seconds < math.inf):
            raise ValueError("period_seconds must be a finite positive number")
        if self.max_total is not None and not (
                _is_int(self.max_total) and self.max_total >= 0):
            raise ValueError("max_total must be a non-negative integer")

    @classmethod
    def from_json(cls, payload: Mapping) -> "ApiClientSpec":
        """A spec from its JSON object, read by ``_from_json``."""
        return _from_json(cls, payload, "a spec file")


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
        self._issued: deque[float] = deque(maxlen=limit)  # the last `limit` grants

    def acquire(self) -> float:
        """Grant once the oldest of the last ``limit`` grants is ``period``
        old; returns the grant's time."""
        now = self._clock()
        if len(self._issued) == self._limit:
            wait = self._issued[0] + self._period - now
            if wait > 0:
                self._sleep(wait)
                now = self._clock()
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
    """Map a raw endpoint response onto a PredictionRecord via field paths;
    an object that breaks the predictions-file object rule is an UpstreamError."""
    raw_objects = _dig(payload, spec.objects_path)
    if not isinstance(raw_objects, list):
        raise UpstreamError(f"field {spec.objects_path!r} is not an array")
    objects = []
    for entry in raw_objects:
        labels = _dig(entry, spec.labels_path)
        mapped = {"labels": [labels] if isinstance(labels, str) else labels}
        if spec.confidence_path is not None:
            try:
                mapped["confidence"] = _dig(entry, spec.confidence_path)
            except UpstreamError:
                pass  # an absent confidence ranks below present ones
        try:
            objects.append(_parse_object(mapped))
        except ParseError as exc:
            raise UpstreamError(f"{spec.api_id}: bad object for {image_id}: {exc}") \
                from None
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
    attempts with exponential backoff. A 200 body that is not JSON, or whose
    objects break the predictions-file object rule, is an UpstreamError and is
    not cached; a cache entry that fails the predictions-file codec is a
    CacheCorruptError naming it.
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
                cached = prediction_from_json(cache_path.read_bytes())
            except DataError as exc:
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
        write_entry(cache_path, prediction_to_json(record).encode("utf-8"))
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
                    payload = _parse_json(content)
                except ParseError:
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

#: The optional keys of a config file, and the RunConfig fields they set.
_CONFIG_FIELDS = {"embeddings_format": "embeddings_format", "top_ks": "top_ks",
                  "threshold": "threshold", "workers": "workers",
                  "semantic": "include_semantic", "label_based": "include_label_based",
                  "wmd": "include_wmd", "sentence": "sentence"}


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
    # each prediction path as the config file or the flags spell it, which
    # keys its digest in the provenance; None: the paths themselves
    prediction_names: tuple[str, ...] | None = None

    def __post_init__(self):
        """Check every setting where it enters, before any file is read.

        A list of ``top_ks`` or ``prediction_paths`` becomes a tuple.
        """
        for name in ("ground_truth_path", "embeddings_path", "output_path"):
            if not isinstance(getattr(self, name), (str, os.PathLike)):
                raise ValueError(f"{name} must be a path, got {getattr(self, name)!r}")
        if not (isinstance(self.prediction_paths, (list, tuple)) and all(
                isinstance(path, (str, os.PathLike)) for path in self.prediction_paths)):
            raise ValueError(f"prediction_paths must be a list of paths, "
                             f"got {self.prediction_paths!r}")
        self.prediction_paths = tuple(self.prediction_paths)
        self.prediction_names = tuple(self.prediction_paths if self.prediction_names is None
                                      else self.prediction_names)
        if len(self.prediction_names) != len(self.prediction_paths):
            raise ValueError("prediction_names must name each of prediction_paths")
        if not isinstance(self.top_ks, (list, tuple)):
            raise ValueError(f"top_ks must be a list of integers, got {self.top_ks!r}")
        self.top_ks = tuple(self.top_ks)
        if not self.top_ks or not all(_is_int(k) and k >= 1 for k in self.top_ks):
            raise ValueError(f"top_ks must be non-empty integers, each >= 1, "
                             f"got {list(self.top_ks)!r}")
        if len(set(self.top_ks)) != len(self.top_ks):
            raise ValueError(f"top_ks must be distinct, got {list(self.top_ks)!r}")
        if not _is_number(self.threshold):
            raise ValueError(f"threshold must be a number, got {self.threshold!r}")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")
        if not _is_int(self.workers):
            raise ValueError(f"workers must be an integer, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in ("include_semantic", "include_label_based", "include_wmd"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"got {getattr(self, name)!r}")
        for name, known in (("embeddings_format", MODEL_FORMATS),
                            ("output_format", reporting.REPORT_FORMATS)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {list(known)}, "
                                 f"got {getattr(self, name)!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """A config from its JSON file; an absent key keeps its field's default.

        A relative path the file names is taken from the file's directory, so
        a config named without one keeps its paths as written.
        """
        payload = _parse_json(Path(path).read_bytes())
        if not isinstance(payload, dict):
            raise ValueError("a config file must hold a JSON object")
        base = os.path.dirname(path)

        def beside(value):  # what is not a path is left for the checks to name
            return os.path.join(base, value) if isinstance(value, str) and value else value

        settings = {field: payload[key] for key, field in _CONFIG_FIELDS.items()
                    if key in payload}
        if settings.get("sentence") is not None:  # null turns the provider off
            block = settings["sentence"]
            if isinstance(block, Mapping):
                block = {key: beside(value) if key in ("path", "cache_dir") else value
                         for key, value in block.items()}
            settings["sentence"] = _from_json(ProviderConfig, block,
                                              "a sentence block", "sentence.")
        output = payload.get("output", {})
        if not isinstance(output, dict):
            raise ValueError(f"output must be an object, got {output!r}")
        if "path" in output:
            settings["output_path"] = beside(output["path"])
        if "format" in output:
            settings["output_format"] = output["format"]
        truth, predictions, model = (payload[key] for key in
                                     ("ground_truth", "predictions", "embeddings"))
        names = None
        if isinstance(predictions, list):
            names, predictions = predictions, list(map(beside, predictions))
        return cls(ground_truth_path=beside(truth), prediction_paths=predictions,
                   embeddings_path=beside(model), prediction_names=names, **settings)


@dataclass(slots=True)
class _Cell:
    """One (api, k)'s results, appended by the kernel in natural image order."""

    ledger: ConfusionLedger | None  # None when label-based scoring is off
    exact: list[int] = field(default_factory=list)  # match counts
    semantic: list[int] = field(default_factory=list)  # empty with semantic off
    n_objects: list[int] = field(default_factory=list)
    wmd: list[float | None] = field(default_factory=list)  # None: WMD off or a side empty
    texts: list[str | None] = field(default_factory=list)  # only with a sentence provider
    objects: tuple[int, int, int] = (0, 0, 0)  # the summed ``object_counts``

    def scores(self, matched: Sequence[int], n_truth: Sequence[int]) -> list[ExampleScores]:
        """Each image's example scores, from its match count and set sizes."""
        return list(map(scores_from_counts, matched, n_truth, self.n_objects))


def _annotate(exc: EvaluationError, api_id: str, image_id: str) -> None:
    """Prefix the failing unit to the error's message, keeping the error."""
    exc.args = (f"{api_id}/{image_id}: {exc}",)


def run_evaluation(config: RunConfig) -> reporting.MetricReport:
    """Score every api_id x k combination and assemble the metric report.

    Output is deterministic: images are reduced in natural ascending
    image_id order, and the provenance block echoes only evaluation-relevant
    settings. The records are read before the model, which keeps only the
    rows the run's labels may resolve to. Each prediction record keeps only
    its top max(k) objects, ranked, the only ones ever scored. Every truth
    record is interned once; one none of whose labels survives cleaning is
    skipped and counted as empty truth.
    """
    truth_records = read_ground_truth(config.ground_truth_path)
    by_api: dict[str, dict[str, PredictionRecord]] = {}
    first_file: dict[tuple[str, str], str] = {}
    for path in config.prediction_paths:
        for record in read_predictions(path, first_file, max(config.top_ks)):
            by_api.setdefault(record.api_id, {})[record.image_id] = record

    if not by_api:
        raise EmptyDatasetError("no prediction records found")

    cleaned = clean_labels(_raw_labels(chain(
        truth_records, *(per_image.values() for per_image in by_api.values()))))
    store = load_model(config.embeddings_path, config.embeddings_format,
                       wanted=wanted_tokens(cleaned.values()))
    provenance = {
        "ground_truth_digest": sha256(config.ground_truth_path),
        "prediction_digests": {os.path.normpath(name): sha256(path) for name, path
                               in zip(config.prediction_names, config.prediction_paths)},
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
    cells = _score_units(
        [(api_id, k, image_id) for api_id in sorted(by_api)
         for image_id in eval_ids[api_id] for k in config.top_ks],
        truths, by_api, config)
    sentence = (_sentence_mean(cells, eval_ids, truths, config)
                if config.sentence is not None else {})

    rows: list[reporting.ReportRow] = []
    for api_id in sorted(by_api):
        per_image = by_api[api_id]
        skip_missing_truth = sum(1 for i in per_image
                                 if i not in truths and i not in empty_truth)
        skip_empty_truth = sum(1 for i in per_image if i in empty_truth)
        n_truth = [len(truths[image_id].labels) for image_id in eval_ids[api_id]]
        for k in config.top_ks:
            cell = cells[api_id, k]
            # each score dataclass's fields, in order, are its columns
            values = dict(vars(mean_scores(cell.scores(cell.exact, n_truth))))
            if config.include_semantic:
                semantic_mean = mean_scores(cell.scores(cell.semantic, n_truth))
                values.update((f"{name}_semantic", value)
                              for name, value in vars(semantic_mean).items())
            if config.include_label_based:
                values.update(vars(label_based_scores(cell.ledger)))
            skips = {"missing_truth": skip_missing_truth,
                     "empty_truth": skip_empty_truth}
            if config.include_wmd:
                try:
                    wmd_result = dataset_wmd(cell.wmd)
                except EvaluationError as exc:
                    _annotate(exc, api_id, "<dataset>")
                    raise
                values["wmd"] = wmd_result.value
                skips["wmd_empty_prediction"] = wmd_result.skipped
            if config.sentence is not None:
                (values["sentence_similarity"],
                 skips["sentence_empty_prediction"]) = sentence[api_id, k]
            unknown_rate, labels_per_object = object_stats(*cell.objects)
            rows.append(reporting.ReportRow(
                api_id=api_id, k=k, cells=values,
                extras={"unknown_object_rate": unknown_rate,
                        "mean_labels_per_object": labels_per_object},
                skips=skips))

    columns = reporting.columns_for(rows[0].cells.keys())
    return reporting.MetricReport(columns=columns, rows=rows,
                                  provenance=provenance)


def _score_image(truth: InternedTruth, truth_nbow: NBow | None,
                 record: PredictionRecord, ks: Sequence[int],
                 cells: Sequence[_Cell], config: RunConfig) -> None:
    """The per-image kernel: one (api, image) at each k of ``ks``, in order,
    appended to the cell of that k in ``cells``.

    ``record`` is ``top_k`` of the read record at the largest k. Its objects
    are interned and matched exactly, and the similarity grid and the WMD
    cost block built, once; each k reads their prefix, since ``top_k`` is a
    stable sort and an object's exact match depends only on the objects
    before it. ``truth_nbow`` is the truth side's WMD bag, built once per
    image; None turns WMD off.
    """
    objects = intern_objects(record.objects, truth.vocab)
    grid = similarity_matrix(truth, objects) if config.include_semantic else None
    match = exact_intersection(truth, objects) if grid is None else grid.match
    prefixes = [objects.prefix(k) for k in ks]
    nbows = [None if truth_nbow is None or not side.rows else build_nbow(side.rows)
             for side in prefixes]
    longest = nbows[ks.index(max(ks))]
    block = None if longest is None else cost_matrix(truth_nbow, longest, truth.vocab)
    for k, cell, objects_k, nbow in zip(ks, cells, prefixes, nbows):
        match_k = match.prefix(k)
        cell.exact.append(match_k.matched)
        cell.n_objects.append(len(objects_k))
        if grid is not None:
            cell.semantic.append(
                semantic_intersection(grid.prefix(k), config.threshold).matched)
        cell.wmd.append(None if nbow is None else solve_transport(
            truth_nbow.weights, nbow.weights, block[:, :len(nbow.tokens)]).objective)
        if cell.ledger is not None:
            cell.ledger.accumulate(truth, objects_k, match_k)
        if config.sentence is not None:
            try:
                cell.texts.append(render_bow_text(objects_k))
            except EmptyBagError:
                cell.texts.append(None)
        cell.objects = tuple(map(add, cell.objects, object_counts(objects_k)))


def _score_units(units: Sequence[tuple[str, int, str]],
                 truths: Mapping[str, InternedTruth],
                 by_api: Mapping[str, Mapping[str, PredictionRecord]],
                 config: RunConfig) -> dict[tuple[str, int], _Cell]:
    """Score (api_id, k, image_id) units, in order, into one cell per (api_id, k).

    The units of one (api, image) are adjacent and go to the per-image
    kernel together, so it interns, matches, grids and costs that image's
    objects once for all their ks. Each image's truth nBOW is built once and
    shared by every API.
    """
    spaces: dict[str, set[str]] = {}  # each API's confusion-ledger label space
    for api_id, _, image_id in units:
        spaces.setdefault(api_id, set()).update(truths[image_id].labels)
    # the truths' labels are cleaned and distinct already; each k's ledger starts empty
    blanks = ({api_id: ConfusionLedger._of_cleaned(sorted(space))
               for api_id, space in spaces.items()}
              if config.include_label_based else {})
    cells = {(api_id, k): _Cell(blanks[api_id].fresh() if blanks else None)
             for api_id, k in dict.fromkeys((api_id, k) for api_id, k, _ in units)}
    truth_nbows: dict[str, NBow] = {}
    for (api_id, image_id), group in groupby(units, lambda unit: (unit[0], unit[2])):
        ks = [k for _, k, _ in group]
        truth = truths[image_id]
        if config.include_wmd and image_id not in truth_nbows:
            truth_nbows[image_id] = build_nbow(truth.bag)  # kept truths are never empty
        try:
            _score_image(truth, truth_nbows.get(image_id), by_api[api_id][image_id],
                         ks, [cells[api_id, k] for k in ks], config)
        except EvaluationError as exc:
            _annotate(exc, api_id, image_id)
            raise
    return cells


def _sentence_mean(cells: Mapping[tuple[str, int], _Cell],
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
            pair = pairs[api_id, k] = []
            for image_id, predicted in zip(eval_ids[api_id], cells[api_id, k].texts):
                if predicted is not None:
                    pair.append((rows.setdefault(truth_texts[image_id], len(rows)),
                                 rows.setdefault(predicted, len(rows))))
            if not pair:
                raise EmptyDatasetError(f"{api_id}: no prediction texts to embed")
    vectors = fetch_embeddings(config.sentence, list(rows))
    return {(api_id, k): (sum(cosine(vectors[a], vectors[b]) for a, b in pair)
                          / len(pair), len(eval_ids[api_id]) - len(pair))
            for (api_id, k), pair in pairs.items()}
