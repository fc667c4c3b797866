"""Ground-truth and prediction ingestion, top-k selection, and label bags.

Record files are newline-delimited JSON, one record per line:
ground truth {"image_id": ..., "labels": [...]}, predictions
{"image_id": ..., "api_id": ..., "objects": [{"labels": [...],
"confidence": ...}]} where confidence may be omitted.

Every metric family reads the two sides of a unit through a Vocabulary:
an ``InternedTruth`` per image and an ``InternedObjects`` per (api, image)
at the largest k, whose prefixes serve the smaller ks. The sides hold
cleaned labels and vocabulary rows, never store tokens; their raw labels
give the sentence text through ``Vocabulary.cleaned``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .embeddings import EmbeddingStore, Vocabulary, clean_labels
from .errors import (
    BadConfidenceError,
    DataError,
    DuplicateImageError,
    EmptyInputError,
    ParseError,
)

#: Exact matching and sentence rendering read only the cleaned text, so raw
#: sides are interned for them against a store that resolves nothing.
TEXT_ONLY = EmbeddingStore((), dim=0)


@dataclass(frozen=True)
class GroundTruthRecord:
    image_id: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class PredictedObject:
    """One predicted object carrying interchangeable synonym labels."""

    synonyms: tuple[str, ...]
    confidence: float | None = None


@dataclass(frozen=True)
class PredictionRecord:
    image_id: str
    api_id: str
    objects: tuple[PredictedObject, ...]


def _require(condition: bool, message: str, line_no: int | None) -> None:
    if not condition:
        raise ParseError(message, line_no=line_no)


def _string_list(value, field: str, line_no: int | None) -> tuple[str, ...]:
    _require(isinstance(value, list), f"{field} must be an array", line_no)
    for item in value:
        _require(isinstance(item, str), f"{field} entries must be strings", line_no)
    return tuple(value)


def record_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered non-blank lines of a UTF-8 record file, read as text.

    A line that is not valid UTF-8 is a DataError naming the path and the
    line: undecodable bytes are read as escaped surrogates, which no valid
    UTF-8 decodes to, so such a line fails to encode again.
    """
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{path} line {line_no}: not valid UTF-8 text") from None
            if line.strip():
                yield line_no, line


def _parse_json(text: str, line_no: int | None):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or arrays nested past the stack
        raise ParseError(f"invalid JSON: {exc}", line_no=line_no) from None


def read_ground_truth(path: str | Path) -> list[GroundTruthRecord]:
    records: list[GroundTruthRecord] = []
    seen: set[str] = set()
    for line_no, line in record_lines(path):
        payload = _parse_json(line, line_no)
        _require(isinstance(payload, dict), "record must be an object", line_no)
        image_id = payload.get("image_id")
        _require(isinstance(image_id, str) and image_id != "",
                 "image_id must be a non-empty string", line_no)
        labels = _string_list(payload.get("labels"), "labels", line_no)
        if image_id in seen:
            raise DuplicateImageError(image_id)
        seen.add(image_id)
        records.append(GroundTruthRecord(image_id=image_id, labels=labels))
    return records


def _parse_object(payload, line_no: int | None) -> PredictedObject:
    _require(isinstance(payload, dict), "object entries must be objects", line_no)
    synonyms = _string_list(payload.get("labels"), "labels", line_no)
    _require(len(synonyms) > 0, "object labels must be non-empty", line_no)
    confidence = payload.get("confidence")
    if confidence is not None:
        _require(isinstance(confidence, (int, float)) and not isinstance(confidence, bool),
                 "confidence must be a number", line_no)
        try:
            confidence = float(confidence)
        except OverflowError:  # an integer too large for a float
            raise BadConfidenceError(confidence) from None
        if not (0.0 <= confidence <= 1.0):
            raise BadConfidenceError(confidence)
    return PredictedObject(synonyms=synonyms, confidence=confidence)


def prediction_from_json(text: str, line_no: int | None = None) -> PredictionRecord:
    """Read one record as ``prediction_to_json`` writes it; a bad one raises
    ParseError, naming ``line_no`` when given, or BadConfidenceError."""
    payload = _parse_json(text, line_no)
    _require(isinstance(payload, dict), "record must be an object", line_no)
    image_id = payload.get("image_id")
    api_id = payload.get("api_id")
    _require(isinstance(image_id, str) and image_id != "",
             "image_id must be a non-empty string", line_no)
    _require(isinstance(api_id, str) and api_id != "",
             "api_id must be a non-empty string", line_no)
    objects_payload = payload.get("objects")
    _require(isinstance(objects_payload, list), "objects must be an array", line_no)
    objects = tuple(_parse_object(o, line_no) for o in objects_payload)
    return PredictionRecord(image_id=image_id, api_id=api_id, objects=objects)


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    return [prediction_from_json(line, line_no) for line_no, line in record_lines(path)]


def ground_truth_to_json(record: GroundTruthRecord) -> str:
    return json.dumps({"image_id": record.image_id, "labels": list(record.labels)})


def prediction_to_json(record: PredictionRecord) -> str:
    objects = []
    for obj in record.objects:
        payload: dict = {"labels": list(obj.synonyms)}
        if obj.confidence is not None:
            payload["confidence"] = obj.confidence
        objects.append(payload)
    return json.dumps({"image_id": record.image_id, "api_id": record.api_id,
                       "objects": objects})


def write_ground_truth(records: Sequence[GroundTruthRecord], path: str | Path) -> None:
    Path(path).write_text(
        "".join(ground_truth_to_json(r) + "\n" for r in records), encoding="utf-8")


def write_predictions(records: Sequence[PredictionRecord], path: str | Path) -> None:
    Path(path).write_text(
        "".join(prediction_to_json(r) + "\n" for r in records), encoding="utf-8")


def top_k(record: PredictionRecord, k: int) -> PredictionRecord:
    """Keep the k most confident objects.

    Stable sort: ties keep file order, objects without a confidence rank
    below every object that has one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(
        record.objects,
        key=lambda obj: math.inf if obj.confidence is None else -obj.confidence,
    )
    return PredictionRecord(image_id=record.image_id, api_id=record.api_id,
                            objects=tuple(ranked[:k]))


@dataclass(frozen=True)
class InternedTruth:
    """One image's truth labels through a Vocabulary.

    ``labels`` are the cleaned labels deduplicated in first-occurrence
    order, empty cleanings dropped: the set the bipartition metrics count.
    ``rows`` are their vocabulary rows. ``raw`` holds every raw label in file
    order, duplicates included, and ``bag`` the vocabulary row of each: the
    image's sentence text and its WMD bag.
    """

    vocab: Vocabulary
    labels: tuple[str, ...]
    rows: tuple[int, ...]
    raw: tuple[str, ...]
    bag: tuple[int, ...]


@dataclass(frozen=True)
class InternedObjects:
    """Ranked predicted objects through a Vocabulary.

    ``synonyms`` holds each object's non-empty cleaned synonyms. ``rows``
    lists the vocabulary row of every synonym, object by object in listed
    order: the side's WMD bag. Object ``i`` owns ``ends[i-1]:ends[i]`` of
    them. Interned once at the largest k, ``prefix(k)`` is the side at k,
    because ``top_k`` is a stable sort.
    """

    vocab: Vocabulary
    objects: tuple[PredictedObject, ...]
    synonyms: tuple[frozenset[str], ...]
    ends: tuple[int, ...]
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.objects)

    def prefix(self, k: int) -> "InternedObjects":
        """The first k objects, as ``top_k`` at k would rank them."""
        if k >= len(self.objects):
            return self
        end = self.ends[k - 1] if k > 0 else 0
        return InternedObjects(vocab=self.vocab, objects=self.objects[:k],
                               synonyms=self.synonyms[:k], ends=self.ends[:k],
                               rows=self.rows[:end])

    @property
    def raw(self) -> tuple[str, ...]:
        """Every synonym as read, object by object in listed order."""
        return tuple(raw for obj in self.objects for raw in obj.synonyms)


def _raw_labels(side) -> Iterator[str]:
    """Every raw label of a truth-label sequence or of PredictedObjects."""
    for item in side:
        if isinstance(item, PredictedObject):
            yield from item.synonyms
        else:
            yield item


def intern_truth(labels: Sequence[str], vocab: Vocabulary) -> InternedTruth:
    """Intern truth labels through a Vocabulary built over them."""
    deduplicated: dict[str, int] = {}
    for raw in labels:
        cleaned = vocab.cleaned(raw)
        if cleaned and cleaned not in deduplicated:
            deduplicated[cleaned] = vocab.row(raw)
    return InternedTruth(vocab=vocab, labels=tuple(deduplicated),
                         rows=tuple(deduplicated.values()), raw=tuple(labels),
                         bag=tuple(map(vocab.row, labels)))


def intern_objects(objects: Sequence[PredictedObject],
                   vocab: Vocabulary) -> InternedObjects:
    """Intern ranked objects through a Vocabulary built over their synonyms."""
    objects = tuple(objects)
    synonyms: list[frozenset[str]] = []
    ends: list[int] = []
    rows: list[int] = []
    for obj in objects:
        cleaned = {vocab.cleaned(raw) for raw in obj.synonyms}
        cleaned.discard("")
        synonyms.append(frozenset(cleaned))
        rows.extend(vocab.row(raw) for raw in obj.synonyms)
        ends.append(len(rows))
    return InternedObjects(vocab=vocab, objects=objects, synonyms=tuple(synonyms),
                           ends=tuple(ends), rows=tuple(rows))


def intern_unit(truth: Sequence[str] | InternedTruth,
                objects: Sequence[PredictedObject] | InternedObjects,
                store: EmbeddingStore | None) -> tuple[InternedTruth, InternedObjects]:
    """Both sides of one unit, interned through one Vocabulary.

    Sides the kernel already interned pass through as they are, and
    ``store`` may be None for them. Raw sides (truth labels and
    PredictedObjects) are interned through a Vocabulary built from
    ``store`` over their labels. One side of each kind is an error.
    """
    interned = (isinstance(truth, InternedTruth), isinstance(objects, InternedObjects))
    if all(interned):
        if truth.vocab is not objects.vocab:
            raise ValueError("the two sides were interned through different vocabularies")
        return truth, objects
    if any(interned):
        raise TypeError("intern both sides of a unit or neither")
    if store is None:
        raise TypeError("raw sides need a store to resolve their labels through")
    truth, objects = tuple(truth), tuple(objects)
    vocab = Vocabulary(store, clean_labels([*truth, *_raw_labels(objects)]))
    return intern_truth(truth, vocab), intern_objects(objects, vocab)


def intern_bag(side, store: EmbeddingStore) -> InternedTruth:
    """A raw side (truth labels, or objects' synonyms in listed order),
    interned as one truth side through a Vocabulary of its own."""
    labels = tuple(_raw_labels(side))
    return intern_truth(labels, Vocabulary(store, clean_labels(labels)))


def label_bag(side, store: EmbeddingStore) -> list[str]:
    """Flatten one side of an evaluation unit into resolved tokens.

    Accepts either a sequence of truth labels or a sequence of
    PredictedObject; unresolved labels become UNKNOWN_TOKEN.
    """
    bag = intern_bag(side, store)
    return [bag.vocab.token(raw) for raw in bag.raw]


def object_stats(sides: Sequence[InternedObjects]) -> tuple[float, float]:
    """(unknown_object_rate, mean_labels_per_object) over interned objects.

    An object counts as unknown only when every one of its synonyms fails to
    resolve, that is, sits at the vocabulary's origin row.
    """
    total_objects = 0
    unknown_objects = 0
    total_synonyms = 0
    for side in sides:
        start = 0
        for end in side.ends:
            total_objects += 1
            total_synonyms += end - start
            if not any(side.rows[start:end]):
                unknown_objects += 1
            start = end
    if total_objects == 0:
        raise EmptyInputError("no objects to compute metadata statistics over")
    return unknown_objects / total_objects, total_synonyms / total_objects


def metadata_stats(records: Sequence[PredictionRecord], store: EmbeddingStore,
                   k: int) -> tuple[float, float]:
    """(unknown_object_rate, mean_labels_per_object) over the top-k objects."""
    ranked = [top_k(record, k).objects for record in records]
    vocab = Vocabulary(store, clean_labels(label for objects in ranked
                                           for label in _raw_labels(objects)))
    return object_stats([intern_objects(objects, vocab) for objects in ranked])
