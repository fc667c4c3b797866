"""Ground-truth and prediction ingestion, top-k selection, and label bags.

Record files are newline-delimited JSON, one record per line:
ground truth {"image_id": ..., "labels": [...]}, predictions
{"image_id": ..., "api_id": ..., "objects": [{"labels": [...],
"confidence": ...}]} where confidence may be omitted.

Every metric family reads the two sides of a unit through a Vocabulary:
an ``InternedTruth`` per image and an ``InternedObjects`` per (api, image)
at the largest k, whose prefixes serve the smaller ks. A side keeps its
cleaned labels, and one flat tuple of raw labels beside their vocabulary
rows, never store tokens; the raw labels give the sentence text through
``Vocabulary.cleaned``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


@dataclass(frozen=True, slots=True)
class GroundTruthRecord:
    image_id: str
    labels: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PredictedObject:
    """One predicted object carrying interchangeable synonym labels."""

    synonyms: tuple[str, ...]
    confidence: float | None = None


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    image_id: str
    api_id: str
    objects: tuple[PredictedObject, ...]


def _is_int(value) -> bool:
    """An int that is not a bool: JSON's true must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _require_id(value, field: str) -> str:
    """An image_id or api_id, which must be a non-empty string."""
    _require(isinstance(value, str) and value != "",
             f"{field} must be a non-empty string")
    return value


def _string_list(value, field: str) -> tuple[str, ...]:
    """The strings, interned: a label read on many lines is held once."""
    _require(isinstance(value, list), f"{field} must be an array")
    for item in value:
        _require(isinstance(item, str), f"{field} entries must be strings")
    return tuple(map(sys.intern, value))


def read_lines(path: str | Path, parse: Callable[[str], object]) -> list:
    """``parse`` of each non-blank line of a UTF-8 JSON-lines file, without
    its line end, so a decoder's position counts within the record.

    A DataError raised for a line, a line that is not valid UTF-8 included,
    is prefixed with ``<path> line <n>: `` and carries ``line_no``.
    Undecodable bytes are read as escaped surrogates, which fail to encode.
    """
    parsed = []
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not valid UTF-8 text") from None
                parsed.append(parse(line.rstrip("\n")))
            except DataError as exc:
                exc.args = (f"{path} line {line_no}: {exc}",)
                exc.line_no = line_no
                raise
    return parsed


def _parse_json(text: str | bytes):
    """The program's one JSON decoder: every input line, file, cache entry
    and reply is decoded here. Bytes are decoded as ``json.loads`` detects
    (UTF-8, -16 or -32). Any failure is a ParseError reading ``invalid JSON:
    <decoder message>``, which keeps the decoder's line and column."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax and undecodable bytes are ValueErrors, as is an integer
        # past the digit limit; arrays nested past the stack recurse
        raise ParseError(f"invalid JSON: {exc}") from None


def read_ground_truth(path: str | Path) -> list[GroundTruthRecord]:
    seen: set[str] = set()

    def parse(line: str) -> GroundTruthRecord:
        payload = _parse_json(line)
        _require(isinstance(payload, dict), "record must be an object")
        image_id = _require_id(payload.get("image_id"), "image_id")
        labels = _string_list(payload.get("labels"), "labels")
        if image_id in seen:
            raise DuplicateImageError(image_id)
        seen.add(image_id)
        return GroundTruthRecord(image_id=image_id, labels=labels)

    return read_lines(path, parse)


def _parse_object(payload) -> PredictedObject:
    """The predicted-object rule, for files, the fetch cache and vendor replies."""
    _require(isinstance(payload, dict), "object entries must be objects")
    synonyms = _string_list(payload.get("labels"), "labels")
    _require(len(synonyms) > 0, "object labels must be non-empty")
    confidence = payload.get("confidence")
    if confidence is not None:
        _require(_is_number(confidence), "confidence must be a number")
        try:
            confidence = float(confidence)
        except OverflowError:  # an integer too large for a float
            raise BadConfidenceError(confidence) from None
        if not (0.0 <= confidence <= 1.0):
            raise BadConfidenceError(confidence)
    return PredictedObject(synonyms=synonyms, confidence=confidence)


def prediction_from_json(text: str | bytes) -> PredictionRecord:
    """Read one record as ``prediction_to_json`` writes it; a bad one raises
    ParseError or BadConfidenceError."""
    payload = _parse_json(text)
    _require(isinstance(payload, dict), "record must be an object")
    image_id = _require_id(payload.get("image_id"), "image_id")
    api_id = _require_id(payload.get("api_id"), "api_id")
    objects_payload = payload.get("objects")
    _require(isinstance(objects_payload, list), "objects must be an array")
    objects = tuple(map(_parse_object, objects_payload))
    return PredictionRecord(image_id=image_id, api_id=api_id, objects=objects)


def read_predictions(path: str | Path,
                     seen: dict[tuple[str, str], str] | None = None,
                     k: int | None = None) -> list[PredictionRecord]:
    """The records of a predictions file. ``seen`` maps each (api_id,
    image_id) read to its file, and a repeat is a DuplicateImageError at its
    line naming the file of the first; share it to check several files.
    With ``k``, each record is ``top_k(record, k)`` from its line on, so the
    objects below the cut are never held together."""
    seen = {} if seen is None else seen

    def parse(line: str) -> PredictionRecord:
        record = prediction_from_json(line)
        key = (record.api_id, record.image_id)
        if key in seen:
            raise DuplicateImageError(record.image_id, record.api_id, seen[key])
        seen[key] = str(path)
        return record if k is None else top_k(record, k)

    return read_lines(path, parse)


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

    ``raw`` holds every synonym as read, object by object in listed order:
    the side's sentence text. ``rows`` holds the vocabulary row of each: the
    side's WMD bag. Object ``i`` owns ``ends[i-1]:ends[i]`` of both, and
    ``synonyms[i]`` holds its non-empty cleaned synonyms. Interned once at
    the largest k, ``prefix(k)`` is the side at k, because ``top_k`` is a
    stable sort.
    """

    vocab: Vocabulary
    raw: tuple[str, ...]
    synonyms: tuple[frozenset[str], ...]
    ends: tuple[int, ...]
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ends)

    def prefix(self, k: int) -> "InternedObjects":
        """The first k objects, as ``top_k`` at k would rank them."""
        if k >= len(self.ends):
            return self
        end = self.ends[k - 1] if k > 0 else 0
        return InternedObjects(vocab=self.vocab, raw=self.raw[:end],
                               synonyms=self.synonyms[:k], ends=self.ends[:k],
                               rows=self.rows[:end])


def _raw_labels(side) -> Iterator[str]:
    """Every raw label, in order, of a sequence of truth labels,
    PredictedObjects, GroundTruthRecords or PredictionRecords."""
    for item in side:
        if isinstance(item, str):
            yield item
        elif isinstance(item, PredictedObject):
            yield from item.synonyms
        elif isinstance(item, GroundTruthRecord):
            yield from item.labels
        else:
            yield from _raw_labels(item.objects)


def _first_cleanings(labels: Iterable[str], clean: Callable[[str], str]) -> dict[str, str]:
    """Each non-empty cleaned label, in first-occurrence order, mapped to the
    first raw label that cleans to it: the deduplicated label set that truth
    sides, ledger spaces and ``dedup_normalized`` all count."""
    first: dict[str, str] = {}
    for raw in labels:
        cleaned = clean(raw)
        if cleaned and cleaned not in first:
            first[cleaned] = raw
    return first


def intern_truth(labels: Sequence[str], vocab: Vocabulary) -> InternedTruth:
    """Intern truth labels through a Vocabulary built over them."""
    first = _first_cleanings(labels, vocab.cleaned)
    return InternedTruth(vocab=vocab, labels=tuple(first),
                         rows=tuple(map(vocab.row, first.values())), raw=tuple(labels),
                         bag=tuple(map(vocab.row, labels)))


def intern_objects(objects: Sequence[PredictedObject],
                   vocab: Vocabulary) -> InternedObjects:
    """Intern ranked objects through a Vocabulary built over their synonyms."""
    raw: list[str] = []
    synonyms: list[frozenset[str]] = []
    ends: list[int] = []
    for obj in objects:
        cleaned = {vocab.cleaned(label) for label in obj.synonyms}
        cleaned.discard("")
        synonyms.append(frozenset(cleaned))
        raw.extend(obj.synonyms)
        ends.append(len(raw))
    return InternedObjects(vocab=vocab, raw=tuple(raw), synonyms=tuple(synonyms),
                           ends=tuple(ends), rows=tuple(map(vocab.row, raw)))


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


def object_counts(side: InternedObjects) -> tuple[int, int, int]:
    """(objects, unknown objects, synonyms) of one interned side.

    An object counts as unknown only when every one of its synonyms fails to
    resolve, that is, sits at the vocabulary's origin row.
    """
    unknown = start = 0
    for end in side.ends:
        unknown += not any(side.rows[start:end])
        start = end
    return len(side.ends), unknown, len(side.rows)


def object_stats(objects: int, unknown: int, synonyms: int) -> tuple[float, float]:
    """(unknown_object_rate, mean_labels_per_object) from ``object_counts``,
    of one side or summed over several."""
    if objects == 0:
        raise EmptyInputError("no objects to compute metadata statistics over")
    return unknown / objects, synonyms / objects


def metadata_stats(records: Sequence[PredictionRecord],
                   vocab: Vocabulary) -> tuple[float, float]:
    """(unknown_object_rate, mean_labels_per_object) over the records' objects.

    ``vocab`` was built over at least those objects' labels. For the top-k
    objects, pass records that ``read_predictions`` cut with ``k``."""
    counts = [object_counts(intern_objects(record.objects, vocab)) for record in records]
    return object_stats(*(sum(column) for column in zip((0, 0, 0), *counts)))
