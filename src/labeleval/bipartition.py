"""Exact-match example-based metrics and label-based macro/micro metrics.

Example-based scores treat the deduplicated ground-truth labels and the
predicted objects as sets: accuracy is their Jaccard similarity, precision
divides matches by the object count, recall by the truth count, and F1 is the
harmonic mean. Label-based scores pool per-label confusion counters and
average them macro- (per label, then mean) or micro-style (pooled counts).

The matching functions take raw labels or the interned sides of
``labelset``; raw ones are interned first, so both go through one matcher.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .embeddings import clean_label
from .errors import EmptyDatasetError, EmptyLedgerError, EmptyTruthError
from .labelset import (TEXT_ONLY, InternedObjects, InternedTruth, PredictedObject,
                       _first_cleanings, intern_unit)


@dataclass(frozen=True)
class ExampleScores:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class LabelBasedScores:
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float


@dataclass(frozen=True)
class MatchResult:
    """One-to-one matching between deduplicated truth labels and objects.

    Indices refer to the deduplicated, cleaned truth sequence and to the
    object sequence as given. Pairs come in object order; ``matched`` counts them.
    """

    truth_indices: tuple[int, ...]
    object_indices: tuple[int, ...]

    @property
    def matched(self) -> int:
        return len(self.truth_indices)

    def prefix(self, k: int) -> "MatchResult":
        """The exact match of the first k objects: an object's match depends
        only on the objects before it, so it is this match's pairs below k."""
        n = bisect_left(self.object_indices, k)
        return MatchResult(truth_indices=self.truth_indices[:n],
                           object_indices=self.object_indices[:n])


def dedup_normalized(labels: Iterable[str]) -> list[str]:
    """Cleaned labels in first-occurrence order; empty cleanings dropped."""
    return list(_first_cleanings(labels, clean_label))


def exact_intersection(truth: Sequence[str] | InternedTruth,
                       objects: Sequence[PredictedObject] | InternedObjects
                       ) -> MatchResult:
    """Greedy one-to-one exact matching in object order.

    Each object, in order, matches the first still-unmatched truth label that
    equals any of its cleaned synonyms.
    """
    truth, objects = intern_unit(truth, objects, TEXT_ONLY)
    matched_truth: list[int] = []
    matched_objects: list[int] = []
    taken = [False] * len(truth.labels)
    for oi, synonyms in enumerate(objects.synonyms):
        for ti, label in enumerate(truth.labels):
            if not taken[ti] and label in synonyms:
                taken[ti] = True
                matched_truth.append(ti)
                matched_objects.append(oi)
                break
    return MatchResult(truth_indices=tuple(matched_truth),
                       object_indices=tuple(matched_objects))


def scores_from_counts(matched: int, n_truth: int, n_objects: int) -> ExampleScores:
    """Example-based scores from a match count and the two set sizes.

    Shared by the exact and semantic paths so equal match counts produce
    bit-identical scores.
    """
    if n_truth < 1:
        raise EmptyTruthError("scores undefined without ground-truth labels")
    precision = matched / n_objects if n_objects else 0.0
    recall = matched / n_truth
    accuracy = matched / (n_truth + n_objects - matched)
    f1 = 2 * matched / (n_truth + n_objects)
    return ExampleScores(accuracy=accuracy, precision=precision,
                         recall=recall, f1=f1)


def example_scores(truth: Sequence[str] | InternedTruth,
                   objects: Sequence[PredictedObject] | InternedObjects
                   ) -> ExampleScores:
    truth, objects = intern_unit(truth, objects, TEXT_ONLY)
    match = exact_intersection(truth, objects)
    return scores_from_counts(match.matched, len(truth.labels), len(objects))


def mean_scores(scores: Sequence[ExampleScores]) -> ExampleScores:
    """Arithmetic mean of per-image scores, accumulated in the given order."""
    if not scores:
        raise EmptyDatasetError("no images to average")
    n = len(scores)
    acc = pre = rec = f1 = 0.0
    for s in scores:
        acc += s.accuracy
        pre += s.precision
        rec += s.recall
        f1 += s.f1
    return ExampleScores(accuracy=acc / n, precision=pre / n,
                         recall=rec / n, f1=f1 / n)


class ConfusionLedger:
    """Per-label tp/fp/fn accumulators over a fixed label space.

    The label space must be fixed before accumulation and normally holds the
    union of all ground-truth labels in the evaluated subset. Predicted labels
    outside the space are pooled into ``extra_fp`` (one increment per distinct
    out-of-space label claimed by unmatched objects per image) so micro
    precision can account for them. tn counts are derived:
    images - tp - fp - fn per label.
    """

    def __init__(self, label_space: Iterable[str]):
        self._over(tuple(_first_cleanings(label_space, clean_label)))

    @classmethod
    def _of_cleaned(cls, label_space: Sequence[str]) -> "ConfusionLedger":
        """A ledger over labels that are already cleaned, non-empty and
        distinct, such as a run's interned truth labels: none is cleaned again."""
        return cls.__new__(cls)._over(tuple(label_space))

    def _over(self, label_space: tuple[str, ...]) -> "ConfusionLedger":
        self.label_space = label_space
        self._index = {label: j for j, label in enumerate(label_space)}
        self._zero()
        return self

    def _zero(self) -> None:
        q = len(self.label_space)
        self.tp = [0] * q
        self.fp = [0] * q
        self.fn = [0] * q
        self.extra_fp = 0
        self.images = 0

    def fresh(self) -> "ConfusionLedger":
        """An empty ledger over this one's label space, which is not cleaned
        again: one cleaning serves every ledger of a space."""
        ledger = copy.copy(self)  # shares the read-only space and index
        ledger._zero()
        return ledger

    def tn(self, j: int) -> int:
        return self.images - self.tp[j] - self.fp[j] - self.fn[j]

    def accumulate(self, truth: Sequence[str] | InternedTruth,
                   objects: Sequence[PredictedObject] | InternedObjects,
                   match: MatchResult | None = None) -> "ConfusionLedger":
        """Add one image. Per label exactly one of tp/fn/fp/tn increments.

        ``match`` is the image's exact match when the caller already has it;
        otherwise it is computed here.
        """
        truth, objects = intern_unit(truth, objects, TEXT_ONLY)
        if match is None:
            match = exact_intersection(truth, objects)
        matched_labels = {truth.labels[ti] for ti in match.truth_indices}
        matched_objects = set(match.object_indices)
        claimed: set[str] = set()
        for oi, synonyms in enumerate(objects.synonyms):
            if oi not in matched_objects:
                claimed.update(synonyms)
        truth_set = set(truth.labels)
        for label in matched_labels:
            j = self._index.get(label)
            if j is not None:
                self.tp[j] += 1
        for label in truth_set - matched_labels:
            j = self._index.get(label)
            if j is not None:
                self.fn[j] += 1
        for label in claimed - truth_set:
            j = self._index.get(label)
            if j is not None:
                self.fp[j] += 1
            else:
                self.extra_fp += 1
        self.images += 1
        return self


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def label_based_scores(ledger: ConfusionLedger) -> LabelBasedScores:
    """Macro and micro precision/recall/F1 from an accumulated ledger."""
    q = len(ledger.label_space)
    if q == 0:
        raise EmptyLedgerError("ledger has an empty label space")
    tp_sum = sum(ledger.tp)
    fp_sum = sum(ledger.fp) + ledger.extra_fp
    fn_sum = sum(ledger.fn)
    micro_p = _ratio(tp_sum, tp_sum + fp_sum)
    micro_r = _ratio(tp_sum, tp_sum + fn_sum)
    micro_f1 = _ratio(2 * micro_p * micro_r, micro_p + micro_r)
    macro_p = macro_r = macro_f1 = 0.0
    for j in range(q):
        p_j = _ratio(ledger.tp[j], ledger.tp[j] + ledger.fp[j])
        r_j = _ratio(ledger.tp[j], ledger.tp[j] + ledger.fn[j])
        macro_p += p_j
        macro_r += r_j
        macro_f1 += _ratio(2 * r_j * p_j, r_j + p_j)
    return LabelBasedScores(
        macro_precision=macro_p / q,
        macro_recall=macro_r / q,
        macro_f1=macro_f1 / q,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
    )
