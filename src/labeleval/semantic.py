"""Semantic variants of the example-based metrics.

A predicted object counts as a semantic true positive when the cosine
similarity between its embedding and a ground-truth label's embedding reaches
the threshold (default 0.4). Semantic matching extends the exact match the
grid carries, so semantic scores never fall below the exact ones. Cells
where the object's synonyms textually equal the truth label are pinned to 1.0.

The grid is one matmul of the two sides' gathered vectors divided by the
outer product of their norms, then a per-object maximum over its synonyms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bipartition import (ExampleScores, MatchResult, exact_intersection,
                          scores_from_counts)
from .embeddings import EmbeddingStore
from .labelset import InternedObjects, InternedTruth, PredictedObject, intern_unit

#: Default semantic true-positive threshold.
DEFAULT_THRESHOLD = 0.4


@dataclass(frozen=True)
class SimilarityMatrix:
    """Truth (rows, deduplicated) x objects (columns) similarity grid.

    values holds -1.0 where either side is unresolvable, so such cells never
    reach a positive threshold; exact marks text-equality cells pinned at 1.0,
    and match is the exact match of the two sides.
    """

    truth_labels: tuple[str, ...]
    values: np.ndarray
    exact: np.ndarray
    match: MatchResult

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def prefix(self, k: int) -> "SimilarityMatrix":
        """The grid of the first k objects: each column is one object's."""
        return SimilarityMatrix(truth_labels=self.truth_labels,
                                values=self.values[:, :k], exact=self.exact[:, :k],
                                match=self.match.prefix(k))


@dataclass(frozen=True)
class SemanticMatch:
    """One-to-one (truth index, object index, similarity) pairs."""

    pairs: tuple[tuple[int, int, float], ...]
    threshold: float

    @property
    def matched(self) -> int:
        return len(self.pairs)


def similarity_matrix(truth: Sequence[str] | InternedTruth,
                      objects: Sequence[PredictedObject] | InternedObjects,
                      store: EmbeddingStore | None = None) -> SimilarityMatrix:
    """Cosine grid of deduplicated truth labels against objects, and their match.

    A cell is the best cosine over the object's synonyms, upcast to float64
    and clamped to [-1, 1]. Zero-norm vectors, unresolved labels among them,
    never score above -1. Raw sides resolve through ``store``, which they
    need; interned ones carry their vocabulary and need none.
    """
    truth, objects = intern_unit(truth, objects, store)
    n_truth, n_objects = len(truth.labels), len(objects)
    values = np.full((n_truth, n_objects), -1.0)
    if n_truth and objects.rows:
        truth_vectors, truth_norms = truth.vocab.gather(truth.rows)
        synonym_vectors, synonym_norms = truth.vocab.gather(objects.rows)
        scale = np.outer(truth_norms, synonym_norms)
        cosines = np.full(scale.shape, -1.0)
        np.divide(truth_vectors @ synonym_vectors.T, scale, out=cosines,
                  where=scale > 0.0)
        np.clip(cosines, -1.0, 1.0, out=cosines)
        starts = (0,) + objects.ends[:-1]
        owned = [oj for oj in range(n_objects) if objects.ends[oj] > starts[oj]]
        values[:, owned] = np.maximum.reduceat(
            cosines, [starts[oj] for oj in owned], axis=1)
    exact = np.array([[label in synonyms for synonyms in objects.synonyms]
                      for label in truth.labels], dtype=bool).reshape(values.shape)
    values[exact] = 1.0
    return SimilarityMatrix(truth_labels=truth.labels, values=values, exact=exact,
                            match=exact_intersection(truth, objects))


def semantic_intersection(matrix: SimilarityMatrix, threshold: float) -> SemanticMatch:
    """Greedy one-to-one matching of cells at or above the threshold.

    The grid's exact match comes first and counts at any threshold; the
    remaining cells then extend it, highest similarity first, ties broken
    by lower truth index then lower object index. So the semantic match is a
    superset of the exact one. Every exact cell shares its truth row or its
    object with that exact match, so none is picked again.
    """
    values = matrix.values.tolist()
    match = matrix.match
    truth_used = set(match.truth_indices)
    object_used = set(match.object_indices)
    pairs = [(ti, oj, values[ti][oj])
             for ti, oj in zip(match.truth_indices, match.object_indices)]
    candidates = [
        (ti, oj, similarity)
        for ti, row in enumerate(values)
        for oj, similarity in enumerate(row)
        if similarity >= threshold
    ]
    candidates.sort(key=lambda cell: (-cell[2], cell[0], cell[1]))
    for ti, oj, similarity in candidates:
        if ti not in truth_used and oj not in object_used:
            truth_used.add(ti)
            object_used.add(oj)
            pairs.append((ti, oj, similarity))
    return SemanticMatch(pairs=tuple(pairs), threshold=threshold)


def semantic_example_scores(truth: Sequence[str] | InternedTruth,
                            objects: Sequence[PredictedObject] | InternedObjects,
                            store: EmbeddingStore,
                            threshold: float = DEFAULT_THRESHOLD) -> ExampleScores:
    truth, objects = intern_unit(truth, objects, store)
    matrix = similarity_matrix(truth, objects, store)
    match = semantic_intersection(matrix, threshold)
    return scores_from_counts(match.matched, len(truth.labels), len(objects))
