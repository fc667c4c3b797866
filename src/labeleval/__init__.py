"""Multi-label image-classification evaluation toolkit.

Scores prediction sets against ground truth with traditional bipartition
metrics, semantic cosine-threshold variants, word mover's distance over a
word-embedding store, and aggregated bag-of-words sentence similarity, then
emits ranked, color-annotated comparison reports.
"""

from .bipartition import (
    ConfusionLedger,
    ExampleScores,
    LabelBasedScores,
    example_scores,
    exact_intersection,
    label_based_scores,
    mean_scores,
)
from .embeddings import (
    UNKNOWN_TOKEN,
    EmbeddingStore,
    LabelResolution,
    Permutation,
    Vocabulary,
    clean_label,
    cosine,
    euclidean,
    load_binary_model,
    load_model,
    load_text_model,
    resolve_label,
    save_binary_model,
    save_text_model,
)
from .harness import (
    ApiClientSpec,
    ImageRef,
    RunConfig,
    fetch_predictions,
    natural_key,
    run_evaluation,
)
from .labelset import (
    GroundTruthRecord,
    InternedObjects,
    InternedTruth,
    PredictedObject,
    PredictionRecord,
    intern_objects,
    intern_truth,
    label_bag,
    metadata_stats,
    object_stats,
    read_ground_truth,
    read_predictions,
    top_k,
    write_ground_truth,
    write_predictions,
)
from .report import MetricReport, ReportRow, emit, rank_and_colorize
from .semantic import (
    DEFAULT_THRESHOLD,
    SemanticMatch,
    SimilarityMatrix,
    semantic_example_scores,
    semantic_intersection,
    similarity_matrix,
)
from .sentence import (
    ProviderConfig,
    fetch_embeddings,
    render_bow_text,
    text_digest,
)
from .wmd import (
    DatasetWmd,
    NBow,
    TransportPlan,
    build_nbow,
    cost_matrix,
    dataset_wmd,
    solve_transport,
    wmd_pair,
)

__version__ = "0.1.0"
