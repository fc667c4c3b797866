"""Multi-label image-classification evaluation toolkit.

Scores prediction sets against ground truth with traditional bipartition
metrics, semantic cosine-threshold variants, word mover's distance over a
word-embedding store, and aggregated bag-of-words sentence similarity, then
emits ranked, color-annotated comparison reports.

Importing the package loads numpy with a one-thread BLAS: when numpy is not
yet imported, each of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` that the environment does not set reads ``1`` while
numpy loads, and is removed again afterwards. A caller's own setting of any
of them, or numpy imported before this package, is left as it is.
"""

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_numpy_with_one_blas_thread() -> None:
    """Load numpy, and through it BLAS, with one thread unless told otherwise.

    OpenBLAS starts a helper thread per further core as it loads, and each
    helper busy-waits between calls. The package multiplies only a few dozen
    rows at a time, which one thread computes as fast, so the helpers would
    only burn a core. BLAS reads these variables once, as the library loads,
    so they are set only around that import: ``os.environ`` and child
    processes stay as the caller left them.
    """
    import os
    import sys

    if "numpy" in sys.modules:
        return
    added = [name for name in _BLAS_THREAD_VARIABLES if name not in os.environ]
    try:
        for name in added:
            os.environ[name] = "1"
        import numpy  # noqa: F401
    finally:
        for name in added:
            del os.environ[name]


_import_numpy_with_one_blas_thread()

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
