"""Exception hierarchy for the toolkit.

Two broad buckets drive CLI exit codes: DataError (exit 2) for malformed or
inconsistent inputs, UpstreamError (exit 3) for failures at an external
service boundary.
"""


class EvaluationError(Exception):
    """Base class for every error raised by this package."""


class DataError(EvaluationError):
    """Malformed, inconsistent, or empty input data."""


class UpstreamError(EvaluationError):
    """Failure while talking to an external service."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


# -- embedding store ---------------------------------------------------------

class MalformedHeaderError(DataError):
    """Model file header is missing or does not declare 'V D'."""


class DimensionMismatchError(DataError):
    """Vector length differs from the declared or expected dimension."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class DuplicateTokenError(DataError):
    """A token repeated in a model; a loader's ``prefix`` names its file and place."""

    def __init__(self, token: str, prefix: str = ""):
        super().__init__(f"{prefix}duplicate token in model: {token!r}")
        self.token = token


class TruncatedRecordError(DataError):
    """Binary model file ends in the middle of a record."""

    def __init__(self, index: int, path: object):
        super().__init__(f"{path}: truncated record at index {index}")
        self.index = index


class ZeroVectorError(DataError):
    """Cosine similarity is undefined for a zero-norm vector."""


# -- label ingestion ---------------------------------------------------------

class ParseError(DataError):
    """A record breaks its format. ``line_no`` is set where the record was
    read from a file, and stays None for a fetch-cache entry."""

    line_no: int | None = None


class DuplicateImageError(DataError):
    """A repeated truth image_id, or a repeated (api_id, image_id) prediction,
    whose message names the file of the first record."""

    def __init__(self, image_id: str, api_id: str | None = None,
                 first: str | None = None):
        super().__init__(f"duplicate image_id: {image_id!r}" if api_id is None else
                         f"{api_id}/{image_id}: duplicate prediction, "
                         f"first read from {first}")
        self.image_id = image_id


class BadConfidenceError(DataError):
    def __init__(self, value):
        super().__init__(f"confidence outside [0, 1]: {value!r}")
        self.value = value


class EmptyInputError(DataError):
    """An operation received no data to work on."""


class EmptyTruthError(DataError):
    """Scores are undefined for an image with no ground-truth labels."""


class EmptyDatasetError(DataError):
    """A dataset-level aggregate received zero usable images."""


class EmptyBagError(DataError):
    """A normalized bag-of-words cannot be built from an empty bag."""


class EmptyLedgerError(DataError):
    """Label-based scores are undefined on a ledger with no label space."""


class EmptyReportError(DataError):
    """Ranking requires at least one report row."""


# -- transport solver --------------------------------------------------------

class UnresolvedTokenError(DataError):
    def __init__(self, token: str):
        super().__init__(f"token not present in embedding store: {token!r}")
        self.token = token


class InfeasibleMarginalsError(DataError):
    """Supply and demand weights do not balance within tolerance."""


class NumericalFailureError(DataError):
    """The transport solver could not reach a verified optimum."""


# -- providers and fetching --------------------------------------------------

class ProviderUnavailableError(UpstreamError):
    """The sentence-embedding provider cannot serve a request."""


class DimensionInconsistentError(UpstreamError):
    """A provider returned vectors of differing lengths."""


class CacheCorruptError(DataError):
    """A cache entry exists but cannot be parsed."""


class AuthMissingError(UpstreamError):
    """A required credential environment variable is not set."""


class QuotaExhaustedError(UpstreamError):
    """The configured total request budget has been spent."""
