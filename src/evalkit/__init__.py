"""evalkit: output-similarity metrics and human-agreement analysis for
code-generation models."""

__version__ = "0.1.0"

from .checkers import ASSEMBLY_CHECKER, PYTHON_LIKE_CHECKER, CheckResult, SyntaxChecker
from .corpus import Corpus, Sample, SplitSpec, load_corpus, load_results, split_corpus, write_results
from .errors import CheckerError, ConfigError, DataError, EvalkitError
from .metrics import (
    CANONICAL_METRICS,
    MeteorParams,
    MetricConfig,
    bleu,
    compilation_accuracy,
    edit_distance_norm,
    evaluate_corpus,
    evaluate_pair,
    evaluate_sample,
    exact_match,
    lcs_length,
    levenshtein,
    meteor,
    ngrams,
    rouge_l,
    rouge_n,
)
from .stats import (
    CorrelationRow,
    DescriptiveStats,
    OffsetRow,
    Partition,
    correlate,
    describe,
    kendall_tau,
    offsets,
    partition_by_sc,
    pearson,
)
from .textprep import (
    StandardizationMap,
    StopwordList,
    TokenizerConfig,
    destandardize,
    filter_stopwords,
    standardize,
    tokenize,
)


def kernel_backend() -> str:
    """Name of the sequence-alignment kernel implementation; there is one,
    the pure-Python kernels in `evalkit._kernels`."""
    return "python"
