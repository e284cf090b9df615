"""evalkit: output-similarity metrics and human-agreement analysis for
code-generation models.

The names below are resolved on first access (PEP 562), so importing a
submodule such as `evalkit.cli` loads only the modules it imports itself.
`evalkit.stats` and `evalkit.report`, which only `analyze` uses, are in
`sys.modules` from the start but run on the first read of one of their
attributes.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "checkers": ("ASSEMBLY_CHECKER", "PYTHON_LIKE_CHECKER", "CheckResult", "SyntaxChecker"),
    "corpus": (
        "Corpus", "Sample", "SplitSpec", "load_corpus", "load_results", "split_corpus",
        "write_results",
    ),
    "errors": ("CheckerError", "ConfigError", "DataError", "EvalkitError"),
    "metrics": (
        "CANONICAL_METRICS", "MeteorParams", "MetricConfig", "bleu", "compilation_accuracy",
        "edit_distance_norm", "evaluate_corpus", "evaluate_pair", "evaluate_sample",
        "exact_match", "lcs_length", "levenshtein", "meteor", "ngrams", "rouge_l", "rouge_n",
    ),
    "stats": (
        "CorrelationRow", "DescriptiveStats", "OffsetRow", "Partition", "correlate", "describe",
        "kendall_tau", "offsets", "partition_by_sc", "pearson",
    ),
    "textprep": (
        "StandardizationMap", "StopwordList", "TokenizerConfig", "destandardize",
        "filter_stopwords", "standardize", "tokenize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "kernel_backend"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # so later reads do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


def _register_lazily(name: str) -> None:
    """Put the submodule `name` in sys.modules and on this package without
    running it; it runs when one of its attributes is first read. Code that
    looks evalkit's modules up in sys.modules, as perfbench's tracer does,
    thus finds it before any use."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


_register_lazily("stats")
_register_lazily("report")


def kernel_backend() -> str:
    """Name of the sequence-alignment kernel implementation; there is one,
    the pure-Python kernels in `evalkit._kernels`."""
    return "python"
