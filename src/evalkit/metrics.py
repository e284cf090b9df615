"""Output-similarity metrics for (prediction, reference) snippet pairs.

Twenty-three per-sample scores, all in [0, 1]: compilation accuracy, ROUGE-n
precision/recall/F1 for n in 1..4, ROUGE-L P/R/F1, BLEU-1..4, exact match,
METEOR and normalized edit distance. Token metrics operate on TokenSeq values;
edit distance and exact match see the raw strings. Any precision/recall/F1
with a zero denominator is 0.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from . import _kernels
from .checkers import SyntaxChecker, checker_for_language
from .corpus import Sample
from .errors import ConfigError
from .textprep import CODE_TOKENIZER, TokenizerConfig, tokenize

ROUGE_ORDERS = (1, 2, 3, 4)
BLEU_ORDERS = (1, 2, 3, 4)

# Canonical metric order: the fixed row order of every report.
CANONICAL_METRICS: tuple[str, ...] = (
    "CA",
    *(f"ROUGE-{n}-{part}" for n in ROUGE_ORDERS for part in ("P", "R", "F1")),
    *(f"ROUGE-L-{part}" for part in ("P", "R", "F1")),
    *(f"BLEU-{n}" for n in BLEU_ORDERS),
    "EM",
    "METEOR",
    "ED",
)

MetricVector = dict[str, float]


def canonical_subset(names: Sequence[str]) -> tuple[str, ...]:
    """Validate metric names and return them in canonical order."""
    unknown = set(names) - set(CANONICAL_METRICS)
    if unknown:
        raise ConfigError(f"unknown metric name(s): {', '.join(sorted(unknown))}")
    wanted = set(names)
    return tuple(m for m in CANONICAL_METRICS if m in wanted)


def ngrams(seq: Sequence[str], n: int) -> Counter:
    """Multiset of the contiguous n-token windows of seq."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def rouge_n(pred: Sequence[str], ref: Sequence[str], n: int) -> tuple[float, float, float]:
    """N-gram overlap precision / recall / F1.

    The multiset intersection of n-gram counts is divided by the prediction's
    n-gram count (precision) and the reference's (recall).
    """
    pred_grams = ngrams(pred, n)
    ref_grams = ngrams(ref, n)
    match = sum((pred_grams & ref_grams).values())
    total_pred = sum(pred_grams.values())
    total_ref = sum(ref_grams.values())
    p = match / total_pred if total_pred else 0.0
    r = match / total_ref if total_ref else 0.0
    return p, r, _f1(p, r)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common (in-order, not necessarily contiguous)
    token subsequence."""
    return _kernels.lcs_length(a, b)


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insertions, deletions, substitutions)."""
    return _kernels.levenshtein(a, b)


def rouge_l(pred: Sequence[str], ref: Sequence[str]) -> tuple[float, float, float]:
    """ROUGE with the n-gram match replaced by the longest common subsequence."""
    if not len(pred) or not len(ref):
        return 0.0, 0.0, 0.0
    lcs = _kernels.lcs_length(pred, ref)
    p = lcs / len(pred)
    r = lcs / len(ref)
    return p, r, _f1(p, r)


BLEU_SMOOTHING_MODES = ("none", "epsilon")

# Default epsilon substituted for zero modified precisions under "epsilon"
# smoothing. Configurable; 0.1 keeps short no-overlap pairs on the scale the
# usual toolchains report rather than collapsing them to ~0.
DEFAULT_BLEU_EPSILON = 0.1


def bleu(
    pred: Sequence[str],
    ref: Sequence[str],
    max_n: int = 4,
    smoothing: str = "none",
    epsilon: float = DEFAULT_BLEU_EPSILON,
) -> float:
    """Sentence-level BLEU: geometric mean of clipped n-gram precisions times a
    brevity penalty for predictions shorter than the reference.

    With smoothing "none" any zero precision zeroes the score; "epsilon"
    substitutes `epsilon` for zero higher-order precisions (n >= 2); a zero
    unigram precision means no overlap at all and always zeroes the score. An
    order where neither side has any n-gram contributes a vacuous precision of
    1, so identical short sequences still score 1.0.
    """
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n must be in 1..4, got {max_n}")
    if smoothing not in BLEU_SMOOTHING_MODES:
        raise ConfigError(f"unknown BLEU smoothing {smoothing!r}")
    if len(pred) == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        pred_grams = ngrams(pred, n)
        total = sum(pred_grams.values())
        if total == 0:
            ref_has = len(ref) >= n
            p = 0.0 if ref_has else 1.0
        else:
            ref_grams = ngrams(ref, n)
            p = sum((pred_grams & ref_grams).values()) / total
        if p == 0.0:
            if smoothing == "none" or n == 1:
                return 0.0
            p = epsilon
        log_sum += math.log(p)
    bp = 1.0 if len(pred) >= len(ref) else math.exp(1.0 - len(ref) / len(pred))
    return bp * math.exp(log_sum / max_n)


@dataclass(frozen=True)
class MeteorParams:
    """Harmonic-mean weight, fragmentation exponent and penalty weight."""

    alpha: float = 0.9
    beta: float = 3.0
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigError(f"meteor alpha must be in (0,1), got {self.alpha}")
        if self.beta <= 0:
            raise ConfigError(f"meteor beta must be > 0, got {self.beta}")
        if not 0 <= self.gamma < 1:
            raise ConfigError(f"meteor gamma must be in [0,1), got {self.gamma}")


# Exact alignment search is bounded; longer or highly repetitive inputs fall
# back to a greedy that still attains the maximum match count.
_EXACT_ALIGN_MAX_REF = 16
_EXACT_ALIGN_MAX_PRED = 400
_EXACT_ALIGN_STATE_CAP = 10_000


class _StateCapExceeded(Exception):
    pass


def _align_exact(pred: Sequence[str], ref: Sequence[str], quota: Counter) -> tuple[int, int] | None:
    """Minimum chunk count over all maximum-cardinality exact-match alignments.

    Memoized search over (pred position, used-reference bitmask, chunk
    continuation). Returns None when the state cap is exceeded.
    """
    target = sum(quota.values())
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def best(i: int, mask: int, chain: int) -> tuple[int, int]:
        # returns (matches, -chunks) maximized lexicographically from i on
        if i == len(pred):
            return (0, 0)
        key = (i, mask, chain)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > _EXACT_ALIGN_STATE_CAP:
            raise _StateCapExceeded
        top = best(i + 1, mask, -1)  # leave pred[i] unmatched
        for j in positions.get(pred[i], ()):
            bit = 1 << j
            if mask & bit:
                continue
            new_chunk = 0 if j == chain else 1
            m, negc = best(i + 1, mask | bit, j + 1)
            cand = (m + 1, negc - new_chunk)
            if cand > top:
                top = cand
        memo[key] = top
        return top

    try:
        matches, neg_chunks = best(0, 0, -1)
    except _StateCapExceeded:
        return None
    finally:
        # `best` refers to itself through its closure, so this frame's locals
        # wait for the cyclic collector: free the memo now
        memo.clear()
    assert matches == target
    return matches, -neg_chunks


def _align_greedy(pred: Sequence[str], ref: Sequence[str], quota: Counter) -> tuple[int, int]:
    """Order-preserving greedy alignment that prefers continuing a chunk."""
    remaining = Counter(quota)
    used = [False] * len(ref)
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    matches = 0
    chunks = 0
    chain = -1
    for tok in pred:
        if remaining[tok] <= 0:
            chain = -1
            continue
        cands = [j for j in positions[tok] if not used[j]]
        if not cands:
            chain = -1
            continue
        j = chain if chain in cands else cands[0]
        used[j] = True
        remaining[tok] -= 1
        matches += 1
        if j != chain:
            chunks += 1
        chain = j + 1
    return matches, chunks


def _align(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Exact-match unigram alignment: (match count, chunk count).

    Matches are maximized first (per-token minimum of occurrence counts), then
    the number of chunks (maximal runs contiguous in both sequences) is
    minimized.
    """
    pred = tuple(pred)
    ref = tuple(ref)
    pred_counts = Counter(pred)
    ref_counts = Counter(ref)
    quota = Counter({t: min(c, ref_counts[t]) for t, c in pred_counts.items() if ref_counts[t]})
    m = sum(quota.values())
    if m == 0:
        return 0, 0
    if len(ref) <= _EXACT_ALIGN_MAX_REF and len(pred) <= _EXACT_ALIGN_MAX_PRED:
        exact = _align_exact(pred, ref, quota)
        if exact is not None:
            return exact
    return _align_greedy(pred, ref, quota)


def meteor(pred: Sequence[str], ref: Sequence[str], params: MeteorParams = MeteorParams()) -> float:
    """Unigram-alignment score with a fragmentation penalty.

    Every token maps to at most one token on the other side (exact match only);
    the parametrized harmonic mean of precision and recall is discounted by
    gamma * (chunks / matches) ** beta.
    """
    m, chunks = _align(pred, ref)
    if m == 0:
        return 0.0
    p = m / len(pred)
    r = m / len(ref)
    fmean = p * r / (params.alpha * p + (1 - params.alpha) * r)
    penalty = params.gamma * (chunks / m) ** params.beta
    return fmean * (1.0 - penalty)


def edit_distance_norm(pred: str, ref: str) -> float:
    """1 - levenshtein/max(len); higher means more similar. Both empty -> 1."""
    if not pred and not ref:
        return 1.0
    return 1.0 - _kernels.levenshtein(pred, ref) / max(len(pred), len(ref))


def _trim_trailing(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.split("\n"))


def exact_match(pred: str, ref: str) -> int:
    """1 iff the strings are equal after per-line trailing-whitespace trim."""
    return int(_trim_trailing(pred) == _trim_trailing(ref))


def compilation_accuracy(pred: str, checker: SyntaxChecker) -> int:
    """1 iff the checker accepts the snippet; infrastructure failures raise."""
    return int(checker.check(pred).accepted)


@dataclass(frozen=True)
class MetricConfig:
    """Everything evaluate_sample needs to be deterministic and auditable."""

    tokenizers: Mapping[str, TokenizerConfig] = field(
        default_factory=lambda: {
            "assembly": CODE_TOKENIZER,
            "python-like": CODE_TOKENIZER,
            "other": CODE_TOKENIZER,
        }
    )
    # METEOR mirrors the usual tooling for that metric, which splits
    # punctuation into its own tokens.
    meteor_tokenizer: TokenizerConfig = TokenizerConfig(mode="code-punct", newline_is_token=True)
    bleu_smoothing: str = "none"
    bleu_epsilon: float = DEFAULT_BLEU_EPSILON
    meteor_params: MeteorParams = MeteorParams()
    metrics: tuple[str, ...] = CANONICAL_METRICS
    checker: str | SyntaxChecker | None = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", canonical_subset(self.metrics))
        if self.bleu_smoothing not in BLEU_SMOOTHING_MODES:
            raise ConfigError(f"unknown BLEU smoothing {self.bleu_smoothing!r}")
        if self.checker == "none":
            object.__setattr__(self, "checker", None)
        if "CA" in self.metrics and self.checker is None:
            object.__setattr__(
                self, "metrics", tuple(m for m in self.metrics if m != "CA")
            )

    def tokenizer_for(self, language: str) -> TokenizerConfig:
        try:
            return self.tokenizers[language]
        except KeyError:
            raise ConfigError(f"no tokenizer configured for language {language!r}") from None

    def checker_for(self, language: str) -> SyntaxChecker | None:
        if self.checker is None:
            return None
        if isinstance(self.checker, SyntaxChecker):
            return self.checker
        return checker_for_language(self.checker, language)


def evaluate_pair(
    prediction: str, reference: str, language: str, cfg: MetricConfig
) -> MetricVector:
    """Compute the configured metric vector for one prediction/reference pair."""
    tok_cfg = cfg.tokenizer_for(language)
    pred = tokenize(prediction, tok_cfg)
    ref = tokenize(reference, tok_cfg)
    wanted = set(cfg.metrics)

    values: dict[str, float] = {}
    for n in ROUGE_ORDERS:
        names = (f"ROUGE-{n}-P", f"ROUGE-{n}-R", f"ROUGE-{n}-F1")
        if wanted & set(names):
            p, r, f1 = rouge_n(pred, ref, n)
            values.update(zip(names, (p, r, f1)))
    names = ("ROUGE-L-P", "ROUGE-L-R", "ROUGE-L-F1")
    if wanted & set(names):
        p, r, f1 = rouge_l(pred, ref)
        values.update(zip(names, (p, r, f1)))
    for n in BLEU_ORDERS:
        if f"BLEU-{n}" in wanted:
            values[f"BLEU-{n}"] = bleu(
                pred, ref, max_n=n, smoothing=cfg.bleu_smoothing, epsilon=cfg.bleu_epsilon
            )
    if "METEOR" in wanted:
        m_pred = tokenize(prediction, cfg.meteor_tokenizer)
        m_ref = tokenize(reference, cfg.meteor_tokenizer)
        values["METEOR"] = meteor(m_pred, m_ref, cfg.meteor_params)
    if "EM" in wanted:
        values["EM"] = float(exact_match(prediction, reference))
    if "ED" in wanted:
        values["ED"] = edit_distance_norm(prediction, reference)
    if "CA" in wanted:
        checker = cfg.checker_for(language)
        if checker is None:
            raise ConfigError("CA metric enabled but no checker configured")
        values["CA"] = float(compilation_accuracy(prediction, checker))
    return {name: values[name] for name in cfg.metrics}


def evaluate_sample(sample: Sample, cfg: MetricConfig) -> MetricVector:
    """Metric vector for one corpus sample."""
    return evaluate_pair(sample.prediction, sample.reference, sample.language, cfg)


def evaluate_corpus(
    corpus, cfg: MetricConfig, jobs: int = 1
) -> list[tuple[str, MetricVector]]:
    """Evaluate every sample; rows come back sorted by sample id.

    jobs > 1 evaluates samples in a thread pool, which also caps the number of
    concurrent external checker processes.
    """
    if jobs <= 1:
        rows = [(s.id, evaluate_sample(s, cfg)) for s in corpus]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            vectors = list(pool.map(lambda s: evaluate_sample(s, cfg), corpus))
        rows = [(s.id, v) for s, v in zip(corpus, vectors)]
    rows.sort(key=lambda row: row[0])
    return rows
