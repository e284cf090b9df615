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


# Minimum-chunk alignment contains Minimum Common String Partition, which is
# NP-hard (Goldstein, Kolman & Zheng 2005), so the exact search has an explicit
# bound. Length rule: it runs only when ref has at most 16 tokens and pred at
# most 400; longer pairs take the greedy alignment. Node budget: after
# 200,000 search nodes it returns the best alignment found so far, which is
# never worse than greedy's. Both are deterministic.
_EXACT_ALIGN_MAX_REF = 16
_EXACT_ALIGN_MAX_PRED = 400
_EXACT_ALIGN_NODE_BUDGET = 200_000


def _align_greedy(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Order-preserving greedy alignment that prefers continuing a chunk.

    It matches every token while the reference has an unused copy, so it
    reaches the maximum match count.
    """
    used = [False] * len(ref)
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    matches = 0
    chunks = 0
    chain = -1
    for tok in pred:
        cands = [j for j in positions.get(tok, ()) if not used[j]]
        if not cands:
            chain = -1
            continue
        j = chain if chain in cands else cands[0]
        used[j] = True
        matches += 1
        if j != chain:
            chunks += 1
        chain = j + 1
    return matches, chunks


def _max_links(sites: list[tuple[int, list[int]]], best: int, upper: int) -> tuple[int, bool]:
    """Most links over all alignments, by iterative depth-first branch and bound.

    A link (i, j) aligns pred[i] to ref[j] and pred[i + 1] to ref[j + 1];
    `sites` pairs each pred position i having candidate links with their js. A
    node is (next site, used ref positions as a bitmask, ref position pred[i]
    is already aligned to or -1, links so far). A branch is dropped once
    linking every site left could not beat the incumbent `best`. Returns the
    most links found and whether the node budget left that proven.
    """
    stack = [(0, 0, -1, 0)]
    nodes = 0
    while stack:
        k, used, bound, links = stack.pop()
        if links > best:
            best = links
            if best == upper:
                return best, True
        if links + len(sites) - k <= best:
            continue
        nodes += 1
        if nodes > _EXACT_ALIGN_NODE_BUDGET:
            return best, False
        i, js = sites[k]
        follows = k + 1 < len(sites) and sites[k + 1][0] == i + 1
        stack.append((k + 1, used, -1, links))
        for j in reversed(js):
            if (j != bound if bound >= 0 else used >> j & 1) or used >> (j + 1) & 1:
                continue
            stack.append((k + 1, used | 3 << j, j + 1 if follows else -1, links + 1))
    return best, True


def _align_path(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int, str]:
    """`_align` plus the path that produced it: "greedy-by-length",
    "greedy-proven" (greedy meets the link bound), "exact" or "budget"."""
    m, chunks = _align_greedy(pred, ref)
    if len(ref) > _EXACT_ALIGN_MAX_REF or len(pred) > _EXACT_ALIGN_MAX_PRED:
        return m, chunks, "greedy-by-length"
    # Every partial alignment extends to one with m matches, so the fewest
    # chunks is m minus the most links. Links pair off equal bigrams of the two
    # sides, so their count is at most the shared bigrams, and at most m - 1.
    starts: dict[tuple[str, str], list[int]] = {}
    for j in range(len(ref) - 1):
        starts.setdefault((ref[j], ref[j + 1]), []).append(j)
    sites = []
    for i in range(len(pred) - 1):
        js = starts.get((pred[i], pred[i + 1]))
        if js:
            sites.append((i, js))
    shared = Counter((pred[i], pred[i + 1]) for i, _ in sites)
    upper = min(m - 1, sum(min(c, len(starts[bg])) for bg, c in shared.items()))
    if m - chunks >= upper:
        return m, chunks, "greedy-proven"
    links, proven = _max_links(sites, m - chunks, upper)
    return m, m - links, "exact" if proven else "budget"


def _align(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Exact-match unigram alignment: (match count, chunk count).

    Matches are maximized first (per-token minimum of occurrence counts), then
    the number of chunks (maximal runs contiguous in both sequences) is
    minimized, within the length rule and node budget above.
    """
    m, chunks, _ = _align_path(pred, ref)
    return m, chunks


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
