"""Output-similarity metrics for (prediction, reference) snippet pairs.

Twenty-three per-sample scores, all in [0, 1]: compilation accuracy, ROUGE-n
precision/recall/F1 for n in 1..4, ROUGE-L P/R/F1, BLEU-1..4, exact match,
METEOR and normalized edit distance. Token metrics operate on token tuples;
edit distance and exact match see the raw strings. Any precision/recall/F1
with a zero denominator is 0.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import chain
from types import MappingProxyType

from . import _kernels
from ._record import Record
from .checkers import SyntaxChecker, checker_for_language
from .corpus import LANGUAGES, Sample
from .errors import ConfigError
from .textprep import CODE_TOKENIZER, TokenizerConfig, tokenize

# The n-gram orders of ROUGE-n and BLEU-n.
NGRAM_ORDERS = (1, 2, 3, 4)
_ROUGE_N_NAMES = tuple((f"ROUGE-{n}-P", f"ROUGE-{n}-R", f"ROUGE-{n}-F1") for n in NGRAM_ORDERS)
_BLEU_NAMES = tuple(f"BLEU-{n}" for n in NGRAM_ORDERS)
_NGRAM_METRICS = frozenset(_BLEU_NAMES).union(*_ROUGE_N_NAMES)
_ROUGE_L_NAMES = ("ROUGE-L-P", "ROUGE-L-R", "ROUGE-L-F1")

# Canonical metric order: the fixed row order of every report.
CANONICAL_METRICS: tuple[str, ...] = (
    "CA",
    *(name for names in _ROUGE_N_NAMES for name in names),
    *_ROUGE_L_NAMES,
    *_BLEU_NAMES,
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
    return _windows(seq, (n,))


def _windows(seq: Sequence[str], orders: Sequence[int]) -> Counter:
    """One multiset of the windows of seq of every order in orders. Windows of
    different orders are tuples of different lengths, so they never collide."""
    if orders == NGRAM_ORDERS:  # spelled out: the per-pair case
        s1, s2, s3 = seq[1:], seq[2:], seq[3:]
        return Counter(chain(zip(seq), zip(seq, s1), zip(seq, s1, s2), zip(seq, s1, s2, s3)))
    return Counter(chain.from_iterable(zip(*(seq[k:] for k in range(n))) for n in orders))


def _clipped(
    pred: Sequence[str], ref: Sequence[str], orders: Sequence[int]
) -> list[tuple[int, int, int]]:
    """(clipped matches, pred n-grams, ref n-grams) for each order n in
    orders, the counts that ROUGE-n and BLEU-n are both derived from."""
    ref_grams = _windows(ref, orders).get
    matches = [0] * (max(orders) + 1)
    for gram, count in _windows(pred, orders).items():
        limit = ref_grams(gram)
        if limit:
            matches[len(gram)] += count if count < limit else limit
    return [(matches[n], max(len(pred) - n + 1, 0), max(len(ref) - n + 1, 0)) for n in orders]


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _prf(match: int, total_pred: int, total_ref: int) -> tuple[float, float, float]:
    p = match / total_pred if total_pred else 0.0
    r = match / total_ref if total_ref else 0.0
    return p, r, _f1(p, r)


def rouge_n(pred: Sequence[str], ref: Sequence[str], n: int) -> tuple[float, float, float]:
    """N-gram overlap precision / recall / F1.

    The multiset intersection of n-gram counts is divided by the prediction's
    n-gram count (precision) and the reference's (recall).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _prf(*_clipped(pred, ref, (n,))[0])


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


def _check_bleu_options(smoothing: str, epsilon: float) -> None:
    if smoothing not in BLEU_SMOOTHING_MODES:
        raise ConfigError(f"unknown BLEU smoothing {smoothing!r}")
    if not 0 < epsilon <= 1:  # also rejects NaN
        raise ConfigError(f"bleu epsilon must be in (0, 1], got {epsilon}")


def _bleu_scores(
    counts, pred_len: int, ref_len: int, smoothing: str, epsilon: float
) -> list[float]:
    """BLEU-1..len(counts) from the `_clipped` counts of orders 1, 2, ..., as
    `bleu` defines them: BLEU-n is read off the running log-sum after order n,
    and an unsmoothed zero precision zeroes its order and every later one."""
    scores = [0.0] * len(counts)
    if not pred_len:
        return scores
    bp = 1.0 if pred_len >= ref_len else math.exp(1.0 - ref_len / pred_len)
    log_sum = 0.0
    for n, (match, total_pred, total_ref) in enumerate(counts, 1):
        p = match / total_pred if total_pred else (0.0 if total_ref else 1.0)
        if p == 0.0:
            if smoothing == "none" or n == 1:
                break
            p = epsilon
        log_sum += math.log(p)
        scores[n - 1] = bp * math.exp(log_sum / n)
    return scores


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
    _check_bleu_options(smoothing, epsilon)
    counts = _clipped(pred, ref, NGRAM_ORDERS[:max_n])
    return _bleu_scores(counts, len(pred), len(ref), smoothing, epsilon)[-1]


class MeteorParams(Record):
    """Harmonic-mean weight, fragmentation exponent and penalty weight."""

    _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float = 0.9, beta: float = 3.0, gamma: float = 0.5) -> None:
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"meteor {name} must be a number, got {value!r}")
        if not 0 < alpha < 1:
            raise ConfigError(f"meteor alpha must be in (0,1), got {alpha}")
        if not beta > 0:  # also rejects NaN
            raise ConfigError(f"meteor beta must be > 0, got {beta}")
        if not 0 <= gamma < 1:
            raise ConfigError(f"meteor gamma must be in [0,1), got {gamma}")
        self.__dict__.update(alpha=alpha, beta=beta, gamma=gamma)


# Minimum-chunk alignment contains Minimum Common String Partition, which is
# NP-hard (Goldstein, Kolman & Zheng 2005) but fixed-parameter tractable in the
# number of parts (Bulteau & Komusiewicz 2014). The exact search below takes
# a number of steps bounded by a function of the reference length alone, each
# a substring search in the prediction, so it runs when ref has at most 16
# tokens, whatever the prediction's length; longer references take the greedy
# alignment. Raising the limit changes scores.
_EXACT_ALIGN_MAX_REF = 16


def _align_greedy(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Order-preserving greedy alignment that prefers continuing a chunk.

    Each prediction token takes the reference position right after the last
    match when that position holds the same token and is unused, else the
    first unused position of the token. It matches every token while the
    reference has an unused copy, so it reaches the maximum match count.
    """
    n_ref = len(ref)
    used = [False] * n_ref
    # Each token's reference positions, last first. Positions only ever become
    # used, so dropping used ones from the end as they surface keeps the first
    # unused position at the end, and the whole pass is linear.
    unused: dict[str, list[int]] = {}
    for j in range(n_ref - 1, -1, -1):
        unused.setdefault(ref[j], []).append(j)
    matches = 0
    chunks = 0
    chain = n_ref
    for tok in pred:
        if chain < n_ref and ref[chain] == tok and not used[chain]:
            j = chain
        else:
            js = unused.get(tok)
            while js and used[js[-1]]:
                js.pop()
            if not js:
                chain = n_ref
                continue
            j = js.pop()
            chunks += 1
        used[j] = True
        matches += 1
        chain = j + 1
    return matches, chunks


def _most_links(
    pred: str,
    ref: str,
    longest: list[int],
    reach: list[int],
    matches: int,
    a: int,
    links: int,
    segments: list[str],
    ends: list[float],
    best: int,
    searched: set[tuple[int, tuple[str, ...]]],
) -> int:
    """Most links over the sets of disjoint reference segments that extend the
    chosen `segments` with segments starting at ref position a or later, by
    depth-first branch and bound; `best` is the incumbent, at least `links`.

    pred and ref spell one character per token. A segment of w tokens placed
    on an equal, disjoint stretch of pred gives w - 1 links. ends[mask] is the
    earliest end of a disjoint placement of the segments whose bits are set in
    mask, or inf if there is none. For a fixed order in pred, placing each
    segment at its first start at or after the previous one's end is optimal,
    so ends[mask] is the least, over the segment placed last, of that
    segment's first start at or after ends[mask without it], plus w. The
    search tries the segments at a longest first (longest[a] tokens is the
    longest that occurs in pred), then skips a. reach[a], the most links from
    a on with overlaps in pred ignored, prunes it. The ends, the links and the
    chunk bound of a set depend only on its multiset of segments, so a try
    whose next position and segments, sorted, are in `searched` is skipped:
    the incumbent already holds the best it can reach.
    """
    # a set of s segments leaves at least s chunks of the m matches
    most = matches - len(segments) - 1
    while best < min(most, links + reach[a]):
        size = len(ends)
        for w in range(longest[a], 1, -1):
            if links + w - 1 + reach[a + w] <= best:
                continue
            segment = ref[a : a + w]
            segments.append(segment)
            key = (a + w, tuple(sorted(segments)))
            if key in searched:
                segments.pop()
                continue
            searched.add(key)
            for mask in range(size):
                end = ends[mask]
                if end != math.inf:
                    start = pred.find(segment, end)
                    end = start + w if start >= 0 else math.inf
                    rest = mask
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        other = segments[low.bit_length() - 1]
                        before = ends[mask ^ low | size]
                        if before + len(other) < end:
                            start = pred.find(other, before)
                            if start >= 0 and start + len(other) < end:
                                end = start + len(other)
                ends.append(end)
            if ends[-1] != math.inf:
                best = _most_links(
                    pred, ref, longest, reach, matches, a + w, links + w - 1, segments, ends,
                    max(best, links + w - 1), searched,
                )
            del ends[size:]
            segments.pop()
        a += 1
    return best


def _align_path(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int, str]:
    """`_align` plus the path that produced it: "greedy-by-length",
    "greedy-proven" (greedy meets the link bound) or "exact"."""
    m, chunks = _align_greedy(pred, ref)
    if len(ref) > _EXACT_ALIGN_MAX_REF:
        return m, chunks, "greedy-by-length"
    # Every partial alignment extends to one with m matches, so the fewest
    # chunks is m minus the most links. Links pair off equal bigrams of the two
    # sides, so their count is at most the shared bigrams, and at most m - 1;
    # one chunk or none meets m - 1 without counting the bigrams.
    if chunks <= 1 or m - chunks >= min(m - 1, _clipped(pred, ref, (2,))[0][0]):
        return m, chunks, "greedy-proven"
    # one character per reference token, and "\0" for any other token, so
    # that str.find locates segments
    codes = {tok: chr(i) for i, tok in enumerate(dict.fromkeys(ref), 1)}
    ref_text = "".join([codes[tok] for tok in ref])
    pred_text = "".join([codes.get(tok, "\0") for tok in pred])
    longest = [1] * len(ref)
    reach = [0] * (len(ref) + 1)
    for a in range(len(ref) - 2, -1, -1):
        w = 1
        while a + w < len(ref) and ref_text[a : a + w + 1] in pred_text:
            w += 1
        longest[a] = w
        reach[a] = max([reach[a + 1]] + [v - 1 + reach[a + v] for v in range(2, w + 1)])
    links = _most_links(pred_text, ref_text, longest, reach, m, 0, 0, [], [0], m - chunks, set())
    return m, m - links, "exact"


def _align(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int]:
    """Exact-match unigram alignment: (match count, chunk count).

    Matches are maximized first (per-token minimum of occurrence counts), then
    the number of chunks (maximal runs contiguous in both sequences) is
    minimized, exactly when ref has at most 16 tokens, else greedily.
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


_DEFAULT_TOKENIZERS = MappingProxyType(dict.fromkeys(LANGUAGES, CODE_TOKENIZER))


class MetricConfig(Record):
    """Everything evaluate_sample needs to be deterministic and auditable.

    tokenizers defaults to a new dict giving every corpus language
    CODE_TOKENIZER. METEOR's tokenizer mirrors the usual tooling for that
    metric, which splits punctuation into its own tokens. checker is a
    selector (none | auto | assembly | python | cmd:<template>), a
    SyntaxChecker, or None; it is resolved per corpus language once, here,
    into `_checkers`. `_wanted` holds the metrics, with "n-gram" and
    "ROUGE-L" standing for their groups. Neither of the two is compared or
    shown in the repr.
    """

    _fields = (
        "tokenizers", "meteor_tokenizer", "bleu_smoothing", "bleu_epsilon", "meteor_params",
        "metrics", "checker",
    )

    def __init__(
        self,
        tokenizers: Mapping[str, TokenizerConfig] = _DEFAULT_TOKENIZERS,
        meteor_tokenizer: TokenizerConfig = TokenizerConfig(mode="code-punct", newline_is_token=True),
        bleu_smoothing: str = "none",
        bleu_epsilon: float = DEFAULT_BLEU_EPSILON,
        meteor_params: MeteorParams = MeteorParams(),
        metrics: tuple[str, ...] = CANONICAL_METRICS,
        checker: str | SyntaxChecker | None = "auto",
    ) -> None:
        if tokenizers is _DEFAULT_TOKENIZERS:  # a dict of its own, as before
            tokenizers = dict(tokenizers)
        metrics = canonical_subset(metrics)
        _check_bleu_options(bleu_smoothing, bleu_epsilon)
        if not isinstance(tokenizers, Mapping):
            raise ConfigError(f"tokenizers must map languages to TokenizerConfigs, got {tokenizers!r}")
        for language, tok in tokenizers.items():
            if language not in LANGUAGES:
                raise ConfigError(
                    f"tokenizers.{language}: not a corpus language "
                    f"(expected one of {', '.join(LANGUAGES)})"
                )
            if not isinstance(tok, TokenizerConfig):
                raise ConfigError(f"tokenizers.{language} must be a TokenizerConfig, got {tok!r}")
        if checker == "none":
            checker = None
        if isinstance(checker, str):
            checkers = {lang: checker_for_language(checker, lang) for lang in LANGUAGES}
        elif checker is None or isinstance(checker, SyntaxChecker):
            checkers = dict.fromkeys(LANGUAGES, checker)
        else:
            raise ConfigError(
                "checker must be none, auto, assembly, python, cmd:<template>, "
                f"a SyntaxChecker or None, got {checker!r}"
            )
        if "CA" in metrics and checker is None:
            metrics = tuple(m for m in metrics if m != "CA")
        wanted = set(metrics)
        if wanted & _NGRAM_METRICS:
            wanted.add("n-gram")
        if wanted.intersection(_ROUGE_L_NAMES):
            wanted.add("ROUGE-L")
        self.__dict__.update(
            tokenizers=tokenizers, meteor_tokenizer=meteor_tokenizer,
            bleu_smoothing=bleu_smoothing, bleu_epsilon=bleu_epsilon,
            meteor_params=meteor_params, metrics=metrics, checker=checker,
            _checkers=checkers, _wanted=frozenset(wanted),
        )

    def tokenizer_for(self, language: str) -> TokenizerConfig:
        try:
            return self.tokenizers[language]
        except KeyError:
            raise ConfigError(f"no tokenizer configured for language {language!r}") from None

    def checker_for(self, language: str) -> SyntaxChecker | None:
        try:
            return self._checkers[language]
        except KeyError:
            raise ConfigError(f"no checker for language {language!r}") from None


def evaluate_pair(
    prediction: str, reference: str, language: str, cfg: MetricConfig
) -> MetricVector:
    """Compute the configured metric vector for one prediction/reference pair."""
    return _score_pair(prediction, reference, language, cfg, None)


def _score_pair(
    prediction: str, reference: str, language: str, cfg: MetricConfig,
    ca: concurrent.futures.Future | None,
) -> MetricVector:
    """evaluate_pair, taking CA from `ca`, a future of compilation_accuracy,
    when one is given."""
    tok_cfg = cfg.tokenizer_for(language)
    pred = tokenize(prediction, tok_cfg)
    ref = tokenize(reference, tok_cfg)
    wanted = cfg._wanted

    values: dict[str, float] = {}
    if "n-gram" in wanted:
        counts = _clipped(pred, ref, NGRAM_ORDERS)
        for names, order_counts in zip(_ROUGE_N_NAMES, counts):
            values.update(zip(names, _prf(*order_counts)))
        scores = _bleu_scores(counts, len(pred), len(ref), cfg.bleu_smoothing, cfg.bleu_epsilon)
        values.update(zip(_BLEU_NAMES, scores))
    if "ROUGE-L" in wanted:
        values.update(zip(_ROUGE_L_NAMES, rouge_l(pred, ref)))
    if "METEOR" in wanted:
        m_pred = tokenize(prediction, cfg.meteor_tokenizer)
        m_ref = tokenize(reference, cfg.meteor_tokenizer)
        values["METEOR"] = meteor(m_pred, m_ref, cfg.meteor_params)
    if "EM" in wanted:
        values["EM"] = float(exact_match(prediction, reference))
    if "ED" in wanted:
        values["ED"] = edit_distance_norm(prediction, reference)
    if "CA" in wanted:
        if ca is None:
            checker = cfg.checker_for(language)
            if checker is None:
                raise ConfigError("CA metric enabled but no checker configured")
            values["CA"] = float(compilation_accuracy(prediction, checker))
        else:
            values["CA"] = float(ca.result())
    return {name: values[name] for name in cfg.metrics}


def evaluate_sample(sample: Sample, cfg: MetricConfig) -> MetricVector:
    """Metric vector for one corpus sample."""
    return evaluate_pair(sample.prediction, sample.reference, sample.language, cfg)


def _external_checker(sample: Sample, cfg: MetricConfig) -> SyntaxChecker | None:
    """The sample's CA checker if it runs an external command, else None."""
    checker = cfg.checker_for(sample.language)
    return checker if checker is not None and checker.kind == "external-command" else None


def evaluate_corpus(
    corpus, cfg: MetricConfig, jobs: int = 1
) -> list[tuple[str, MetricVector]]:
    """Evaluate every sample; rows come back sorted by sample id.

    Every metric is scored on the calling thread. jobs bounds how many
    external-checker commands run at once: with jobs > 1, the CA checks of
    the samples whose checker is an external command start up front in a pool
    of jobs threads and run while this thread scores. Nothing else depends on
    jobs, so the rows are the same for every value. A check or score that
    raises cancels the checks not yet started.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    checkers = []
    if jobs > 1 and "CA" in cfg._wanted:
        checkers = [_external_checker(s, cfg) for s in corpus]
    if not any(checkers):
        rows = [(s.id, evaluate_sample(s, cfg)) for s in corpus]
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=jobs)

        def stop_on_error(check: concurrent.futures.Future) -> None:
            # only checks queued behind this one are still pending: the pool
            # starts checks in sample order and this thread reads them in that
            # order, so it meets this error before any cancelled check
            if not check.cancelled() and check.exception() is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        try:
            checks = [
                None if checker is None else pool.submit(compilation_accuracy, s.prediction, checker)
                for s, checker in zip(corpus, checkers)
            ]
            for check in checks:
                if check is not None:
                    check.add_done_callback(stop_on_error)
            rows = [
                (s.id, _score_pair(s.prediction, s.reference, s.language, cfg, check))
                for s, check in zip(corpus, checks)
            ]
        finally:
            pool.shutdown(cancel_futures=True)
    rows.sort(key=lambda row: row[0])
    return rows
