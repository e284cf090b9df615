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

from ._kernels import lcs_length, levenshtein
from ._record import Record
from .checkers import SyntaxChecker, checker_for_language
from .corpus import LANGUAGES
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
    if not isinstance(names, (list, tuple)) or not all(isinstance(m, str) for m in names):
        raise ConfigError(f"metrics must be a list of metric names, got {names!r}")
    wanted = set(names)
    unknown = wanted - set(CANONICAL_METRICS)
    if unknown:
        raise ConfigError(f"unknown metric name(s): {', '.join(sorted(unknown))}")
    if len(wanted) < len(names):
        repeated = next(m for k, m in enumerate(names) if m in names[:k])
        raise ConfigError(f"metric {repeated!r} appears twice")
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


def rouge_l(pred: Sequence[str], ref: Sequence[str]) -> tuple[float, float, float]:
    """ROUGE with the n-gram match replaced by the longest common subsequence."""
    return _prf(lcs_length(pred, ref), len(pred), len(ref))


BLEU_SMOOTHING_MODES = ("none", "epsilon")

# Default epsilon substituted for zero modified precisions under "epsilon"
# smoothing. Configurable; 0.1 keeps short no-overlap pairs on the scale the
# usual toolchains report rather than collapsing them to ~0.
DEFAULT_BLEU_EPSILON = 0.1


def _check_bleu_options(smoothing: str, epsilon: float) -> None:
    if smoothing not in BLEU_SMOOTHING_MODES:
        raise ConfigError(f"unknown BLEU smoothing {smoothing!r}")
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise ConfigError(f"bleu epsilon must be a number, got {epsilon!r}")
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


def _align_path(pred: Sequence[str], ref: Sequence[str]) -> tuple[int, int, str]:
    """Exact-match unigram alignment: (match count, chunk count, path).

    Matches are maximized first (per-token minimum of occurrence counts), then
    the number of chunks (maximal runs contiguous in both sequences) is
    minimized: exactly when ref has at most 16 tokens ("greedy-proven" when
    greedy meets the link bound, else "exact"), else greedily ("greedy-by-length").
    """
    m, chunks = _align_greedy(pred, ref)
    if len(ref) > _EXACT_ALIGN_MAX_REF:
        return m, chunks, "greedy-by-length"
    # Every partial alignment extends to one with m matches, so the fewest
    # chunks is m minus the most links. Links pair off equal bigrams of the two
    # sides, so their count is at most the shared bigrams, and at most m - 1;
    # one chunk or none meets m - 1 without counting the bigrams.
    if chunks <= 1 or m - chunks >= min(m - 1, _clipped(pred, ref, (2,))[0][0]):
        return m, chunks, "greedy-proven"
    return m, _fewest_chunks(pred, ref, m, chunks), "exact"


def _fewest_chunks(pred: Sequence[str], ref: Sequence[str], m: int, chunks: int) -> int:
    """The fewest chunks of an alignment of pred and ref with m matches, by
    exact search; `chunks` is the count of a greedy one, the first incumbent.
    Apart from `_align_path`, so that a pair the greedy alignment settles
    makes none of the search's closure cells."""
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
    segments: list[str] = []
    ends: list[float] = [0]
    searched: set[tuple[int, tuple[str, ...]]] = set()

    def most_links(a: int, links: int, best: int) -> int:
        """Most links over the sets of disjoint reference segments that extend
        the chosen `segments` with segments starting at ref position a or
        later, by depth-first branch and bound; `best` is the incumbent, at
        least `links`.

        pred_text and ref_text spell one character per token. A segment of w
        tokens placed on an equal, disjoint stretch of pred gives w - 1 links.
        ends[mask] is the earliest end of a disjoint placement of the segments
        whose bits are set in mask, or inf if there is none. For a fixed order
        in pred, placing each segment at its first start at or after the
        previous one's end is optimal, so ends[mask] is the least, over the
        segment placed last, of that segment's first start at or after
        ends[mask without it], plus w. The search tries the segments at a
        longest first (longest[a] tokens is the longest that occurs in pred),
        then skips a. reach[a], the most links from a on with overlaps in pred
        ignored, prunes it. The ends, the links and the chunk bound of a set
        depend only on its multiset of segments, so a try whose next position
        and segments, sorted, are in `searched` is skipped: the incumbent
        already holds the best it can reach.
        """
        # a set of s segments leaves at least s chunks of the m matches
        most = m - len(segments) - 1
        while best < min(most, links + reach[a]):
            size = len(ends)
            for w in range(longest[a], 1, -1):
                if links + w - 1 + reach[a + w] <= best:
                    continue
                segment = ref_text[a : a + w]
                segments.append(segment)
                key = (a + w, tuple(sorted(segments)))
                if key in searched:
                    segments.pop()
                    continue
                searched.add(key)
                for mask in range(size):
                    end = ends[mask]
                    if end != math.inf:
                        start = pred_text.find(segment, end)
                        end = start + w if start >= 0 else math.inf
                        rest = mask
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            other = segments[low.bit_length() - 1]
                            before = ends[mask ^ low | size]
                            if before + len(other) < end:
                                start = pred_text.find(other, before)
                                if start >= 0 and start + len(other) < end:
                                    end = start + len(other)
                    ends.append(end)
                if ends[-1] != math.inf:
                    best = most_links(a + w, links + w - 1, max(best, links + w - 1))
                del ends[size:]
                segments.pop()
            a += 1
        return best

    links = most_links(0, 0, m - chunks)
    del most_links  # it refers to itself: a cycle the collector would have to free
    return m - links


def _meteor_score(m: int, chunks: int, pred_len: int, ref_len: int, params: MeteorParams) -> float:
    """METEOR of m matched tokens in `chunks` chunks between sequences of
    pred_len and ref_len tokens."""
    if m == 0:
        return 0.0
    p = m / pred_len
    r = m / ref_len
    fmean = p * r / (params.alpha * p + (1 - params.alpha) * r)
    penalty = params.gamma * (chunks / m) ** params.beta
    return fmean * (1.0 - penalty)


def meteor(pred: Sequence[str], ref: Sequence[str], params: MeteorParams = MeteorParams()) -> float:
    """Unigram-alignment score with a fragmentation penalty.

    Every token maps to at most one token on the other side (exact match only);
    the parametrized harmonic mean of precision and recall is discounted by
    gamma * (chunks / matches) ** beta.
    """
    m, chunks, _ = _align_path(pred, ref)
    return _meteor_score(m, chunks, len(pred), len(ref), params)


def _similarity(distance: int, longest: int) -> float:
    """1 - distance/longest, where longest is the longer string's length."""
    return 1.0 - distance / longest if longest else 1.0


def edit_distance_norm(pred: str, ref: str) -> float:
    """1 - levenshtein/max(len); higher means more similar. Both empty -> 1."""
    return _similarity(levenshtein(pred, ref), max(len(pred), len(ref)))


def _trim_trailing(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.split("\n"))


def exact_match(pred: str, ref: str) -> int:
    """1 iff the strings are equal after per-line trailing-whitespace trim."""
    return int(_trim_trailing(pred) == _trim_trailing(ref))


def compilation_accuracy(pred: str, checker: SyntaxChecker) -> int:
    """1 iff the checker accepts the snippet; infrastructure failures raise."""
    return int(checker.check(pred).accepted)


class MetricConfig(Record):
    """Everything evaluate_pair needs to be deterministic and auditable.

    tokenizers becomes a new dict naming every corpus language; a language
    the given map leaves out gets CODE_TOKENIZER. METEOR's tokenizer mirrors
    the usual tooling for that metric, which splits punctuation into its own
    tokens. checker is a selector (none | auto | assembly | python |
    cmd:<template>), a SyntaxChecker, or None; it is resolved per corpus
    language once, here, into `_checkers`. `_wanted` holds the metrics, with
    "n-gram" and "ROUGE-L" standing for their groups. Neither of the two is
    compared or shown in the repr.
    """

    def __init__(
        self,
        tokenizers: Mapping[str, TokenizerConfig] = MappingProxyType({}),
        meteor_tokenizer: TokenizerConfig = TokenizerConfig(mode="code-punct", newline_is_token=True),
        bleu_smoothing: str = "none",
        bleu_epsilon: float = DEFAULT_BLEU_EPSILON,
        meteor_params: MeteorParams = MeteorParams(),
        metrics: tuple[str, ...] = CANONICAL_METRICS,
        checker: str | SyntaxChecker | None = "auto",
    ) -> None:
        metrics = canonical_subset(metrics)
        _check_bleu_options(bleu_smoothing, bleu_epsilon)
        if not isinstance(meteor_tokenizer, TokenizerConfig):
            raise ConfigError(f"meteor_tokenizer must be a TokenizerConfig, got {meteor_tokenizer!r}")
        if not isinstance(meteor_params, MeteorParams):
            raise ConfigError(f"meteor_params must be a MeteorParams, got {meteor_params!r}")
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
        tokenizers = {lang: tokenizers.get(lang, CODE_TOKENIZER) for lang in LANGUAGES}
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
        return self._checkers[language]  # _checkers holds every corpus language


def _identical_counts(length: int) -> list[tuple[int, int, int]]:
    """`_clipped(seq, seq, NGRAM_ORDERS)` for any seq of `length` tokens:
    each of its windows is matched by itself."""
    return [(w, w, w) for w in (max(length - n + 1, 0) for n in NGRAM_ORDERS)]


def evaluate_pair(
    prediction: str, reference: str, language: str, cfg: MetricConfig
) -> MetricVector:
    """Compute the configured metric vector for one prediction/reference pair.

    Every score but CA is a formula over counts: n-gram matches, the LCS
    length, METEOR's matches and chunks, the edit distance and the EM bit.
    When prediction == reference those counts are known without a kernel or
    an alignment, and the same formulas turn them into the same scores.
    """
    tok_cfg = cfg.tokenizer_for(language)
    pred = tokenize(prediction, tok_cfg)
    same = prediction == reference
    ref = pred if same else tokenize(reference, tok_cfg)
    wanted = cfg._wanted

    values: dict[str, float] = {}
    if "n-gram" in wanted:
        counts = _identical_counts(len(pred)) if same else _clipped(pred, ref, NGRAM_ORDERS)
        for names, order_counts in zip(_ROUGE_N_NAMES, counts):
            values.update(zip(names, _prf(*order_counts)))
        scores = _bleu_scores(counts, len(pred), len(ref), cfg.bleu_smoothing, cfg.bleu_epsilon)
        values.update(zip(_BLEU_NAMES, scores))
    if "ROUGE-L" in wanted:
        scores = _prf(len(pred), len(pred), len(ref)) if same else rouge_l(pred, ref)
        values.update(zip(_ROUGE_L_NAMES, scores))
    if "METEOR" in wanted:
        m_pred = tokenize(prediction, cfg.meteor_tokenizer)
        if same:  # every token matched, in one chunk: greedy's count, proven by chunks <= 1
            m = len(m_pred)
            values["METEOR"] = _meteor_score(m, min(m, 1), m, m, cfg.meteor_params)
        else:
            m_ref = tokenize(reference, cfg.meteor_tokenizer)
            values["METEOR"] = meteor(m_pred, m_ref, cfg.meteor_params)
    if "EM" in wanted:
        values["EM"] = 1.0 if same else float(exact_match(prediction, reference))
    if "ED" in wanted:
        values["ED"] = (
            _similarity(0, len(prediction)) if same else edit_distance_norm(prediction, reference)
        )
    if "CA" in wanted:  # MetricConfig keeps CA only with a checker for every language
        values["CA"] = float(compilation_accuracy(prediction, cfg.checker_for(language)))
    return {name: values[name] for name in cfg.metrics}


def evaluate_corpus(
    corpus, cfg: MetricConfig, jobs: int = 1
) -> list[tuple[str, MetricVector]]:
    """Evaluate every sample; rows come back sorted by sample id.

    Every sample is scored by `evaluate_pair` on the calling thread. jobs
    bounds how many external-checker commands run at once: with jobs > 1,
    CA wanted and a checker that runs an external command (for every
    language, or for none), the CA checks start up front in a pool of jobs
    threads, this thread scores the other metrics meanwhile, and each row
    takes CA from its check. So the rows are the same for every jobs value. A
    check or score that raises cancels the checks not yet started.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    kinds = {checker.kind for checker in cfg._checkers.values() if checker is not None}
    if jobs == 1 or "CA" not in cfg._wanted or "external-command" not in kinds:
        rows = [(s.id, evaluate_pair(s.prediction, s.reference, s.language, cfg)) for s in corpus]
    else:
        from concurrent.futures import ThreadPoolExecutor

        rest = cfg._replace(metrics=cfg.metrics[1:])  # CA is CANONICAL_METRICS[0]
        pool = ThreadPoolExecutor(max_workers=jobs)

        def stop_on_error(check) -> None:
            # only checks queued behind this one are still pending: the pool
            # starts checks in sample order and this thread reads them in that
            # order, so it meets this error before any cancelled check
            if not check.cancelled() and check.exception() is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        try:
            checks = [
                pool.submit(compilation_accuracy, s.prediction, cfg.checker_for(s.language))
                for s in corpus
            ]
            for check in checks:
                check.add_done_callback(stop_on_error)
            rows = []
            for s, check in zip(corpus, checks):
                vector = evaluate_pair(s.prediction, s.reference, s.language, rest)
                rows.append((s.id, {"CA": float(check.result()), **vector}))
        finally:
            pool.shutdown(cancel_futures=True)
    rows.sort(key=lambda row: row[0])
    return rows
