"""Independent brute-force oracles used to validate the production algorithms.

These deliberately follow the textbook recursive definitions, dynamic programs
or exhaustive enumeration rather than the bit-parallel/search formulations used
by the package, and must stay that way: tests compare the two routes against
each other.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import cache, lru_cache
from itertools import combinations


def lev_recursive(a, b) -> int:
    """Recursion on the edit-distance definition over prefix lengths,
    memoized, so it takes time proportional to len(a) * len(b)."""

    @cache
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = a[i - 1] != b[j - 1]
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + cost)

    return d(len(a), len(b))


def lev_dp(a, b) -> int:
    """Edit distance by the textbook two-row dynamic program, O(len(a) * len(b))."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        curr = [i]
        for j, cb in enumerate(b, 1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = curr
    return prev[-1]


def lcs_dp(a, b) -> int:
    """Longest common subsequence length by the textbook two-row dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, 1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(tok in it for tok in needle)


def lcs_enumerate(a, b) -> int:
    """Longest common subsequence by enumerating every subsequence of the
    shorter side, longest first. Exponential."""
    if len(a) > len(b):
        a, b = b, a
    for length in range(len(a), 0, -1):
        for picks in combinations(range(len(a)), length):
            if _is_subsequence([a[i] for i in picks], b):
                return length
    return 0


def ngrams_nested_loop(seq, n: int) -> Counter:
    """N-gram multiset by explicit window enumeration."""
    windows = []
    for start in range(len(seq)):
        window = []
        for offset in range(n):
            if start + offset >= len(seq):
                break
            window.append(seq[start + offset])
        if len(window) == n:
            windows.append(tuple(window))
    return Counter(windows)


def rouge_n_textbook(pred, ref, n: int) -> tuple[float, float, float]:
    """ROUGE-n precision / recall / F1 (Lin 2004) from nested-loop n-grams."""
    pred_grams = ngrams_nested_loop(pred, n)
    ref_grams = ngrams_nested_loop(ref, n)
    overlap = sum(min(count, ref_grams[gram]) for gram, count in pred_grams.items())
    p = overlap / sum(pred_grams.values()) if pred_grams else 0.0
    r = overlap / sum(ref_grams.values()) if ref_grams else 0.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def bleu_textbook(pred, ref, max_n: int, smoothing: str, epsilon: float) -> float:
    """Single-reference sentence BLEU (Papineni et al. 2002): the brevity
    penalty times the geometric mean of the modified (clipped) n-gram
    precisions of orders 1..max_n, each order recounted from scratch.

    An empty prediction scores 0. An order where neither side has an n-gram
    has precision 1. A zero precision zeroes the score, unless smoothing is
    "epsilon" and the order is 2 or more, when `epsilon` stands in for it.
    """
    if not pred:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        pred_grams = ngrams_nested_loop(pred, n)
        ref_grams = ngrams_nested_loop(ref, n)
        clipped = sum(min(count, ref_grams[gram]) for gram, count in pred_grams.items())
        if pred_grams:
            precision = clipped / sum(pred_grams.values())
        else:
            precision = 0.0 if ref_grams else 1.0
        if precision == 0.0:
            if smoothing == "none" or n == 1:
                return 0.0
            precision = epsilon
        log_sum += math.log(precision)
    if len(pred) >= len(ref):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(ref) / len(pred))
    return brevity * math.exp(log_sum / max_n)


def kendall_pairwise(x, y) -> float | None:
    """Tau-b by direct O(n^2) pair counting."""
    concordant = discordant = tied_x_only = tied_y_only = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tied_x_only += 1
            elif dy == 0:
                tied_y_only += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    denom_x = concordant + discordant + tied_x_only
    denom_y = concordant + discordant + tied_y_only
    if denom_x == 0 or denom_y == 0:
        return None
    return (concordant - discordant) / math.sqrt(denom_x * denom_y)


def point_biserial(x, y) -> float | None:
    """Pearson for binary y via the point-biserial identity."""
    n = len(x)
    ones = [a for a, b in zip(x, y) if b == 1]
    zeros = [a for a, b in zip(x, y) if b == 0]
    if not ones or not zeros:
        return None
    mean = sum(x) / n
    std = math.sqrt(sum((a - mean) ** 2 for a in x) / n)
    if std == 0:
        return None
    p = len(ones) / n
    q = 1 - p
    return (sum(ones) / len(ones) - sum(zeros) / len(zeros)) / std * math.sqrt(p * q)


def align_enumerate(pred, ref) -> tuple[int, int]:
    """(max matches, min chunks) by enumerating every matching exhaustively."""
    ref_counts = Counter(ref)
    pred_counts = Counter(pred)
    target = sum(min(c, ref_counts[t]) for t, c in pred_counts.items())
    if target == 0:
        return 0, 0
    best_chunks = [None]

    def chunk_count(pairs) -> int:
        chunks = 0
        prev = None
        for i, j in sorted(pairs):
            if prev is None or (i - 1, j - 1) != prev:
                chunks += 1
            prev = (i, j)
        return chunks

    def explore(i, used, pairs):
        if i == len(pred):
            if len(pairs) == target:
                c = chunk_count(pairs)
                if best_chunks[0] is None or c < best_chunks[0]:
                    best_chunks[0] = c
            return
        explore(i + 1, used, pairs)
        for j, tok in enumerate(ref):
            if tok == pred[i] and j not in used:
                explore(i + 1, used | {j}, pairs + [(i, j)])

    explore(0, frozenset(), [])
    return target, best_chunks[0]


def align_memo(pred, ref) -> tuple[int, int]:
    """(max matches, min chunks) by a memoized search over (pred position,
    used reference positions as a bitmask, reference position that would
    continue the current chunk). Uncapped: exponential in the worst case,
    fine for about 20 tokens a side."""
    pred = tuple(pred)
    ref = tuple(ref)
    positions = {tok: [j for j, r in enumerate(ref) if r == tok] for tok in set(pred)}

    @lru_cache(maxsize=None)
    def best(i, used, chain):
        # (matches, -chunks) maximized lexicographically over pred[i:]
        if i == len(pred):
            return 0, 0
        top = best(i + 1, used, None)
        for j in positions[pred[i]]:
            if not used >> j & 1:
                m, neg_chunks = best(i + 1, used | 1 << j, cont(i + 1, used | 1 << j, j + 1))
                top = max(top, (m + 1, neg_chunks - (j != chain)))
        return top

    def cont(i, used, j):
        # a chunk continues only onto a free copy of the next pred token;
        # otherwise forget it, so equivalent states share one memo entry
        if i < len(pred) and j < len(ref) and ref[j] == pred[i] and not used >> j & 1:
            return j
        return None

    matches, neg_chunks = best(0, 0, None)
    best.cache_clear()
    return matches, -neg_chunks


def align_greedy_scan(pred, ref) -> tuple[int, int]:
    """The chunk-preferring greedy alignment, rescanning each token's reference
    positions for unused ones at every prediction token."""
    used = [False] * len(ref)
    positions = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    matches = chunks = 0
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


def quantile_sorted(values, q: float) -> float:
    """Linear-interpolation quantile, computed the long way."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = int(math.floor(position))
    above = int(math.ceil(position))
    if below == above:
        return ordered[below]
    weight = position - below
    return ordered[below] * (1 - weight) + ordered[above] * weight


def tokenize_by_lines(text: str, mode: str, newline_is_token: bool, lowercase: bool) -> tuple:
    """The tokenizer spelled line by line: CRLF and lone CR become newlines,
    then each line is split on its own, with a newline token between lines
    when so configured."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if lowercase:
        text = text.lower()
    out = []
    for k, line in enumerate(text.split("\n")):
        if k and newline_is_token:
            out.append("\n")
        if mode == "whitespace":
            out.extend(t for t in re.split(r"[ \t\f\v]+", line) if t)
        else:  # code-punct
            out.extend(re.findall(r"[A-Za-z0-9_]+|[+\-*/%=!<>&|^~]+|\S", line))
    return tuple(out)


def check_python_like_scan(snippet: str) -> str | None:
    """The python-like check walked one character at a time: a quote opens a
    string that a backslash escape cannot close, brackets nest on a stack, and
    a line starting with a block keyword must end with ':'."""
    closing = {")": "(", "]": "[", "}": "{"}
    stack = []
    quote = None
    escaped = False
    for ch in snippet:
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        elif ch in "([{":
            stack.append(ch)
        elif ch in ")]}":
            if not stack or stack[-1] != closing[ch]:
                return f"unbalanced {ch!r}"
            stack.pop()
    if quote is not None:
        return "unterminated string"
    if stack:
        return f"unclosed {stack[-1]!r}"
    heads = ("if", "elif", "else", "for", "while", "def", "class", "try", "except", "finally", "with")
    for line in snippet.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head = re.split(r"[^\w]", stripped, 1)[0]
        if head in heads and not stripped.endswith(":"):
            return f"{head!r} statement missing ':'"
    return None
