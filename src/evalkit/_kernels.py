"""Sequence-alignment kernels: edit distance and LCS length.

Levenshtein takes one of two exact paths, chosen from the two lengths alone:

- Diagonal transition (Ukkonen, "Algorithms for approximate string matching",
  Information and Control 64, 1985; Landau & Vishkin, J. Algorithms 10(2),
  1989) keeps, per diagonal and number of edits, the furthest row reached, and
  slides along runs of equal characters with slice comparisons, which run in
  C. It costs O(n + d**2) for distance d, and gives up past an edit budget.
- Past that budget, the common prefix and suffix are stripped and the rest
  goes to the bit-parallel algorithm of Myers, "A fast bit-vector algorithm
  for approximate string matching based on dynamic programming", JACM 46(3),
  1999, in the edit-distance form of Hyyrö, "A bit-vector algorithm for
  computing Levenshtein and Damerau edit distances", Nordic J. Computing
  10(1), 2003.

LCS length: Allison & Dix, "A bit-string longest-common-subsequence
algorithm", IPL 23(6), 1986, with the update of Hyyrö, "Bit-parallel LCS-length
computation revisited", AWOCA 2004.

The bit-parallel kernels keep one column of the dynamic-programming table as
Python int bit vectors over the shorter sequence, with a dict from symbol to
the mask of its positions there, and advance the column one symbol of the
longer sequence per step. An int is unbounded, so there is no word-size limit
and no blocking.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from math import isqrt


def _match_masks(seq: Sequence[Hashable]) -> dict[Hashable, int]:
    """Map each symbol of seq to the bit mask of the positions it occupies."""
    masks: dict[Hashable, int] = {}
    bit = 1
    for sym in seq:
        masks[sym] = masks.get(sym, 0) | bit
        bit <<= 1
    return masks


def _match_length(a: str, i: int, b: str, j: int, limit: int) -> int:
    """Length of the longest common prefix of a[i:] and b[j:], at most `limit`.

    Gallops with slices of doubling length, then bisects inside the first
    unequal one; every comparison is one slice comparison.
    """
    lo, step = 0, 1  # invariant: a[i:i+lo] == b[j:j+lo]
    while True:
        hi = lo + step
        if hi >= limit:
            hi = limit
            if a[i + lo : i + hi] == b[j + lo : j + hi]:
                return limit
            break
        if a[i + lo : i + hi] != b[j + lo : j + hi]:
            break
        lo = hi
        step <<= 1
    # invariant: a[i:i+hi] != b[j:j+hi]
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if a[i + lo : i + mid] == b[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _diagonal_budget(n: int, m: int) -> int:
    """Edits the diagonal-transition path tries on lengths n >= m before the
    bit-parallel one takes over.

    The bit-parallel loop costs about n * ceil(m / 30) operations on 30-bit
    int digits. Diagonal transition that spends all E edits visits about
    E**2 / 2 diagonals, the goal-diagonal pruning included, each about as
    costly as five of those digit operations. With E**2 = n * ceil(m / 30) / 25,
    a pair past the budget wastes about a tenth of the bit-parallel loop's
    cost. E is 17 for two 460-character strings and 1 for two of 30. It
    depends on the lengths alone and never changes a distance, only which
    exact path computes it.
    """
    return isqrt(n * -(-m // 30)) // 5


def _diagonal_transition(a: str, b: str, budget: int) -> int | None:
    """Edit distance of a and b if it is at most `budget`, else None.

    far[k] is the furthest row i of `a` reached on diagonal k = j - i with
    the edits spent so far, after sliding over equal characters; a negative
    k indexes from the end of the list. A diagonal that cannot reach the goal
    diagonal len(b) - len(a) with the edits left is no longer extended.
    """
    n, m = len(a), len(b)
    goal = m - n
    if abs(goal) > budget:
        return None
    # -1 marks a diagonal not reached; a reached neighbour always outbids it
    far = [-1] * (n + m + 3)
    far[0] = _match_length(a, 0, b, 0, min(n, m))
    if far[goal] == n:
        return 0
    for d in range(1, budget + 1):
        left_edits = budget - d
        lo = max(-d, goal - left_edits, -n)
        hi = min(d, goal + left_edits, m)
        left = far[lo - 1]  # the left neighbour's row before this round
        for k in range(lo, hi + 1):
            here = far[k]
            # the furthest of substitution, deletion and insertion
            i = here + 1
            down = far[k + 1] + 1
            if down > i:
                i = down
            if left > i:
                i = left
            left = here
            top = m - k if k > goal else n  # the row where a or b runs out
            if i >= top:
                i = top
            elif a[i] == b[i + k]:
                i += 1 + _match_length(a, i + 1, b, i + k + 1, top - i - 1)
            far[k] = i
        if far[goal] == n:
            return d
    return None


def _bit_parallel_levenshtein(a: str, b: str) -> int:
    """Edit distance by the bit-parallel loop; len(a) >= len(b) >= 1."""
    masks = _match_masks(b)
    get = masks.get
    full = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    # vertical deltas of the current column: +1 (pv) / -1 (mv) at each row
    pv, mv = full, 0
    dist = len(b)
    for ch in a:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions turning `a` into `b`."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    dist = _diagonal_transition(a, b, _diagonal_budget(len(a), len(b)))
    if dist is not None:
        return dist
    head = _match_length(a, 0, b, 0, len(b))
    tail = _match_length(a[::-1], 0, b[::-1], 0, len(b) - head)
    a, b = a[head : len(a) - tail], b[head : len(b) - tail]
    if not b:
        return len(a)
    return _bit_parallel_levenshtein(a, b)


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks = _match_masks(b)
    get = masks.get
    full = (1 << len(b)) - 1
    # a zero bit marks a row where the LCS length steps up by one
    v = full
    for tok in a:
        u = v & get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()
