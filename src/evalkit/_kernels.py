"""Sequence-alignment kernels: bit-parallel edit distance and LCS length.

Both kernels keep one column of the dynamic-programming table as Python int
bit vectors over the shorter sequence, with a dict from symbol to the mask of
its positions there, and advance the column one symbol of the longer sequence
per step. An int is unbounded, so there is no word-size limit and no blocking.

- Levenshtein: Myers, "A fast bit-vector algorithm for approximate string
  matching based on dynamic programming", JACM 46(3), 1999, in the
  edit-distance form of Hyyrö, "A bit-vector algorithm for computing
  Levenshtein and Damerau edit distances", Nordic J. Computing 10(1), 2003.
- LCS length: Allison & Dix, "A bit-string longest-common-subsequence
  algorithm", IPL 23(6), 1986, with the update of Hyyrö, "Bit-parallel LCS-length
  computation revisited", AWOCA 2004.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence


def _match_masks(seq: Sequence[Hashable]) -> dict[Hashable, int]:
    """Map each symbol of seq to the bit mask of the positions it occupies."""
    masks: dict[Hashable, int] = {}
    bit = 1
    for sym in seq:
        masks[sym] = masks.get(sym, 0) | bit
        bit <<= 1
    return masks


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and
    substitutions turning `a` into `b`."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
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
