"""Levenshtein edit distance and the similarity score used by INDICE.

The geospatial cleaning step (paper, Section 2.1.1) compares each address in
the EPC collection against a referenced street map.  For each pair of
addresses the Levenshtein distance [19] counts the minimum number of
single-character insertions, deletions and substitutions turning one string
into the other; the *similarity* derived from it "takes values in the range
[0-1], where 0 indicates total dissimilarity and 1 equality".

We normalize by the longer string's length::

    similarity(a, b) = 1 - distance(a, b) / max(len(a), len(b))

which satisfies exactly that contract (1 iff the strings are equal, 0 iff
they share no aligned characters at all).

Distances are computed with the Myers/Hyyrö bit-parallel algorithm: one
string becomes a bit-vector (one bit per character) and the other is
streamed over it one character at a time, so a pair costs one handful of
word operations per streamed character instead of one DP cell per
character pair.  :func:`distance` runs it on Python ints, which hold a
pattern of any length.  :class:`GazetteerIndex` runs the same recurrence
on NumPy ``uint64`` arrays, one word per gazetteer street, and streams a
whole block of equally long queries against every length-feasible street
at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "distance",
    "similarity",
    "distance_within",
    "best_match",
    "GazetteerIndex",
]

#: Bits of one machine word: longer candidates take the scalar path.
_WORD = 64

#: Queries streamed together; keeps each (block x candidates) array small.
_BLOCK = 32


def _myers(pattern: str, text: str) -> int:
    """Edit distance by Myers/Hyyrö on Python ints (*pattern* non-empty)."""
    peq: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(pattern)
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def distance(a: str, b: str) -> int:
    """The Levenshtein edit distance between *a* and *b*.

    >>> distance("corso duca", "corso duca")
    0
    >>> distance("via roma", "via rome")
    1
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # the shorter string is streamed
        a, b = b, a
    return _myers(a, b)


def distance_within(a: str, b: str, budget: int) -> int | None:
    """The edit distance if it does not exceed *budget*, else ``None``.

    The length difference is a lower bound on the distance, so pairs it
    already rules out never reach the bit-parallel kernel.
    """
    if budget < 0 or abs(len(a) - len(b)) > budget:
        return None
    d = distance(a, b)
    return d if d <= budget else None


def similarity(a: str, b: str) -> float:
    """Levenshtein similarity in [0, 1]; 1 means equality.

    >>> similarity("via roma", "via roma")
    1.0
    >>> similarity("abc", "xyz")
    0.0
    """
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - distance(a, b) / longest


def _distance_budget(a: str, b: str, phi: float) -> int:
    """The largest edit distance for which similarity(a, b) >= phi."""
    longest = max(len(a), len(b))
    return int((1.0 - phi) * longest + 1e-9)


def similarity_at_least(a: str, b: str, phi: float) -> float | None:
    """The similarity if it is >= *phi*, else ``None`` (computed with cut-off)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    d = distance_within(a, b, _distance_budget(a, b, phi))
    if d is None:
        return None
    sim = 1.0 - d / longest
    return sim if sim >= phi else None


def best_match(query: str, candidates: list[str], phi: float = 0.0) -> tuple[int, float] | None:
    """The index and similarity of the candidate most similar to *query*.

    Only candidates with similarity >= *phi* qualify; returns ``None`` when
    no candidate clears the threshold.  Ties keep the first candidate, which
    makes gazetteer lookups deterministic.
    """
    best_index = -1
    best_sim = phi
    found = False
    for i, cand in enumerate(candidates):
        sim = similarity_at_least(query, cand, best_sim)
        if sim is None:
            continue
        if not found or sim > best_sim:
            best_index, best_sim, found = i, sim, True
            if best_sim >= 1.0:  # similarity is capped at 1.0: exact match
                break
    if not found:
        return None
    return best_index, best_sim


class GazetteerIndex:
    """Batched best-match lookups over a fixed list of candidates.

    Every candidate of 1 to 64 characters is one ``uint64`` column of the
    match-mask table built here: bit *p* of ``masks[c, i]`` is set when
    character *c* sits at position *p* of candidate *i*.  The last row
    stands for every character outside the candidates' alphabet and is
    all zeros.  :meth:`best_matches` groups its queries by length, keeps
    the candidates whose length can clear the phi-implied edit budget at
    all, and streams the query characters of up to ``_BLOCK`` queries at
    a time over a ``(block x candidates)`` array of Myers/Hyyrö state.
    The empty candidate and candidates longer than one word go through
    :func:`similarity_at_least` one by one.

    Results are **identical** to the linear :func:`best_match` over the
    same candidate list (same index, same similarity, same ``None``):
    a candidate qualifies when its distance is within the budget and its
    similarity, computed in float64 as ``1 - d / max(la, lb)``, is
    >= phi; the best similarity wins, the lowest index on ties.  The
    index never changes after construction.
    """

    def __init__(self, candidates: list[str]):
        self.candidates = list(candidates)
        alphabet = sorted({ch for c in self.candidates for ch in c})
        self._codes = {ch: k for k, ch in enumerate(alphabet)}
        lengths = np.array([len(c) for c in self.candidates], dtype=np.int64)
        on_word = (lengths >= 1) & (lengths <= _WORD)
        self._word = np.flatnonzero(on_word)
        self._word_lengths = lengths[self._word]
        self._last_bit = np.left_shift(
            np.uint64(1), (self._word_lengths - 1).astype(np.uint64)
        )
        self._scalar = np.flatnonzero(~on_word).tolist()
        masks = np.zeros((len(alphabet) + 1, len(self._word)), dtype=np.uint64)
        for col, i in enumerate(self._word):
            per_char: dict[int, int] = {}
            for pos, ch in enumerate(self.candidates[i]):
                code = self._codes[ch]
                per_char[code] = per_char.get(code, 0) | (1 << pos)
            for code, bits in per_char.items():
                masks[code, col] = bits
        self._masks = masks

    def __len__(self) -> int:
        return len(self.candidates)

    def best_match(self, query: str, phi: float = 0.0) -> tuple[int, float] | None:
        """``best_matches([query], phi)[0]``."""
        return self.best_matches([query], phi)[0]

    def best_matches(
        self, queries: list[str], phi: float = 0.0
    ) -> list[tuple[int, float] | None]:
        """Like :func:`best_match` over the indexed candidates, per query.

        Each query's result is the same ``(index, similarity)`` (or
        ``None``) as the linear scan, whatever else is in the batch.
        """
        results: list[tuple[int, float] | None] = [None] * len(queries)
        by_length: dict[int, list[int]] = {}
        for qi, query in enumerate(queries):
            by_length.setdefault(len(query), []).append(qi)
        for la, members in by_length.items():
            longest = np.maximum(self._word_lengths, la)
            budget = ((1.0 - phi) * longest + 1e-9).astype(np.int64)
            feasible = np.flatnonzero(
                np.abs(self._word_lengths - la) <= budget
            )
            for lo in range(0, len(members), _BLOCK):
                block = members[lo : lo + _BLOCK]
                hits = self._word_block(
                    [queries[qi] for qi in block], feasible,
                    longest[feasible], budget[feasible], phi,
                )
                for qi, hit in zip(block, hits):
                    results[qi] = self._with_scalar(queries[qi], hit, phi)
        return results

    def _word_block(
        self,
        block: list[str],
        cols: np.ndarray,
        longest: np.ndarray,
        budget: np.ndarray,
        phi: float,
    ) -> list[tuple[int, float] | None]:
        """Best one-word candidate among *cols* for each query of *block*.

        Every query of the block has the same length; the Myers/Hyyrö state
        of all (query, candidate) pairs advances one query character a step.
        Bits above a candidate's length hold garbage, but carries and
        shifts only move upward, so they never reach the bits below it.
        """
        if len(cols) == 0:
            return [None] * len(block)
        unknown = len(self._codes)
        codes = np.array(
            [[self._codes.get(ch, unknown) for ch in q] for q in block],
            dtype=np.intp,
        )
        masks = self._masks[:, cols]
        last = self._last_bit[cols]
        shape = (len(block), len(cols))
        pv = np.full(shape, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        mv = np.zeros(shape, dtype=np.uint64)
        score = np.broadcast_to(self._word_lengths[cols], shape).copy()
        one = np.uint64(1)
        for chars in codes.T:
            eq = masks[chars]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            score += (ph & last) != 0
            score -= (mh & last) != 0
            ph = (ph << one) | one  # row 0 of the DP grows by one a column
            mh <<= one
            pv = mh | ~(xv | ph)
            mv = ph & xv
        sim = 1.0 - score / longest
        accepted = (score <= budget) & (sim >= phi)
        ranked = np.where(accepted, sim, -1.0)
        best = np.argmax(ranked, axis=1)  # first maximum: lowest index
        out: list[tuple[int, float] | None] = []
        for row, col in enumerate(best):
            if accepted[row, col]:
                out.append((int(self._word[cols[col]]), float(sim[row, col])))
            else:
                out.append(None)
        return out

    def _with_scalar(
        self, query: str, hit: tuple[int, float] | None, phi: float
    ) -> tuple[int, float] | None:
        """Fold the candidates the word path cannot hold into *hit*."""
        for i in self._scalar:
            sim = similarity_at_least(query, self.candidates[i], phi)
            if sim is None:
                continue
            if hit is None or sim > hit[1] or (sim == hit[1] and i < hit[0]):
                hit = (i, sim)
        return hit
