"""Symmetric-group combinatorics: inversions, signs, reduced words.

Permutations act on {1, ..., k} in one-line notation; none is multiplied.
A word (i_1, ..., i_l) of simple reflections, s_{i_1} ... s_{i_l} with the
rightmost applied first, multiplies out on one image list, letter a
swapping positions a and a + 1.  Reduced words are input only, and one
that is not reduced is refused.  ``weighted_words``, each distinct
rearrangement of a tuple once with its sign and mu and no Perm built, is
the one enumeration behind every weighted sum over S_k; it, ``inv``
(hence ``Perm.sign``) and ``mu`` read one pass: ``_inversions``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from .linalg import ONE


class NonReducedWord(ValueError):
    """A word of simple reflections that is not a reduced expression."""


class Perm:
    """A permutation of {1..k} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        k = len(self.images)
        if any(type(x) is not int for x in self.images) or \
                sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"{images!r} is not a permutation of 1..{k}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm(inv)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"

    def sign(self) -> int:
        return -1 if inv(self) % 2 else 1


def all_perms(k: int):
    for images in itertools.permutations(range(1, k + 1)):
        yield Perm(images)


def _inversions(images) -> list:
    """The inverted value pairs (s, t) of a one-line tuple: s < t with t
    listed before s, that is, s < t with p^{-1}(s) > p^{-1}(t)."""
    return [(b, a) for i, a in enumerate(images) for b in images[i + 1:] if a > b]


def inv(p: Perm) -> int:
    """Number of inversions; equals the Coxeter length of p."""
    return len(_inversions(p.images))


def inversion_set_from_reduced_word(word, k: int) -> frozenset:
    """Inversion set {(i, j) : i < j, p(i) > p(j)} of p = s_{i_1}...s_{i_l}.

    The word multiplies out on one list of images, each letter a swapping
    positions a and a + 1 (a right factor s_a), and the set is read off
    that list.  The word is reduced iff its length is the number of
    inversions, the Coxeter length of p; one that is not is rejected.
    """
    word = tuple(word)
    images = list(range(1, k + 1))
    for a in word:
        if not 1 <= a < k:
            raise ValueError("simple reflection index out of range")
        images[a - 1], images[a] = images[a], images[a - 1]
    out = frozenset((i + 1, j + 1) for i, j in itertools.combinations(range(k), 2)
                    if images[i] > images[j])
    if len(out) != len(word):
        raise NonReducedWord(f"word {word} is not reduced")
    return out


def mu(rows, p: Perm) -> Fraction:
    """Inversion-indexed parameter product: prod of q_st over s < t with
    p^{-1}(s) > p^{-1}(t), rows being a parameter matrix of rationals,
    1-indexed mathematically (entry q_st is rows[s-1][t-1])."""
    return _product(rows, _inversions(p.images))


def weighted_words(rows, index_tuple):
    """(word, sign, mu) for each distinct rearrangement of ``index_tuple``
    in lex order, read off the word's inverted letter pairs against the
    parameter matrix ``rows``; on the letters 1..k, S_k with sgn and mu."""
    for word in rearrangements(index_tuple):
        pairs = _inversions(word)
        yield word, -1 if len(pairs) % 2 else 1, _product(rows, pairs)


def rearrangements(index_tuple):
    """Each distinct rearrangement of ``index_tuple`` once, in lexicographic
    order (the next-permutation step from the sorted letters)."""
    w = sorted(index_tuple)
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = w[:i:-1]


def _product(rows, pairs) -> Fraction:
    return prod((rows[s - 1][t - 1] for s, t in pairs), start=ONE)


def stabilizer_order(index_tuple) -> int:
    """Order of the stabilizer of a tuple under position permutations:
    the product of factorials of value multiplicities."""
    counts = {}
    for x in index_tuple:
        counts[x] = counts.get(x, 0) + 1
    out = 1
    for c in counts.values():
        out *= factorial(c)
    return out
