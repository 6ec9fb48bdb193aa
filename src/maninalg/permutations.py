"""Symmetric-group combinatorics: inversions, signs, reduced words.

Permutations act on {1, ..., k} and are stored in one-line notation.
Products compose right-to-left: (p * q)(x) = p(q(x)).  A word
(i_1, ..., i_l) of simple-reflection indices therefore multiplies out to
s_{i_1} * s_{i_2} * ... * s_{i_l}, with the rightmost factor applied first.
Reduced words are input only, and one that is not reduced is refused.
``inv`` (hence ``Perm.sign``), ``mu`` and ``weighted_perms``, S_k with each
sign and mu and no Perm built, all read one pass: ``_inversions``.
``rearrangements`` lists each distinct word of a sorted tuple once.
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
        self.images = tuple(int(x) for x in images)
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"{images!r} is not a permutation of 1..{k}")

    @staticmethod
    def identity(k: int) -> "Perm":
        return Perm(range(1, k + 1))

    @staticmethod
    def transposition(k: int, a: int) -> "Perm":
        """The simple reflection s_a swapping a and a+1, 1 <= a < k."""
        if not 1 <= a < k:
            raise ValueError("simple reflection index out of range")
        images = list(range(1, k + 1))
        images[a - 1], images[a] = images[a], images[a - 1]
        return Perm(images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.size != other.size:
            raise ValueError("permutations of different sizes")
        return Perm(self.images[other.images[i] - 1] for i in range(self.size))

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


def from_word(word, k: int) -> Perm:
    """Product s_{i_1} * ... * s_{i_l} (rightmost applied first)."""
    p = Perm.identity(k)
    for a in word:
        p = p * Perm.transposition(k, a)
    return p


def inversion_set_from_reduced_word(word, k: int) -> frozenset:
    """Inversion set of s_{i_1}...s_{i_l} computed root by root.

    Realizes the reduced-expression formula for the set of positive roots
    sent negative: the t-th root is s_{i_l} ... s_{i_{t+1}} applied to the
    simple root alpha_{i_t}.  A non-reduced word repeats or negates a root
    and is rejected (detected by cardinality mismatch).
    """
    word = tuple(word)
    roots = []
    for t, a in enumerate(word):
        if not 1 <= a < k:
            raise ValueError("simple reflection index out of range")
        # s_{i_l} o ... o s_{i_{t+1}}, the factor closest to alpha acting first
        u = from_word(tuple(reversed(word[t + 1 :])), k)
        root = (u(a), u(a + 1))  # image of alpha_a = e_a - e_{a+1}
        roots.append(root if root[0] < root[1] else (root[1], root[0]))
    out = frozenset(roots)
    if len(out) != len(word):
        raise NonReducedWord(f"word {word} is not reduced")
    return out


def mu(rows, p: Perm) -> Fraction:
    """Inversion-indexed parameter product: prod of q_st over s < t with
    p^{-1}(s) > p^{-1}(t), rows being a parameter matrix of rationals,
    1-indexed mathematically (entry q_st is rows[s-1][t-1])."""
    return _product(rows, _inversions(p.images))


def weighted_perms(rows, k: int):
    """(images, sgn sigma, mu(rows, sigma)) for each sigma in S_k in the order
    of ``all_perms``, rows being a k x k parameter matrix of rationals."""
    for images in itertools.permutations(range(1, k + 1)):
        pairs = _inversions(images)
        yield images, -1 if len(pairs) % 2 else 1, _product(rows, pairs)


def rearrangements(index_tuple):
    """Each distinct rearrangement of the weakly increasing ``index_tuple``
    once, in lexicographic order (the next-permutation step)."""
    w = list(index_tuple)
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
