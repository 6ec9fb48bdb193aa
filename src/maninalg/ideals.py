"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  ``PresentedAlgebra`` owns them: it
echelonizes each slice with sparse rows (the spanning vectors are short),
caches it per degree, and decides membership of a homogeneous polynomial
as a reduction to zero.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .freealg import NCPoly, NonHomogeneous, sparse_coords
from .linalg import SparseEchelon, Subspace
from .tensor import BudgetExceeded

DEFAULT_WORD_BUDGET = 20736


def word_budget() -> int:
    return int(os.environ.get("MANIN_BUDGET", DEFAULT_WORD_BUDGET))


@dataclass(frozen=True)
class IdealSlice:
    """Echelonized degree-d slice of the ideal generated by R."""

    gens: tuple
    degree: int
    echelon: SparseEchelon

    @property
    def generator_count(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def subspace(self) -> Subspace:
        """The slice as a Subspace of the g^d-dimensional word space."""
        return self.echelon.dense_basis(self.generator_count ** self.degree)


class PresentedAlgebra:
    """A free algebra with a fixed generator order and degree-2 relations.

    ``relations`` is a Subspace of the g^2-dimensional degree-2 word space in
    the lex coordinates of ``gens``.  Slices are cached per degree.
    """

    def __init__(self, gens, relations: Subspace):
        self.gens = tuple(gens)
        self.gen_pos = {g: i for i, g in enumerate(self.gens)}
        g = len(self.gens)
        if relations.ambient_dim != g * g:
            raise ValueError("relations must live in the degree-2 word space")
        self.relations = relations
        self._slices: dict[int, IdealSlice] = {}

    @staticmethod
    def from_polys(gens, relation_polys) -> "PresentedAlgebra":
        return PresentedAlgebra(gens, span_of_polys(relation_polys, gens, 2))

    def slice(self, d: int) -> IdealSlice:
        cached = self._slices.get(d)
        if cached is None:
            cached = self._slices[d] = build_slice_from_subspace(self.gens, self.relations, d)
        return cached

    def reduces_to_zero(self, p: NCPoly) -> bool:
        """Membership of a homogeneous polynomial in the graded ideal."""
        if p.is_zero():
            return True
        d = p.degree()
        if not p.is_homogeneous(d):
            raise NonHomogeneous("membership needs a homogeneous polynomial")
        if d < 2:
            return False
        return self.slice(d).echelon.contains(
            sparse_coords(p, d, self.gen_pos, len(self.gens)))


def span_of_polys(polys, gens, degree: int) -> Subspace:
    """Echelonized span of homogeneous degree-d polynomials in the lex word
    coordinates of ``gens``; any other nonzero polynomial raises
    NonHomogeneous."""
    gens = tuple(gens)
    pos = {g: i for i, g in enumerate(gens)}
    ech = SparseEchelon()
    for p in polys:
        if not p.is_zero():
            ech.insert(sparse_coords(p, degree, pos, len(gens)))
    return ech.dense_basis(len(gens) ** degree)


def build_slice_from_subspace(gens, relations: Subspace, d: int) -> IdealSlice:
    """Echelonize span{w1 * r * w2 : r in R, |w1| + |w2| = d - 2}."""
    gens = tuple(gens)
    g = len(gens)
    if d < 2:
        raise ValueError("ideal slices start at degree 2")
    size = g ** d
    if size > word_budget():
        raise BudgetExceeded(f"word space of size {size} exceeds budget "
                             f"{word_budget()} (override with MANIN_BUDGET)")
    ech = SparseEchelon()
    for left_len in range(d - 1):
        right_len = d - 2 - left_len
        left_size, right_size = g ** left_len, g ** right_len
        for lead in range(left_size):
            for rel in relations.rows.values():
                base = {}
                for mid, c in rel.items():
                    base[(lead * g * g + mid) * right_size] = c
                for trail in range(right_size):
                    ech.insert({pos + trail: c for pos, c in base.items()})
    return IdealSlice(gens, d, ech)


def commutator_relations(gens) -> "PresentedAlgebra":
    """The commutative presentation: all [g_i, g_j] for i < j."""
    gens = tuple(gens)
    polys = []
    for a, b in itertools.combinations(gens, 2):
        polys.append(NCPoly({(a, b): 1, (b, a): -1}))
    return PresentedAlgebra.from_polys(gens, polys)


def free_presentation(gens) -> "PresentedAlgebra":
    """No relations at all."""
    gens = tuple(gens)
    return PresentedAlgebra(gens, Subspace.zero(len(gens) ** 2))
