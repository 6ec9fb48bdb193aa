"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  Slices are echelonized with sparse
rows (the spanning vectors are short) and cached per (R, d); membership of
a homogeneous polynomial is a reduction to zero.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .freealg import Gen, NCPoly, NonHomogeneous, sparse_coords
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
        gens = tuple(gens)
        pos = {g: i for i, g in enumerate(gens)}
        ech = SparseEchelon()
        for p in relation_polys:
            if p.is_zero():
                continue
            if not p.is_homogeneous(2):
                raise NonHomogeneous("relations must be homogeneous of degree 2")
            ech.insert(sparse_coords(p, 2, pos, len(gens)))
        return PresentedAlgebra(gens, ech.dense_basis(len(gens) ** 2))

    def slice(self, d: int) -> IdealSlice:
        cached = self._slices.get(d)
        if cached is None:
            cached = self._slices[d] = build_slice_from_subspace(self.gens, self.relations, d)
        return cached

    def coords(self, p: NCPoly, d: int) -> dict:
        return sparse_coords(p, d, self.gen_pos, len(self.gens))

    def reduces_to_zero(self, p: NCPoly) -> bool:
        """Membership of a homogeneous polynomial in the graded ideal."""
        if p.is_zero():
            return True
        d = p.degree()
        if not p.is_homogeneous(d):
            raise NonHomogeneous("membership needs a homogeneous polynomial")
        if d < 2:
            return False
        return reduces_to_zero(p, self.slice(d), self.gen_pos)


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


def build_slice(R: Subspace, d: int, gens=None) -> IdealSlice:
    """Degree-d slice for a degree-2 relation subspace R.

    When ``gens`` is omitted, anonymous generators t[1..g] are attached; the
    generator identities only matter for polynomial-level membership.
    """
    g = round(R.ambient_dim ** 0.5)
    if g * g != R.ambient_dim:
        raise ValueError("R must live in a degree-2 word space")
    if gens is None:
        gens = tuple(Gen("t", (i,)) for i in range(1, g + 1))
    return build_slice_from_subspace(gens, R, d)


def reduces_to_zero(p: NCPoly, slice_: IdealSlice, gen_pos=None) -> bool:
    """True iff the coordinate vector of p lies in the slice row space."""
    if p.is_zero():
        return True
    if gen_pos is None:
        gen_pos = {g: i for i, g in enumerate(slice_.gens)}
    if not p.is_homogeneous(slice_.degree):
        raise NonHomogeneous(f"polynomial is not homogeneous of degree {slice_.degree}")
    coords = sparse_coords(p, slice_.degree, gen_pos, slice_.generator_count)
    return slice_.echelon.contains(coords)


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
