"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice I_d of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  Slices are grown one degree at a
time from I_d = I_{d-1} * V + V^(d-2) * R: every pivot row of I_{d-1}
shifted by a generator on the right is already a pivot row of I_d, so only
the rows w * r are reduced.  ``PresentedAlgebra`` owns the slices: it
caches each requested degree, grows a new one from the highest cached
degree below it, and decides whether lhs - rhs lies in the ideal
(``congruent``; ``reduces_to_zero`` is the case rhs = 0) by reducing the
difference, formed as one integer row, against the slice of its degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .freealg import NCPoly, NonHomogeneous, sparse_coords, word_budget, word_index
from .linalg import SparseEchelon, Subspace
from .tensor import BudgetExceeded

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
    the lex coordinates of ``gens``.  Slices are cached per requested
    degree; a new one grows from the highest cached degree below it.
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
            lower = [e for e in self._slices if e < d]
            below = self._slices[max(lower)] if lower else None
            cached = self._slices[d] = build_slice_from_subspace(
                self.gens, self.relations, d, below)
        return cached

    def reduces_to_zero(self, p: NCPoly) -> bool:
        """Membership of a homogeneous polynomial in the graded ideal."""
        return self.congruent(p, NCPoly.zero())

    def congruent(self, lhs: NCPoly, rhs: NCPoly) -> bool:
        """Does lhs - rhs lie in the graded ideal?

        The difference is formed as one integer row over the common
        denominator of both sides and tested against the slice of its
        degree.  A zero difference is a member; a nonzero one must be
        homogeneous (else NonHomogeneous), and below degree 2 it is not a
        member.  lhs and rhs need not be homogeneous themselves.
        """
        diff = _integer_difference(lhs.terms, rhs.terms)
        if not diff:
            return True
        lengths = {len(w) for w in diff}
        if len(lengths) > 1:
            raise NonHomogeneous("membership needs a homogeneous polynomial")
        d = lengths.pop()
        if d < 2:
            return False
        pos, g = self.gen_pos, len(self.gens)
        return self.slice(d).echelon.contains(
            {word_index(w, pos, g): c for w, c in diff.items()})


def _integer_difference(a: dict, b: dict) -> dict:
    """a - b for two word -> Fraction maps, times the least common
    denominator of all their coefficients, without zero entries."""
    den = lcm(*(x.denominator for x in a.values()), *(x.denominator for x in b.values()))
    out = {w: x.numerator * (den // x.denominator) for w, x in a.items()}
    if not b:
        return out
    for w, x in b.items():
        c = x.numerator * (den // x.denominator)
        out[w] = out[w] - c if w in out else -c
    return {w: c for w, c in out.items() if c}


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


def build_slice_from_subspace(gens, relations: Subspace, d: int,
                              below: IdealSlice | None = None) -> IdealSlice:
    """Echelonize span{w1 * r * w2 : r in R, |w1| + |w2| = d - 2}.

    The slice is grown degree by degree, from ``below`` (a slice of the same
    ideal at a lower degree, left unchanged) or else from the zero slice at
    degree 1.  Going up one degree, each pivot row with lead l, shifted by
    generator x, becomes the pivot row with lead l * g + x, and only the
    rows w * r with |w| = e - 2 are inserted.  A word space of more than
    ``word_budget()`` words is refused before anything is built.
    """
    gens = tuple(gens)
    g = len(gens)
    if d < 2:
        raise ValueError("ideal slices start at degree 2")
    size = g ** d
    if size > word_budget():
        raise BudgetExceeded(f"word space of size {size} exceeds budget "
                             f"{word_budget()} (override with MANIN_BUDGET)")
    if below is None:
        degree, pivots, owned = 1, {}, True
    elif below.gens == gens and 2 <= below.degree < d:
        degree, pivots, owned = below.degree, below.echelon.pivots, False
    else:
        raise ValueError("a slice grows only from a lower-degree slice on the same generators")
    relation_rows = relations.integer_rows()
    # one int object per word position, shared as a key by every row that
    # holds it, rather than a fresh int per entry
    word = list(range(size))
    for e in range(degree + 1, d + 1):
        ech = SparseEchelon()
        shifted = ech.pivots
        for lead in sorted(pivots):
            # an intermediate slice is consumed as it is shifted
            row = pivots.pop(lead) if owned else pivots[lead]
            for x in range(g):
                shifted[word[lead * g + x]] = {word[pos * g + x]: c for pos, c in row.items()}
        owned = True
        for w in range(g ** (e - 2)):
            left = w * g * g
            for rel in relation_rows:
                ech.insert({word[left + mid]: c for mid, c in rel.items()})
        pivots = ech.pivots
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
