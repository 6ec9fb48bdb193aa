"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice I_d of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  Slices are grown one degree at a
time from I_d = I_{d-1} * V + N_{d-2} * R, where N_{d-2} is spanned by the
normal words of degree d - 2, those that are not leads of I_{d-2}.  Every
pivot row of I_{d-1} shifted by a generator on the right is already a pivot
row of I_d, so only the rows u * r with u normal are reduced.  That is
exact: V^(d-2) = I_{d-2} + N_{d-2} (Bergman's diamond lemma), and
I_{d-2} * R lies in I_{d-2} * V^2, inside I_{d-1} * V.  ``PresentedAlgebra``
owns the slices: it caches each requested degree, grows a new one from the
highest cached degree below it, and decides whether lhs - rhs lies in the
ideal (``congruent``; ``reduces_to_zero`` is the case rhs = 0) by reducing
the difference, formed as one integer row, against the slice of its degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .freealg import NCPoly, NonHomogeneous, sparse_coords, word_budget, word_index
from .linalg import SparseEchelon, Subspace
from .tensor import budget_refusal

@dataclass(frozen=True)
class IdealSlice:
    """Echelonized degree-d slice of the ideal generated by R.

    ``normal_below`` holds, ascending, the word indices of degree d - 1 that
    are not leads of the slice at degree d - 1: the words u whose rows u * r
    the next degree inserts.  Only ``build_slice_from_subspace`` fills it.
    """

    gens: tuple
    degree: int
    echelon: SparseEchelon
    normal_below: tuple

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
    degree 1.  Going up to degree e, each pivot row with lead l, shifted by
    generator x, becomes the pivot row with lead l * g + x, and the rows
    u * r are inserted only for the normal words u of degree e - 2, those
    that are not leads of I_{e-2}.  The rest of V^(e-2) is I_{e-2}, and
    I_{e-2} * R lies in I_{e-1} * V, the span of the shifted pivots, so the
    slice, its rank and its leads are those of inserting w * r for every
    word w.  A word space of more than ``word_budget()`` words is refused
    before anything is built.
    """
    gens = tuple(gens)
    g = len(gens)
    if d < 2:
        raise ValueError("ideal slices start at degree 2")
    size, budget = g ** d, word_budget()
    if size > budget:
        raise budget_refusal("word space", size, budget)
    if below is None:
        # I_1 = 0, and the empty word (index 0) is the one word of degree 0
        degree, pivots, owned, normal = 1, {}, True, [0]
    elif below.gens == gens and 2 <= below.degree < d:
        degree, pivots, owned = below.degree, below.echelon.pivots, False
        normal = below.normal_below
    else:
        raise ValueError("a slice grows only from a lower-degree slice on the same generators")
    relation_rows = relations.integer_rows()
    # one int object per word position, shared as a key by every row that
    # holds it, rather than a fresh int per entry
    word = list(range(size))
    for e in range(degree + 1, d + 1):
        # the normal words of degree e - 1, listed before the shift below
        # consumes the pivots of I_{e-1}; degree e + 1 inserts their rows
        normal_next = [w for w in word[:g ** (e - 1)] if w not in pivots]
        ech = SparseEchelon()
        shifted = ech.pivots
        for lead in sorted(pivots):
            # an intermediate slice is consumed as it is shifted
            row = pivots.pop(lead) if owned else pivots[lead]
            for x in range(g):
                shifted[word[lead * g + x]] = {word[pos * g + x]: c for pos, c in row.items()}
        owned = True
        for u in normal:
            left = u * g * g
            for rel in relation_rows:
                ech.insert({word[left + mid]: c for mid, c in rel.items()})
        pivots, normal = ech.pivots, normal_next
    return IdealSlice(gens, d, ech, tuple(normal))


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
