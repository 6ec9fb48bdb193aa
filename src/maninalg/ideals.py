"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice I_d of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  A slice is kept as its increments:
E_e is the set of pivot rows that degree e adds, so that
I_e = I_(e-1) * V + span E_e, every pivot row of I_d is a row of some E_j
shifted on the right by a word of d - j letters, and
rank I_e = g * rank I_(e-1) + |E_e|.  Degree e reduces the rows u * r only
for the normal words u of degree e - 2, those that are not leads of
I_(e-2): V^(e-2) = I_(e-2) + N_(e-2) (Bergman's diamond lemma), and
I_(e-2) * R lies in I_(e-1) * V.  Such a row, and every pivot row it meets,
has a normal prefix of length e - 2, while a row of E_j shifted by two or
more letters has a lead of I_(e-2) as that prefix; so degree e is built
from the rows of E_(e-1) shifted by one generator and those of E_e alone.
``PresentedAlgebra`` owns the slices: it caches each requested degree,
grows a new one from the highest cached degree below it, and has one
membership test, ``contains_rows``, which ``congruent`` and the Manin
checks call: integer rows of degree d lie in the ideal when each reduces to
zero against the echelon of the degree-d slice, which builds a deeper
shifted row only when a reduction reaches its lead.
"""

from __future__ import annotations

import functools
import itertools
from math import lcm

from .freealg import NCPoly, NonHomogeneous, sparse_coords, word_budget, word_index
from .linalg import Record, SparseEchelon, Subspace
from .tensor import budget_refusal


class IdealSlice(Record):
    """The degree-d slice of the ideal generated by R, kept as increments.

    ``increments`` holds E_2, ..., E_d, each a dict lead -> primitive
    integer row of the pivot rows that its degree adds; ``top_rows`` holds
    the rows the build made at degree d, those of E_(d-1) shifted by one
    generator and those of E_d.  ``normal_below`` holds, ascending, the
    word indices of degree d - 1 that are not leads of the slice at degree
    d - 1: the words u whose rows u * r the next degree inserts.  Only
    ``build_slice_from_subspace`` fills them.  ``dim`` is arithmetic on the
    increments; ``echelon`` is built on first use.  Two slices are equal
    only if they are the same object.
    """

    _fields = ("gens", "degree", "increments", "top_rows", "normal_below")
    __slots__ = _fields + ("__dict__",)  # the cached echelon
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, gens: tuple, degree: int, increments: tuple, top_rows: dict,
                 normal_below: tuple):
        super().__init__(gens, degree, increments, top_rows, normal_below)

    @property
    def generator_count(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        g, d = self.generator_count, self.degree
        return sum(len(rows) * g ** (d - j) for j, rows in enumerate(self.increments, 2))

    @functools.cached_property
    def echelon(self) -> SparseEchelon:
        """The slice as an echelon over every lead of I_d: the rows of
        ``top_rows`` at once, any other row when a reduction first reaches
        its lead."""
        g, d = self.generator_count, self.degree
        leads = set()
        for j, rows in enumerate(self.increments, 2):
            size = g ** (d - j)
            leads.update(lead * size + w for lead in rows for w in range(size))
        return SparseEchelon(_ShiftedRows(self.top_rows, self.increments, g, d), leads)

    def subspace(self) -> Subspace:
        """The slice as a Subspace of the g^d-dimensional word space."""
        return self.echelon.dense_basis(self.generator_count ** self.degree)


class _ShiftedRows(dict):
    """Pivot rows of a degree-d slice keyed by lead.  A lead missing from
    the dict is l * g^(d-j) + w for one lead l of the increment E_j,
    j <= d - 2, and a word w of d - j letters; its row is that of l shifted
    by w, built on the first lookup and kept."""

    __slots__ = ("increments", "g", "d")

    def __init__(self, rows: dict, increments: tuple, g: int, d: int):
        super().__init__(rows)
        self.increments, self.g, self.d = increments, g, d

    def __missing__(self, lead: int) -> dict:
        for j, rows in enumerate(self.increments[:-2], 2):
            size = self.g ** (self.d - j)
            row = rows.get(lead // size)
            if row is not None:
                w = lead % size
                shifted = self[lead] = {pos * size + w: c for pos, c in row.items()}
                return shifted
        raise KeyError(lead)


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
        """Does lhs - rhs lie in the graded ideal?  ``contains_rows`` tests
        the difference as one integer row over the common denominator of
        both sides; it must be homogeneous unless it is zero (else
        NonHomogeneous), while lhs and rhs need not be."""
        diff = _integer_difference(lhs.terms, rhs.terms)
        lengths = {len(w) for w in diff}
        if len(lengths) > 1:
            raise NonHomogeneous("membership needs a homogeneous polynomial")
        pos, g = self.gen_pos, len(self.gens)
        row = {word_index(w, pos, g): c for w, c in diff.items()}
        return self.contains_rows([row] if row else [], max(lengths, default=0))

    def contains_rows(self, rows: list, d: int) -> bool:
        """Do the integer rows {word index: c} of degree d all lie in the
        ideal?  Vacuously for no rows; never below degree 2, where it is 0."""
        if not rows:
            return True
        if d < 2:
            return False
        echelon = self.slice(d).echelon
        return all(echelon.contains(row) for row in rows)


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
    return Subspace.span((sparse_coords(p, degree, pos, len(gens))
                          for p in polys if not p.is_zero()), len(gens) ** degree)


def build_slice_from_subspace(gens, relations: Subspace, d: int,
                              below: IdealSlice | None = None) -> IdealSlice:
    """Echelonize span{w1 * r * w2 : r in R, |w1| + |w2| = d - 2}, as the
    increments E_2, ..., E_d.

    The slice is grown degree by degree, from ``below`` (a slice of the same
    ideal at a lower degree, left unchanged) or else from the zero slice at
    degree 1.  Degree e starts one plain echelon with the rows of E_(e-1)
    shifted by each generator, whose leads have a normal prefix of length
    e - 2, and inserts the rows u * r for the normal words u of degree
    e - 2; the rows that raise its rank are E_e.  The pivot rows of
    E_j * V^(e-j) for j <= e - 2 lead with words whose prefix of length
    e - 2 is a lead of I_(e-2), and neither u * r nor any row it meets
    holds such a word, so they are never built: the increments, rank and
    leads are those of inserting w * r for every word w into the full
    slice.  The normal words of degree e - 1 are those of degree e - 2
    followed by each generator, less the leads of E_(e-1).  A word space of
    more than ``word_budget()`` words is refused before anything is built.
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
        degree, increments, newest, normal = 1, [], {}, (0,)
    elif below.gens == gens and 2 <= below.degree < d:
        degree, increments = below.degree, list(below.increments)
        newest, normal = increments[-1], below.normal_below
    else:
        raise ValueError("a slice grows only from a lower-degree slice on the same generators")
    relation_rows = list(relations.rows.values())
    # one int object per word position, shared as a key by every row that
    # holds it, rather than a fresh int per entry
    word = list(range(size))
    for e in range(degree + 1, d + 1):
        ech = SparseEchelon()
        rows = ech.pivots
        for lead, row in newest.items():
            for x in range(g):
                rows[word[lead * g + x]] = {word[pos * g + x]: c for pos, c in row.items()}
        shifted = len(rows)
        for u in normal:
            left = u * g * g
            for rel in relation_rows:
                ech.insert({word[left + mid]: c for mid, c in rel.items()})
        normal = [w for u in normal for w in word[u * g:u * g + g] if w not in newest]
        newest = dict(itertools.islice(rows.items(), shifted, None))
        increments.append(newest)
    return IdealSlice(gens, d, tuple(increments), rows, tuple(normal))


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
