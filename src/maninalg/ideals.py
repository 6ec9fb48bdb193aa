"""Graded two-sided-ideal slices in a free algebra.

Given a subspace R of the degree-2 word space over g generators, the
degree-d slice I_d of the ideal generated by R is spanned by all products
w1 * r * w2 with |w1| + |w2| = d - 2.  A slice is its increments: E_e is
the set of pivot rows that degree e adds, E_2 being the reduced rows of R
itself, so that
I_e = I_(e-1) * V + span E_e, every pivot row of I_d is a row of some E_j
shifted on the right by a word of d - j letters, and
rank I_e = g * rank I_(e-1) + |E_e|.  The increments of I_d begin with
those of every lower degree, so a lower slice is a prefix of a higher one.
Degree e reduces the rows u * r only for the normal words u of degree
e - 2, those that are not leads of I_(e-2): V^(e-2) = I_(e-2) + N_(e-2)
(Bergman's diamond lemma), and I_(e-2) * R lies in I_(e-1) * V.  Such a
row, and every pivot row it meets, has a normal prefix of length e - 2,
while a row of E_j shifted by two or more letters has a lead of I_(e-2)
as that prefix; so degree e is built from the rows of E_(e-1) shifted by
one generator and those of E_e alone.  Whether the reduced rows of R are
a Groebner basis in the given generator order is decided once per
relation space, from the overlaps of the leads of E_2 (``_certified``).
When they are, the leads of every I_e are the words holding a lead of I_2
(Bergman's diamond lemma), and no degree needs elimination: E_e is the
rows u * r whose lead u * l has no lead of E_(e-1) as its prefix of
length e - 1, taken as they are.  ``PresentedAlgebra`` owns the
slices: it caches each requested degree and builds a new one from the
increments of the deepest cached slice, so a lower degree costs no
elimination.  It owns the graded dimensions of the quotient too
(``dimensions``), counted as normal words with no slice built when the
relations are a Groebner basis, else read from the increments of one
slice; and it has one membership test, ``contains_rows``, which
``congruent`` and the Manin checks call: integer rows of degree d lie in
the ideal when each reduces to zero against the echelon of the degree-d
slice, which holds the rows of E_d and builds a shifted row only when a
reduction reaches its lead.
"""

from __future__ import annotations

import functools
import itertools

from .freealg import NCPoly, NonHomogeneous, _combine, word_budget, word_index
from .linalg import Record, SparseEchelon, Subspace
from .tensor import _power_size, budget_refusal


class IdealSlice(Record):
    """The degree-d slice of the ideal generated by R, kept as increments.

    ``increments`` holds E_2, ..., E_d, each a dict lead -> primitive
    integer row of the pivot rows that its degree adds; those of a lower
    degree are a prefix of them.  ``dim`` is arithmetic on the increments;
    ``echelon`` is built on first use.  Two slices are equal only if they
    are the same object.
    """

    _fields = ("gens", "degree", "increments")
    __slots__ = _fields + ("__dict__",)  # the cached echelon
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, gens: tuple, degree: int, increments: tuple):
        super().__init__(gens, degree, increments)

    @property
    def generator_count(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        g, d = self.generator_count, self.degree
        return sum(len(rows) * g ** (d - j) for j, rows in enumerate(self.increments, 2))

    @functools.cached_property
    def echelon(self) -> SparseEchelon:
        """The slice as an echelon over every lead of I_d: the rows of E_d
        at once, any other row when a reduction first reaches its lead."""
        g, d = self.generator_count, self.degree
        leads = set()
        for j, rows in enumerate(self.increments, 2):
            size = g ** (d - j)
            leads.update(lead * size + w for lead in rows for w in range(size))
        return SparseEchelon(_ShiftedRows(self.increments, g, d), leads)

    def subspace(self) -> Subspace:
        """The slice as a Subspace of the g^d-dimensional word space."""
        return self.echelon.dense_basis(self.generator_count ** self.degree)


class _ShiftedRows(dict):
    """Pivot rows of a degree-d slice keyed by lead, starting from the rows
    of E_d.  A lead missing from the dict is l * g^(d-j) + w for one lead l
    of the increment E_j, j < d, and a word w of d - j letters; its row is
    that of l shifted by w, built on the first lookup and kept."""

    __slots__ = ("increments", "g", "d")

    def __init__(self, increments: tuple, g: int, d: int):
        super().__init__(increments[-1])
        self.increments, self.g, self.d = increments, g, d

    def __missing__(self, lead: int) -> dict:
        for j, rows in enumerate(self.increments[:-1], 2):
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
    degree; a new one is built from the increments of the deepest cached
    slice, so a lower degree is a prefix of them.
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
            known = max((s.increments for s in self._slices.values()), key=len, default=())
            cached = self._slices[d] = build_slice_from_subspace(
                self.gens, self.relations, d, known)
        return cached

    def dimensions(self, d: int) -> list:
        """The quotient's dimensions in degrees 0..d, refused like
        ``slice(d)`` before anything is built.  When the relations are a
        Groebner basis (``_certified``), and in degree 2 for any relations,
        they are the counts of normal words, those holding no lead of I_2 as
        a factor (Bergman's diamond lemma), and no slice is built: the
        numbers ends[y] of normal words ending in y carry each degree on.
        Otherwise they are g^e - rank I_e, read from the increments of the
        degree-d slice: rank I_e = g * rank I_(e-1) + |E_e|."""
        if d < 0:
            raise ValueError(f"max degree must be non-negative, got {d}")
        g = len(self.gens)
        _word_space_size(g, d)
        if d < 2:
            return [1, g][:d + 1]
        if d == 2 or _certified(g, self.relations):
            leads = self.relations.rows
            follow = [[y for y in range(g) if x * g + y not in leads] for x in range(g)]
            counts, ends = [1, g], [1] * g
            while len(counts) <= d:
                step = [0] * g
                for x, c in enumerate(ends):
                    for y in follow[x]:
                        step[y] += c
                ends = step
                counts.append(sum(ends))
            return counts
        ranks = [0, 0]
        for rows in self.slice(d).increments:
            ranks.append(g * ranks[-1] + len(rows))
        return [g ** e - rank for e, rank in enumerate(ranks)]

    def reduces_to_zero(self, p: NCPoly) -> bool:
        """Membership of a homogeneous polynomial in the graded ideal."""
        return self.congruent(p, NCPoly.zero())

    def congruent(self, lhs: NCPoly, rhs: NCPoly) -> bool:
        """Does lhs - rhs lie in the graded ideal?  ``contains_rows`` tests
        the difference as one integer row, rhs.den * lhs.num - lhs.den *
        rhs.num, a nonzero multiple of it; it must be homogeneous unless it
        is zero (else NonHomogeneous), while lhs and rhs need not be."""
        diff = _combine(lhs.num, rhs.den, rhs.num, -lhs.den)
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


def span_of_polys(polys, gens, degree: int) -> Subspace:
    """Echelonized span of homogeneous degree-d polynomials in the lex word
    coordinates of ``gens``; any other nonzero polynomial raises
    NonHomogeneous.  Each row is a polynomial's integer numerators, the
    polynomial times its denominator, which spans the same line."""
    gens = tuple(gens)
    pos, g = {x: i for i, x in enumerate(gens)}, len(gens)
    rows = []
    for p in polys:
        if not p.is_homogeneous(degree):
            raise NonHomogeneous(f"polynomial is not homogeneous of degree {degree}")
        if p:
            rows.append({word_index(w, pos, g): c for w, c in p.num.items()})
    return Subspace.span(rows, g ** degree)


def build_slice_from_subspace(gens, relations: Subspace, d: int,
                              known: tuple = ()) -> IdealSlice:
    """Echelonize span{w1 * r * w2 : r in R, |w1| + |w2| = d - 2}, as the
    increments E_2, ..., E_d.

    ``known`` holds increments E_2, E_3, ... already built for the same
    ideal (of any depth); those up to degree d are kept as they are, and
    the degrees past them are built one by one.  Without them E_2 is
    ``relations.rows``, whose reduced primitive rows with ascending leads
    are the pivot rows an echelon would make of them.  The normal words
    of degree e - 1 are those of degree e - 2 followed by each generator,
    less the leads of E_(e-1), replayed through the known degrees too.  A
    word space over the budget is refused before anything is built
    (``_word_space_size``).

    When the rows of E_2 are a Groebner basis (``_certified``, decided
    from E_2 alone), degree e >= 3 builds no echelon: E_e is the set of
    rows u * r, for the normal words u of degree e - 2 and the rows r of
    E_2, whose word u * x is not a lead of E_(e-1), x being the first
    letter of r's lead l.  The leads of I_e are then the words holding a
    lead of I_2, so these rows lie in I_e, lead with distinct words u * l
    outside I_(e-1) * V and number dim I_e - g * dim I_(e-1): with the
    shifted E_(e-1) they are an echelon basis, though not a reduced one.
    The skipped rows u * r, whose lead prefix of length e - 1 is a lead of
    E_(e-1), reduce to zero.

    Otherwise degree e >= 3 starts one plain echelon with the rows of
    E_(e-1) shifted by each generator, whose leads have a normal prefix of
    length e - 2, and inserts the rows u * r for the normal words u of
    degree e - 2 and the rows r of E_2; the rows that raise its rank are
    E_e.  The pivot rows of E_j * V^(e-j) for j <= e - 2 lead with words
    whose prefix of length e - 2 is a lead of I_(e-2), and neither u * r
    nor any row it meets holds such a word, so they are never built: the
    increments, rank and leads are those of inserting w * r for every word
    w into the full slice.  This needs the rows of E_(e-1) reduced, as
    E_2 and every eliminated degree are; the verdict belongs to the
    relations, so the two rules never meet in one slice.
    """
    gens = tuple(gens)
    g = len(gens)
    if d < 2:
        raise ValueError("ideal slices start at degree 2")
    size = _word_space_size(g, d)
    increments = list(known[:d - 1]) or [relations.rows]
    # one int object per word position, shared as a key by every row that
    # holds it, rather than a fresh int per entry
    word = list(range(size))
    # I_1 = 0, and the empty word (index 0) is the one word of degree 0
    newest, normal = {}, [0]
    for e in range(2, d + 1):
        if e - 2 == len(increments):
            if _certified(g, relations):
                rows, firsts = {}, [(lead // g, lead, rel)
                                    for lead, rel in increments[0].items()]
                for u in normal:
                    left, prefix = u * g * g, u * g
                    for x, lead, rel in firsts:
                        if prefix + x not in newest:
                            rows[word[left + lead]] = {word[left + mid]: c
                                                       for mid, c in rel.items()}
                increments.append(rows)
            else:
                ech = SparseEchelon()
                rows = ech.pivots
                for lead, row in newest.items():
                    for x in range(g):
                        rows[word[lead * g + x]] = {word[pos * g + x]: c
                                                    for pos, c in row.items()}
                shifted = len(rows)
                for u in normal:
                    left = u * g * g
                    for rel in increments[0].values():
                        ech.insert({word[left + mid]: c for mid, c in rel.items()})
                increments.append(dict(itertools.islice(rows.items(), shifted, None)))
        normal = [w for u in normal for w in word[u * g:u * g + g] if w not in newest]
        newest = increments[e - 2]
    return IdealSlice(gens, d, tuple(increments))


def _word_space_size(g: int, d: int) -> int:
    """g^d, the number of words of degree d, refused when it passes
    ``word_budget()`` or d passes the longest word, before g^d is formed
    when d alone shows it too large (``tensor._power_size``)."""
    budget = word_budget()
    size = _power_size("word space", g, d, budget)
    if size > budget:
        raise budget_refusal("word space", size, budget)
    # one generator has one word of each degree, so only its length bounds it
    if d > budget:
        raise budget_refusal("word", d, budget)
    return size


# The verdicts kept, keyed like the memos of ``quadratic`` (g leads the key,
# so relation spaces of different sizes are told apart before a compare):
# one ``verify-suite --suite all`` pass decides 75 relation spaces in 142
# lookups, of which none is decided twice with 64 entries.
@functools.lru_cache(maxsize=64)
def _certified(g: int, relations: Subspace) -> bool:
    """Are the reduced rows of R, on g generators in their given order, a
    Groebner basis?  By Bergman's diamond lemma they are iff every overlap
    of two leads resolves; then the leads of every I_e are the words
    holding a lead of I_2.  It is decided in degree 3.  The rows x * r
    whose lead x * l does not start with a lead of E_2, with E_2 shifted
    right by one generator, lead once with each degree-3 word that holds a
    lead.  They span I_3, and are then E_3 as the u * r rule of
    ``build_slice_from_subspace`` builds it, iff every other row x * r (an
    overlap) reduces to zero against them; the first that does not ends
    the check."""
    two, rows, overlaps = relations.rows, {}, []
    for x in range(g):
        for lead, rel in two.items():
            row = {x * g * g + mid: c for mid, c in rel.items()}
            if x * g + lead // g in two:
                overlaps.append(row)
            else:
                rows[x * g * g + lead] = row
    echelon = IdealSlice(tuple(range(g)), 3, (two, rows)).echelon
    return all(map(echelon.contains, overlaps))


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
