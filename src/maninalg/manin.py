"""Manin-matrix predicates and relation-space calculus.

An (A, B)-Manin matrix over an algebra satisfies A M^{(1)} M^{(2)} (1-B) = 0.
Over a presented algebra the condition is decided entirely in degree 2: every
entry of the defect must lie in the degree-2 relation span.  The universal
relations (the presentation of the right quantum algebra U_{A,B}) are built
by applying the same defect to the generator matrix.

Every Manin decision goes through ``defect_rows``: it reads each entry of M
once as a word-index vector and forms the entries of M^{(1)} M^{(2)} by
index arithmetic.  The defect is the k = 2 case of the minor operator
T M^{(1)}...M^{(k)} T~, so A and 1 - B are applied by the same integer grid
kernel as the minors (``freealg._grid_times``).  Its rows are the defect
entries up to nonzero factors, which change neither a span nor a
membership, so ``is_manin``, ``product_is_manin`` and
``universal_relations`` stay exact without building a polynomial or a
Fraction.
"""

from __future__ import annotations

import functools
import itertools
from math import lcm

from .freealg import (NCPoly, _grid_times, generator_matrix, matrix_generators,
                      poly_grid_product, poly_mat_mul, poly_mat_sub,
                      poly_mat_transpose, word_index)
from .idempotents import (antisymmetrizer, conjugate, hecke_r_matrix,
                          is_idempotent, InvalidParameter, q_antisymmetrizer,
                          q_symmetrizer)
from .ideals import PresentedAlgebra, span_of_polys
from .linalg import QMatrix, Record, Subspace, invert, rat
from .permutations import Perm
from .tensor import TensorOperator, compose_chain, swap_operator


class ManinPair(Record):
    """A pair of idempotents (A on n^2, B on m^2); ``complement`` is 1 - B,
    built once, since every defect multiplies by it.  It is derived from B,
    so it is not a field: equality, hash and repr read A and B only."""

    _fields = ("A", "B")
    __slots__ = _fields + ("complement",)

    def __init__(self, A: TensorOperator, B: TensorOperator):
        for op in (A, B):
            if op.arity != 2 or not op.square:
                raise ValueError("Manin pairs take arity-2 square operators")
            if not is_idempotent(op):
                raise ValueError("Manin pairs take idempotents")
        super().__init__(A, B)
        object.__setattr__(self, "complement", TensorOperator.identity(self.m, 2) - B)

    @property
    def n(self) -> int:
        return self.A.row_dim

    @property
    def m(self) -> int:
        return self.B.row_dim


class UniversalRelations(Record):
    """Degree-2 relation span of U_{A,B} in the n*m generators sym[i,j]."""

    __slots__ = _fields = ("pair", "symbol", "gens", "space")

    def __init__(self, pair: ManinPair, symbol: str, gens: tuple, space: Subspace):
        super().__init__(pair, symbol, gens, space)

    @property
    def dim(self) -> int:
        return self.space.dim

    def algebra(self) -> PresentedAlgebra:
        return PresentedAlgebra(self.gens, self.space)


def defect_rows(pair: ManinPair, M, degree: int, gen_pos: dict) -> list:
    """The nonzero entries of A M^{(1)} M^{(2)} (1 - B), each up to a nonzero
    factor, as integer rows {word index: int} over the words of length
    2 * degree in the lex order of ``gen_pos`` (generator -> position).

    Every entry of M must be homogeneous of ``degree`` (zero entries are
    fine); then an entry with words a and b of M^{(1)} M^{(2)} is
    {a * g^degree + b: c1 * c2}.  The arithmetic runs on integers: M's
    entries are brought to one common denominator D, and the chain is an
    integer grid, so A and 1 - B are applied by the grid kernel of
    ``poly_grid_product`` (``freealg._grid_times``) as integer rows over
    their denominators d and e.  So the row returned for entry (r, s) is
    the true entry times D^2 * d * e, a nonzero factor.  Scaling by nonzero
    factors changes neither the span of the rows nor whether each lies in a
    subspace, which is all that a Manin check and a relation span read from
    them: the result is exact.  Zero entries are left out.
    """
    for row in M:
        for e in row:
            if not e.is_homogeneous(degree):
                raise ValueError(f"entries must be homogeneous of degree {degree}")
    n, m = pair.n, pair.m
    if len(M) != n or any(len(row) != m for row in M):
        raise ValueError("matrix shape does not match the pair")
    g = len(gen_pos)
    den = lcm(*(e.den for row in M for e in row))
    try:
        entries = [{word_index(w, gen_pos, g): c * (den // e.den) for w, c in e.num.items()}
                   for row in M for e in row]
    except KeyError as exc:
        raise ValueError(f"entry generator {exc.args[0]!r} is not a generator "
                         "of the algebra") from None
    shift = g ** degree
    # chain[i1 * n + i2][j1 * m + j2] = M^{i1}_{j1} M^{i2}_{j2}
    chain = [[{a * shift + b: c1 * c2 for a, c1 in x.items() for b, c2 in y.items()}
              for x in entries[i1 * m:(i1 + 1) * m] for y in entries[i2 * m:(i2 + 1) * m]]
             for i1 in range(n) for i2 in range(n)]
    _, grid = _grid_times(chain, pair.A, pair.complement)
    # an entry is rebuilt only when it holds a zero term
    return [row for grid_row in grid for entry in grid_row
            if (row := {w: c for w, c in entry.items() if c}
                if 0 in entry.values() else entry)]


def universal_relations(pair: ManinPair, symbol: str = "M") -> UniversalRelations:
    n, m = pair.n, pair.m
    gens = matrix_generators(symbol, n, m)
    rows = defect_rows(pair, generator_matrix(symbol, n, m), 1,
                       {g: i for i, g in enumerate(gens)})
    return UniversalRelations(pair, symbol, gens, Subspace.span(rows, len(gens) ** 2))


def is_manin(pair: ManinPair, M, ambient: PresentedAlgebra) -> bool:
    """Does M pass the (A, B)-Manin check modulo the ambient's relations?

    Entries of M must be homogeneous of degree 1 in the ambient generators
    (zero entries are fine); the defect then lives in degree 2 and is tested
    against the ambient's degree-2 relation span.
    """
    return ambient.contains_rows(defect_rows(pair, M, 1, ambient.gen_pos), 2)


def cross_commutators(M, N) -> list:
    """[M^i_j, N^k_l] for all entry pairs."""
    out = []
    for mrow in M:
        for x in mrow:
            for nrow in N:
                for y in nrow:
                    if x and y:
                        out.append(x * y - y * x)
    return out


def product_is_manin(pair_ab: ManinPair, pair_bc: ManinPair, M, N,
                     ambient: PresentedAlgebra) -> bool:
    """Verify that K = M N passes the (A, C) check modulo the ambient.

    Entries of M must commute with entries of N inside the ambient (checked
    as degree-2 memberships), and the entries of K must be homogeneous of
    one degree e; the defect of K is then tested in degree 2e (4 for
    entries of M and N of degree 1).
    """
    if pair_ab.m != pair_bc.n:
        raise ValueError("middle dimensions differ")
    for c in cross_commutators(M, N):
        if not ambient.reduces_to_zero(c):
            raise ValueError("entries of M and N do not commute in the ambient")
    K = poly_mat_mul(M, N)
    degree = next((e.degree() for row in K for e in row if e), 0)
    rows = defect_rows(ManinPair(pair_ab.A, pair_bc.B), K, degree, ambient.gen_pos)
    return ambient.contains_rows(rows, 2 * degree)


def transport(pair: ManinPair, sigma, tau) -> ManinPair:
    """The pair under which sigma M tau^{-1} is Manin whenever M is.

    sigma and tau act on rows and columns; permutations or invertible
    QMatrix instances are accepted.
    """
    return ManinPair(_conjugate_any(pair.A, sigma), _conjugate_any(pair.B, tau))


def _conjugate_any(E: TensorOperator, g) -> TensorOperator:
    if isinstance(g, Perm):
        return conjugate(E, g)
    if isinstance(g, QMatrix):
        gi = invert(g)
        if gi is None:
            raise ValueError("transport needs an invertible operator")
        n = E.row_dim
        return (TensorOperator(n, n, 2, g.kron(g)) * E
                * TensorOperator(n, n, 2, gi.kron(gi)))
    raise TypeError("transport takes a Perm or a QMatrix")


def rll_matches_double_qmanin(n: int, m: int, q) -> bool:
    """Span{RLL relations} == Span{A^q L L S^q} + Span{S^q L' L' A^q}.

    The left side is the R-matrix exchange relation R L^{(1)} L^{(2)} =
    L^{(2)} L^{(1)} R; the right side pairs the q-Manin relations of L with
    those of its transpose.
    """
    q = rat(q)
    if q in (0, 1, -1):
        raise InvalidParameter("q must avoid {0, 1, -1}")
    gens = matrix_generators("L", n, m)
    c12 = compose_chain(generator_matrix("L", n, m), 2)
    # L^{(2)} L^{(1)} = P_n (L^{(1)} L^{(2)}) P_m entrywise, so every product
    # with the reversed chain is a product with c12 and the flips folded in
    p_n, p_m = swap_operator(n), swap_operator(m)
    # the exchange relation uses the Yang-Baxter form R = P * R^(hat)
    r_n = p_n * hecke_r_matrix(n, q)
    r_m = p_m * hecke_r_matrix(m, q)
    rll = poly_mat_sub(poly_grid_product(c12, left=r_n),
                       poly_grid_product(c12, p_n, p_m * r_m))
    aq_s = poly_grid_product(c12, q_antisymmetrizer(n, q), q_symmetrizer(m, q))
    sq_a = poly_grid_product(c12, q_symmetrizer(n, q) * p_n,
                             p_m * q_antisymmetrizer(m, q))
    span_rll = span_of_polys([e for row in rll for e in row], gens, 2)
    span_two = span_of_polys([e for row in aq_s + sq_a for e in row], gens, 2)
    return span_rll == span_two


def double_manin_matches_commutators(n: int, m: int) -> bool:
    """Manin relations of M plus those of M^T span all commutators."""
    gens = matrix_generators("M", n, m)
    pos = {g: i for i, g in enumerate(gens)}
    M = generator_matrix("M", n, m)
    rows = defect_rows(ManinPair(antisymmetrizer(n), antisymmetrizer(m)), M, 1, pos)
    rows += defect_rows(ManinPair(antisymmetrizer(m), antisymmetrizer(n)),
                        poly_mat_transpose(M), 1, pos)
    commutators = []
    for x, y in itertools.combinations([g for row in M for g in row], 2):
        commutators.append(x * y - y * x)
    return Subspace.span(rows, len(gens) ** 2) == span_of_polys(commutators, gens, 2)


def submatrix(M, I, J) -> list:
    """M_{IJ}: rows and columns picked (repeats allowed), 1-based tuples
    with rows in 1..len(M) and columns in 1..len(M[0])."""
    if not (all(1 <= i <= len(M) for i in I) and all(1 <= j <= len(M[0]) for j in J)):
        raise ValueError(f"rows {tuple(I)!r} or columns {tuple(J)!r} leave the "
                         f"{len(M)} x {len(M[0])} matrix")
    return [[M[i - 1][j - 1] for j in J] for i in I]


def bracket(x: NCPoly, y: NCPoly) -> NCPoly:
    return x * y - y * x


def orthogonal_pair_relations(n: int, m: int) -> list:
    """The (A_n, B_m) relations with the central element eliminated:
    p^{ij}_{kl} = delta_{k+l,m+1} Lambda^{ij}, Lambda^{ij} = p^{ij}_{1m}
    (``_eliminated_relations``)."""
    return _eliminated_relations(
        n, m, lambda i, j, k, l: (i, j, 1, m) if k + l == m + 1 else None)


def symplectic_pair_relations(n: int, m: int) -> list:
    """The (B~_n, A_m) relations with the central element eliminated:
    p^{ij}_{kl} = delta_{i+j,n+1} Lambda~_{kl}, Lambda~_{kl} = p^{1n}_{kl}
    (``_eliminated_relations``)."""
    return _eliminated_relations(
        n, m, lambda i, j, k, l: (1, n, k, l) if i + j == n + 1 else None)


def _eliminated_relations(n: int, m: int, central) -> list:
    """p^{ij}_{kl} = [M^i_k, M^j_l] + [M^i_l, M^j_k] for i < j and k <= l,
    less p at the indices central(i, j, k, l) where that is not None."""
    M = generator_matrix("M", n, m)

    @functools.cache  # each central term serves several relations
    def p(i, j, k, l):
        return bracket(M[i - 1][k - 1], M[j - 1][l - 1]) + \
            bracket(M[i - 1][l - 1], M[j - 1][k - 1])
    out = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for k, l in itertools.combinations_with_replacement(range(1, m + 1), 2):
            c = central(i, j, k, l)
            out.append(p(i, j, k, l) if c is None else p(i, j, k, l) - p(*c))
    return out
