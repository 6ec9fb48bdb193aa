"""Manin-matrix predicates and relation-space calculus.

An (A, B)-Manin matrix over an algebra satisfies A M^{(1)} M^{(2)} (1-B) = 0.
Over a presented algebra the condition is decided entirely in degree 2: every
entry of the defect must lie in the degree-2 relation span.  The universal
relations (the presentation of the right quantum algebra U_{A,B}) are built
by applying the same defect to the generator matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .freealg import (NCPoly, generator_matrix, matrix_gen, poly_grid_product,
                      poly_mat_mul, poly_mat_sub, poly_mat_transpose)
from .idempotents import (antisymmetrizer, conjugate, hecke_r_matrix,
                          is_idempotent, InvalidParameter, q_antisymmetrizer,
                          q_symmetrizer)
from .ideals import PresentedAlgebra, span_of_polys
from .linalg import QMatrix, Subspace, invert, rat
from .permutations import Perm
from .tensor import TensorOperator, compose_chain, swap_operator


@dataclass(frozen=True)
class ManinPair:
    """A pair of idempotents (A on n^2, B on m^2); ``complement`` is 1 - B."""

    A: TensorOperator
    B: TensorOperator
    complement: TensorOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for op in (self.A, self.B):
            if op.arity != 2 or not op.square:
                raise ValueError("Manin pairs take arity-2 square operators")
            if not is_idempotent(op):
                raise ValueError("Manin pairs take idempotents")
        object.__setattr__(self, "complement",
                           TensorOperator.identity(self.m, 2) - self.B)

    @property
    def n(self) -> int:
        return self.A.row_dim

    @property
    def m(self) -> int:
        return self.B.row_dim


@dataclass(frozen=True)
class UniversalRelations:
    """Degree-2 relation span of U_{A,B} in the n*m generators sym[i,j]."""

    pair: ManinPair
    symbol: str
    gens: tuple
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def algebra(self) -> PresentedAlgebra:
        return PresentedAlgebra(self.gens, self.space)


def manin_defect(pair: ManinPair, M) -> list:
    """The matrix A M^{(1)} M^{(2)} (1 - B) of NCPoly entries."""
    n, m = pair.n, pair.m
    if len(M) != n or any(len(row) != m for row in M):
        raise ValueError("matrix shape does not match the pair")
    return poly_grid_product(compose_chain(M, 2), pair.A, pair.complement)


def universal_relations(pair: ManinPair, symbol: str = "M") -> UniversalRelations:
    n, m = pair.n, pair.m
    gens = tuple(matrix_gen(symbol, i, j)
                 for i in range(1, n + 1) for j in range(1, m + 1))
    M = generator_matrix(symbol, n, m)
    defect = manin_defect(pair, M)
    space = span_of_polys([e for row in defect for e in row], gens, 2)
    return UniversalRelations(pair, symbol, gens, space)


def is_manin(pair: ManinPair, M, ambient: PresentedAlgebra) -> bool:
    """Does M pass the (A, B)-Manin check modulo the ambient's relations?

    Entries of M must be homogeneous of degree 1 in the ambient generators
    (zero entries are fine); the defect then lives in degree 2 and is tested
    against the ambient's degree-2 relation span.
    """
    for row in M:
        for e in row:
            if not e.is_zero() and not e.is_homogeneous(1):
                raise ValueError("entries must be homogeneous of degree 1")
    for row in manin_defect(pair, M):
        for e in row:
            if not ambient.reduces_to_zero(e):
                return False
    return True


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
    as degree-2 memberships); the defect of K is then tested in degree 4.
    """
    if pair_ab.m != pair_bc.n:
        raise ValueError("middle dimensions differ")
    for c in cross_commutators(M, N):
        if not ambient.reduces_to_zero(c):
            raise ValueError("entries of M and N do not commute in the ambient")
    K = poly_mat_mul(M, N)
    pair_ac = ManinPair(pair_ab.A, pair_bc.B)
    for row in manin_defect(pair_ac, K):
        for e in row:
            if not ambient.reduces_to_zero(e):
                return False
    return True


def transport(pair: ManinPair, M, sigma, tau) -> ManinPair:
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
    gens = tuple(matrix_gen("L", i, j)
                 for i in range(1, n + 1) for j in range(1, m + 1))
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
    gens = tuple(matrix_gen("M", i, j)
                 for i in range(1, n + 1) for j in range(1, m + 1))
    M = generator_matrix("M", n, m)
    defect = manin_defect(ManinPair(antisymmetrizer(n), antisymmetrizer(m)), M)
    defect_t = manin_defect(ManinPair(antisymmetrizer(m), antisymmetrizer(n)),
                            poly_mat_transpose(M))
    polys = [e for row in defect + defect_t for e in row]
    commutators = []
    for x, y in itertools.combinations([g for row in M for g in row], 2):
        commutators.append(x * y - y * x)
    return span_of_polys(polys, gens, 2) == span_of_polys(commutators, gens, 2)


def submatrix(M, I, J) -> list:
    """M_{IJ}: rows and columns picked (repeats allowed), 1-based tuples."""
    return [[M[i - 1][j - 1] for j in J] for i in I]


def bracket(x: NCPoly, y: NCPoly) -> NCPoly:
    return x * y - y * x


def orthogonal_pair_relations(n: int, m: int, symbol: str = "M") -> list:
    """The (A_n, B_m) relations with the central element eliminated:
    [M^i_k, M^j_l] + [M^i_l, M^j_k] = delta_{k+l,m+1} Lambda^{ij},
    Lambda^{ij} = [M^i_1, M^j_m] + [M^i_m, M^j_1]."""
    M = generator_matrix(symbol, n, m)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lam = bracket(M[i - 1][0], M[j - 1][m - 1]) + \
                bracket(M[i - 1][m - 1], M[j - 1][0])
            for k in range(1, m + 1):
                for l in range(k, m + 1):
                    p = bracket(M[i - 1][k - 1], M[j - 1][l - 1]) + \
                        bracket(M[i - 1][l - 1], M[j - 1][k - 1])
                    if k + l == m + 1:
                        p = p - lam
                    out.append(p)
    return out


def symplectic_pair_relations(n: int, m: int, symbol: str = "M") -> list:
    """The (B~_n, A_m) relations with the central element eliminated:
    [M^i_k, M^j_l] + [M^i_l, M^j_k] = delta_{i+j,n+1} Lambda~_{kl},
    Lambda~_{kl} = [M^1_k, M^n_l] + [M^1_l, M^n_k]."""
    M = generator_matrix(symbol, n, m)
    out = []
    for k in range(1, m + 1):
        for l in range(k, m + 1):
            lam = bracket(M[0][k - 1], M[n - 1][l - 1]) + \
                bracket(M[0][l - 1], M[n - 1][k - 1])
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    p = bracket(M[i - 1][k - 1], M[j - 1][l - 1]) + \
                        bracket(M[i - 1][l - 1], M[j - 1][k - 1])
                    if i + j == n + 1:
                        p = p - lam
                    out.append(p)
    return out
