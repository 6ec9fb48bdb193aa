"""Minor operators and deformed determinants/permanents.

The minor operator of a matrix M for a pair of tensor operators (T, T~) is
T M^{(1)} ... M^{(k)} T~, with noncommutative entries.  Taking T~ to be a
k-th S-operator or T a k-th A-operator specializes to the S- and A-minors,
whose entries are normalized permanents and deformed determinants of
submatrices.  Identities between such expressions are verified modulo a
presented algebra by exact membership in its graded ideal slice.

Grids of NCPoly, each entry integer numerators over one denominator, are
the input and output type, and no Fraction is built per term: the chain's
entries and the terms of a determinant or permanent are multiplied out
directly (``freealg._entry_product``), the operators are applied by the
integer grid kernel of ``freealg.poly_grid_product``, and
``verify_identity`` decides lhs - rhs as the one integer row
rhs.den * lhs.num - lhs.den * rhs.num (``PresentedAlgebra.congruent``)
without building the difference.  Minors
check their operators' arity and local dims against M and k; determinants
and permanents, one sum over ``permutations.weighted_words``, and
``inversion_parameter_product`` validate a parameter matrix unless it is
already an ``idempotents.ParameterMatrix``.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import NCPoly, _entry_product, poly_grid_product, poly_matrix
from .idempotents import check_parameter_matrix, uniform_parameter_matrix
from .ideals import PresentedAlgebra
from .linalg import Record
from .permutations import Perm, mu, weighted_words
from .tensor import TensorOperator, compose_chain


class MinorOperator(Record):
    """T M^(1) ... M^(arity) T~ for T = ``left`` and T~ = ``right``, as a
    tuple of rows of NCPoly ``entries``."""

    __slots__ = _fields = ("arity", "left", "right", "entries")

    def __init__(self, arity: int, left: TensorOperator, right: TensorOperator,
                 entries: tuple):
        super().__init__(arity, left, right, entries)


def minor_operator(T: TensorOperator, Ttilde: TensorOperator, M, k: int) -> MinorOperator:
    """T M^{(1)} ... M^{(k)} T~ with NCPoly entries."""
    grid = poly_grid_product(_checked_chain(M, k, T, Ttilde), T, Ttilde)
    return MinorOperator(k, T, Ttilde, tuple(tuple(row) for row in grid))


def s_minor(M, s_op: TensorOperator, k: int) -> list:
    """Min_{S~(k)} M = M^{(1)} ... M^{(k)} S~_(k)."""
    return poly_grid_product(_checked_chain(M, k, right=s_op), right=s_op)


def a_minor(M, a_op: TensorOperator, k: int) -> list:
    """Min^{A(k)} M = A_(k) M^{(1)} ... M^{(k)}."""
    return poly_grid_product(_checked_chain(M, k, left=a_op), left=a_op)


def _checked_chain(M, k: int, left=None, right=None) -> list:
    """M^{(1)} ... M^{(k)}, once the operators on either side have arity k
    and the local dims of M (n rows on the left, m columns on the right)."""
    M = poly_matrix(M)
    if any(op is not None and op.arity != k for op in (left, right)):
        raise ValueError("operator arities must equal k")
    if (left is not None and left.col_dim != len(M)) or \
            (right is not None and right.row_dim != len(M[0])):
        raise ValueError("operator local dims do not match the matrix")
    return compose_chain(M, k)


def det_qhat(qhat, M) -> NCPoly:
    """Multi-parameter column determinant:
    sum_sigma sgn(sigma) mu(qhat, sigma)^{-1} M^{sigma(1)}_1 ... M^{sigma(k)}_k.

    qhat must be a valid k x k parameter matrix (``check_parameter_matrix``).
    """
    return _weighted_sum(qhat, M, "determinants")


def perm_qhat(phat, M) -> NCPoly:
    """Multi-parameter row permanent:
    sum_sigma mu(phat, sigma) M^1_{sigma(1)} ... M^k_{sigma(k)}.

    The weight is the inversion product mu; with all parameters 1 this is
    the plain row permanent (2x2 check: perm = ad + p bc).  phat must be a
    valid k x k parameter matrix.
    """
    return _weighted_sum(phat, M, "permanents")


def _weighted_sum(qhat, M, what: str) -> NCPoly:
    """sum_sigma w(sigma) N^1_{sigma(1)} ... N^k_{sigma(k)} over the
    ``weighted_words`` of 1..k: for the permanent N = M and w = mu(qhat, sigma),
    for the determinant N = M^T and w = sgn / mu(qhat, sigma) = sgn mu(qhat^T, sigma)."""
    M = poly_matrix(M)
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError(f"{what} take square matrices")
    rows = check_parameter_matrix(qhat)
    if len(rows) != k:
        raise ValueError(f"a {len(rows)} x {len(rows)} parameter matrix does not fit "
                         f"a {k} x {k} matrix")
    signed = what == "determinants"
    if signed:
        M, rows = list(zip(*M)), list(zip(*rows))
    out = NCPoly.zero()
    for word, sign, mu in weighted_words(rows, range(1, k + 1)):
        out = out + _entry_product([row[s - 1] for row, s in zip(M, word)],
                                   sign * mu.numerator if signed else mu.numerator,
                                   mu.denominator)
    return out


def column_det(M) -> NCPoly:
    """Plain column determinant (all deformation parameters 1)."""
    return det_qhat(uniform_parameter_matrix(len(M), 1), M)


def row_perm(M) -> NCPoly:
    """Plain row permanent."""
    return perm_qhat(uniform_parameter_matrix(len(M), 1), M)


def verify_identity(lhs: NCPoly, rhs: NCPoly, ideal: PresentedAlgebra) -> bool:
    """lhs - rhs lies in the graded ideal of the presented algebra
    (``PresentedAlgebra.congruent``: the difference is decided as one integer
    row, without building it as a polynomial)."""
    return ideal.congruent(lhs, rhs)


def verify_matrix_identity(lhs, rhs, ideal) -> bool:
    """Entrywise verify_identity for grids of NCPoly."""
    if len(lhs) != len(rhs) or any(len(a) != len(b) for a, b in zip(lhs, rhs)):
        raise ValueError("grids have different shapes")
    for row_l, row_r in zip(lhs, rhs):
        for a, b in zip(row_l, row_r):
            if not verify_identity(a, b, ideal):
                return False
    return True


def row_permuted(M, tau: Perm) -> list:
    """^tau M: row i moves to row tau(i)."""
    M = poly_matrix(M)
    tinv = _fitted_inverse(tau, len(M), "rows")
    return [M[tinv(r) - 1] for r in range(1, len(M) + 1)]


def col_permuted(M, tau: Perm) -> list:
    """_tau M = M tau^{-1}: column j moves to column tau(j)."""
    M = poly_matrix(M)
    tinv = _fitted_inverse(tau, len(M[0]), "columns")
    return [[row[tinv(c) - 1] for c in range(1, len(M[0]) + 1)] for row in M]


def _fitted_inverse(tau: Perm, size: int, what: str) -> Perm:
    """tau^-1, once tau permutes as many points as there are rows or columns."""
    if tau.size != size:
        raise ValueError(f"a permutation of {tau.size} points does not fit "
                         f"a matrix with {size} {what}")
    return tau.inverse()


def inversion_parameter_product(qhat, tau: Perm) -> Fraction:
    """prod of q_ij over i < j with tau(i) > tau(j), which is mu(qhat, tau^-1),
    for a valid parameter matrix qhat (``check_parameter_matrix``) of tau's
    size."""
    rows = check_parameter_matrix(qhat)
    if len(rows) != tau.size:
        raise ValueError(f"a {len(rows)} x {len(rows)} parameter matrix does not fit "
                         f"a permutation of {tau.size} points")
    return mu(rows, tau.inverse())
