"""Minor operators and deformed determinants/permanents.

The minor operator of a matrix M for a pair of tensor operators (T, T~) is
T M^{(1)} ... M^{(k)} T~, with noncommutative entries.  Taking T~ to be a
k-th S-operator or T a k-th A-operator specializes to the S- and A-minors,
whose entries are normalized permanents and deformed determinants of
submatrices.  Identities between such expressions are verified modulo a
presented algebra by exact membership in its graded ideal slice.

Grids of NCPoly stay the input and output type, but the arithmetic runs on
integers: the chain's entries and the terms of a determinant or permanent
are multiplied out directly (``freealg._entry_product``), the operators are
applied by the integer grid kernel of ``freealg.poly_grid_product``, and
``verify_identity`` decides lhs - rhs as one integer row
(``PresentedAlgebra.congruent``) without building the difference.  Minors
check their operators' arity and local dims against M and k, and
determinants and permanents validate their k x k parameter matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freealg import NCPoly, _entry_product, poly_grid_product, poly_matrix
from .idempotents import check_parameter_matrix
from .ideals import PresentedAlgebra
from .linalg import ONE, QMatrix
from .permutations import Perm, all_perms, mu, mu_of_rows
from .tensor import TensorOperator, compose_chain, flatten_index


@dataclass(frozen=True)
class MinorOperator:
    arity: int
    left: TensorOperator
    right: TensorOperator
    entries: tuple  # tuple of tuples of NCPoly

    def entry(self, row_index, col_index) -> NCPoly:
        return self.entries[flatten_index(row_index, self.left.row_dim)][
            flatten_index(col_index, self.right.col_dim)]


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
    M = poly_matrix(M.data if isinstance(M, QMatrix) else M)
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
    M = _square(M, "determinants")
    k = len(M)
    rows = _parameter_rows(qhat, k)
    out = NCPoly.zero()
    for sigma in all_perms(k):
        weight = mu_of_rows(rows, sigma)
        out = out + _entry_product([M[sigma(t) - 1][t - 1] for t in range(1, k + 1)],
                                   sigma.sign() * weight.denominator, weight.numerator)
    return out


def perm_qhat(phat, M) -> NCPoly:
    """Multi-parameter row permanent:
    sum_sigma mu(phat, sigma) M^1_{sigma(1)} ... M^k_{sigma(k)}.

    The weight is the inversion product mu; with all parameters 1 this is
    the plain row permanent (2x2 check: perm = ad + p bc).  phat must be a
    valid k x k parameter matrix.
    """
    M = _square(M, "permanents")
    k = len(M)
    rows = _parameter_rows(phat, k)
    out = NCPoly.zero()
    for sigma in all_perms(k):
        weight = mu_of_rows(rows, sigma)
        out = out + _entry_product([M[t - 1][sigma(t) - 1] for t in range(1, k + 1)],
                                   weight.numerator, weight.denominator)
    return out


def _square(M, what: str) -> list:
    M = poly_matrix(M)
    if any(len(row) != len(M) for row in M):
        raise ValueError(f"{what} take square matrices")
    return M


def _parameter_rows(qhat, k: int) -> list:
    """The rows of a validated k x k parameter matrix."""
    rows = check_parameter_matrix(qhat)
    if len(rows) != k:
        raise ValueError(f"a {len(rows)} x {len(rows)} parameter matrix does not fit "
                         f"a {k} x {k} matrix")
    return rows


def column_det(M) -> NCPoly:
    """Plain column determinant (all deformation parameters 1)."""
    k = len(M)
    ones = [[ONE] * k for _ in range(k)]
    return det_qhat(ones, M)


def row_perm(M) -> NCPoly:
    """Plain row permanent."""
    k = len(M)
    ones = [[ONE] * k for _ in range(k)]
    return perm_qhat(ones, M)


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
    tinv = tau.inverse()
    return [M[tinv(r) - 1] for r in range(1, len(M) + 1)]


def col_permuted(M, tau: Perm) -> list:
    """_tau M = M tau^{-1}: column j moves to column tau(j)."""
    M = poly_matrix(M)
    tinv = tau.inverse()
    return [[row[tinv(c) - 1] for c in range(1, len(M[0]) + 1)] for row in M]


def inversion_parameter_product(qhat, tau: Perm) -> Fraction:
    """prod of q_ij over i < j with tau(i) > tau(j), which is mu(qhat, tau^-1)."""
    return mu(qhat, tau.inverse())
