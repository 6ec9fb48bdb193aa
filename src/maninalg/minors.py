"""Minor operators and deformed determinants/permanents.

The minor operator of a matrix M for a pair of tensor operators (T, T~) is
T M^{(1)} ... M^{(k)} T~, with noncommutative entries.  Taking T~ to be a
k-th S-operator or T a k-th A-operator specializes to the S- and A-minors,
whose entries are normalized permanents and deformed determinants of
submatrices.  Identities between such expressions are verified modulo a
presented algebra by exact membership in its graded ideal slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freealg import NCPoly, poly_grid_product, poly_matrix
from .ideals import PresentedAlgebra
from .linalg import ONE, rat
from .permutations import Perm, all_perms, mu
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
    M = poly_matrix(M)
    n, m = len(M), len(M[0])
    if T.arity != k or Ttilde.arity != k:
        raise ValueError("operator arities must equal k")
    if T.col_dim != n or Ttilde.row_dim != m:
        raise ValueError("operator local dims do not match the matrix")
    grid = poly_grid_product(compose_chain(M, k), T, Ttilde)
    return MinorOperator(k, T, Ttilde, tuple(tuple(row) for row in grid))


def s_minor(M, s_op: TensorOperator, k: int) -> list:
    """Min_{S~(k)} M = M^{(1)} ... M^{(k)} S~_(k)."""
    return poly_grid_product(compose_chain(M, k), right=s_op)


def a_minor(M, a_op: TensorOperator, k: int) -> list:
    """Min^{A(k)} M = A_(k) M^{(1)} ... M^{(k)}."""
    return poly_grid_product(compose_chain(M, k), left=a_op)


def det_qhat(qhat, M) -> NCPoly:
    """Multi-parameter column determinant:
    sum_sigma sgn(sigma) mu(qhat, sigma)^{-1} M^{sigma(1)}_1 ... M^{sigma(k)}_k."""
    M = poly_matrix(M)
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("determinants take square matrices")
    out = NCPoly.zero()
    for sigma in all_perms(k):
        coeff = Fraction(sigma.sign()) / mu(qhat, sigma)
        term = NCPoly.scalar(coeff)
        for t in range(1, k + 1):
            term = term * M[sigma(t) - 1][t - 1]
            if term.is_zero():
                break
        out = out + term
    return out


def perm_qhat(phat, M) -> NCPoly:
    """Multi-parameter row permanent:
    sum_sigma mu(phat, sigma) M^1_{sigma(1)} ... M^k_{sigma(k)}.

    The weight is the inversion product mu; with all parameters 1 this is
    the plain row permanent (2x2 check: perm = ad + p bc).
    """
    M = poly_matrix(M)
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("permanents take square matrices")
    out = NCPoly.zero()
    for sigma in all_perms(k):
        term = NCPoly.scalar(mu(phat, sigma))
        for t in range(1, k + 1):
            term = term * M[t - 1][sigma(t) - 1]
            if term.is_zero():
                break
        out = out + term
    return out


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
    """lhs - rhs lies in the graded ideal of the presented algebra."""
    return ideal.reduces_to_zero(lhs - rhs)


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
    """prod of q_ij over i < j with tau(i) > tau(j)."""
    rows = qhat.data if hasattr(qhat, "data") else [[rat(x) for x in r] for r in qhat]
    out = ONE
    k = tau.size
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if tau(i) > tau(j):
                out *= rows[i - 1][j - 1]
    return out
