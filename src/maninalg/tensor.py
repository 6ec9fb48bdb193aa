"""Operators on tensor powers of coordinate spaces.

A :class:`TensorOperator` of arity k maps (C^m)^{tensor k} to
(C^n)^{tensor k} and stores its matrix in the lexicographic multi-index
basis: the multi-index (i_1, ..., i_k) with digits in 1..n flattens to
sum (i_t - 1) * n^(k-t), so the leftmost digit is most significant.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .freealg import NCPoly, poly_matrix
from .linalg import ONE, QMatrix
from .permutations import Perm, reduced_word

DEFAULT_TENSOR_BUDGET = 4096


def tensor_budget() -> int:
    return int(os.environ.get("MANIN_BUDGET", DEFAULT_TENSOR_BUDGET))


class BudgetExceeded(ValueError):
    """A requested component is larger than the configured size budget."""


def check_budget(size: int):
    budget = tensor_budget()
    if size > budget:
        raise BudgetExceeded(f"component of size {size} exceeds budget {budget} "
                             "(override with MANIN_BUDGET)")


def multi_indices(n: int, k: int):
    """All multi-indices (i_1..i_k), digits 1..n, lexicographic order."""
    return itertools.product(range(1, n + 1), repeat=k)


def flatten_index(index, n: int) -> int:
    out = 0
    for i in index:
        out = out * n + (i - 1)
    return out


def unflatten_index(flat: int, n: int, k: int) -> tuple:
    digits = []
    for _ in range(k):
        digits.append(flat % n + 1)
        flat //= n
    return tuple(reversed(digits))


@dataclass(frozen=True)
class TensorOperator:
    """Operator on tensor powers, possibly rectangular across local dims."""

    row_dim: int  # local dimension n of the target
    col_dim: int  # local dimension m of the source
    arity: int
    matrix: QMatrix  # shape n^arity x m^arity

    def __post_init__(self):
        if self.matrix.rows != self.row_dim ** self.arity or \
           self.matrix.cols != self.col_dim ** self.arity:
            raise ValueError("matrix shape does not match local dims and arity")

    @property
    def square(self) -> bool:
        return self.row_dim == self.col_dim

    @staticmethod
    def identity(n: int, arity: int) -> "TensorOperator":
        return TensorOperator(n, n, arity, QMatrix.identity(n ** arity))

    @staticmethod
    def zero(n: int, arity: int, m: int | None = None) -> "TensorOperator":
        m = n if m is None else m
        return TensorOperator(n, m, arity, QMatrix.zero(n ** arity, m ** arity))

    def entry(self, row_index, col_index):
        return self.matrix.data[flatten_index(row_index, self.row_dim)][
            flatten_index(col_index, self.col_dim)]

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if self.arity != other.arity or self.col_dim != other.row_dim:
            raise ValueError("operators do not compose")
        return TensorOperator(self.row_dim, other.col_dim, self.arity,
                              self.matrix * other.matrix)

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        return TensorOperator(self.row_dim, self.col_dim, self.arity,
                              self.matrix + other.matrix)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        return TensorOperator(self.row_dim, self.col_dim, self.arity,
                              self.matrix - other.matrix)

    def __neg__(self) -> "TensorOperator":
        return self.scale(-1)

    def scale(self, c) -> "TensorOperator":
        return TensorOperator(self.row_dim, self.col_dim, self.arity,
                              self.matrix.scale(c))

    def transpose(self) -> "TensorOperator":
        return TensorOperator(self.col_dim, self.row_dim, self.arity,
                              self.matrix.transpose())

    def trace(self):
        return self.matrix.trace()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, TensorOperator)
                and self.row_dim == other.row_dim
                and self.col_dim == other.col_dim
                and self.arity == other.arity
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.row_dim, self.col_dim, self.arity, self.matrix))

    def _check_same_shape(self, other: "TensorOperator"):
        if (self.row_dim, self.col_dim, self.arity) != \
           (other.row_dim, other.col_dim, other.arity):
            raise ValueError("operator shapes differ")


def embed(op: TensorOperator, total_arity: int, start_leg: int) -> TensorOperator:
    """T^{(a, ..., a+l-1)}: identity outside legs [a, a+l-1], op inside."""
    if not op.square:
        raise ValueError("only square-local-dim operators embed")
    n = op.row_dim
    ell = op.arity
    if not 1 <= start_leg <= total_arity - ell + 1:
        raise ValueError("leg out of range")
    size = n ** total_arity
    check_budget(size)
    left = start_leg - 1
    right = total_arity - ell - left
    out = QMatrix.zero(size, size)
    n_l, n_mid, n_r = n ** left, n ** ell, n ** right
    for col_mid in range(n_mid):
        nz = [(r, op.matrix.data[r][col_mid]) for r in range(n_mid)
              if op.matrix.data[r][col_mid]]
        if not nz:
            continue
        for a in range(n_l):
            for b in range(n_r):
                col = (a * n_mid + col_mid) * n_r + b
                for r, x in nz:
                    out.data[(a * n_mid + r) * n_r + b][col] = x
    return TensorOperator(n, n, total_arity, out)


def embed_pair(op: TensorOperator, total_arity: int, leg_a: int, leg_b: int) -> TensorOperator:
    """T^{(a,b)} for an arity-2 operator placed at two arbitrary legs a != b."""
    if op.arity != 2 or not op.square:
        raise ValueError("embed_pair takes a square arity-2 operator")
    if leg_a == leg_b or not (1 <= leg_a <= total_arity and 1 <= leg_b <= total_arity):
        raise ValueError("leg out of range")
    n = op.row_dim
    size = n ** total_arity
    check_budget(size)
    out = QMatrix.zero(size, size)
    for col_index in multi_indices(n, total_arity):
        col = flatten_index(col_index, n)
        ka, kb = col_index[leg_a - 1], col_index[leg_b - 1]
        src = flatten_index((ka, kb), n)
        for r in range(n * n):
            x = op.matrix.data[r][src]
            if x:
                ia, ib = unflatten_index(r, n, 2)
                row_index = list(col_index)
                row_index[leg_a - 1] = ia
                row_index[leg_b - 1] = ib
                out.data[flatten_index(tuple(row_index), n)][col] = x
    return TensorOperator(n, n, total_arity, out)


def perm_action(p: Perm, n: int) -> TensorOperator:
    """rho^+(p) computed directly: e_{i_1...i_k} -> e_{j_1...j_k} with
    j_{p(t)} = i_t."""
    k = p.size
    size = n ** k
    check_budget(size)
    out = QMatrix.zero(size, size)
    for index in multi_indices(n, k):
        target = [0] * k
        for t in range(1, k + 1):
            target[p(t) - 1] = index[t - 1]
        out.data[flatten_index(tuple(target), n)][flatten_index(index, n)] = ONE
    return TensorOperator(n, n, k, out)


def swap_operator(n: int) -> TensorOperator:
    """The flip v (x) w -> w (x) v on C^n (x) C^n."""
    out = QMatrix.zero(n * n, n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.data[flatten_index((j, i), n)][flatten_index((i, j), n)] = ONE
    return TensorOperator(n, n, 2, out)


def perm_rep(p: Perm, n: int, sign: int = 1) -> TensorOperator:
    """rho^{+-}(p): the product of (±P)^{(a,a+1)} along a reduced word.

    Independent of the chosen reduced word; rho^- differs from rho^+ by the
    sign of the permutation.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k = p.size
    out = TensorOperator.identity(n, k)
    P = swap_operator(n)
    if sign < 0:
        P = -P
    for a in reduced_word(p):
        out = out * embed(P, k, a)
    return out


def compose_chain(M, k: int):
    """M^{(1)} ... M^{(k)} for an n x m matrix M over scalars or NCPoly.

    Returns the n^k x m^k grid of NCPoly entries: entry (I, J) is the word
    M^{i_1}_{j_1} M^{i_2}_{j_2} ... M^{i_k}_{j_k}.
    """
    if isinstance(M, TensorOperator):
        if M.arity != 1:
            raise ValueError("compose_chain expects an arity-1 operator")
        grid = poly_matrix(M.matrix.data)
    elif isinstance(M, QMatrix):
        grid = poly_matrix(M.data)
    else:
        grid = poly_matrix(M)
    n = len(grid)
    m = len(grid[0])
    check_budget(max(n, m) ** k)
    out = []
    for row_index in multi_indices(n, k):
        row = []
        for col_index in multi_indices(m, k):
            word = NCPoly.one()
            for i, j in zip(row_index, col_index):
                word = word * grid[i - 1][j - 1]
                if word.is_zero():
                    break
            row.append(word)
        out.append(row)
    return out


def reversed_chain(M, k: int):
    """M^{(k)} ... M^{(1)}: entry (I, J) is M^{i_k}_{j_k} ... M^{i_1}_{j_1},
    which is entry (reversed I, reversed J) of compose_chain(M, k)."""
    chain = compose_chain(M, k)
    rows = _reversed_positions(len(chain), k)
    cols = _reversed_positions(len(chain[0]), k)
    return [[chain[r][c] for c in cols] for r in rows]


def _reversed_positions(size: int, k: int) -> list:
    """Flat positions of the reversed multi-indices, in the order of size = n^k."""
    n = round(size ** (1 / k)) if k else 1
    return [flatten_index(index[::-1], n) for index in multi_indices(n, k)]
