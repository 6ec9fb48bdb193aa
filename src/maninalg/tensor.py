"""Operators on tensor powers of coordinate spaces.

A :class:`TensorOperator` of arity k maps (C^m)^{tensor k} to
(C^n)^{tensor k}.  Its n^k x m^k matrix is written in the lexicographic
multi-index basis: the multi-index (i_1, ..., i_k) with digits in 1..n
flattens to sum (i_t - 1) * n^(k-t), so the leftmost digit is most
significant.

The matrix is stored as sparse rows: ``rows`` maps a flat row index to a
dict from flat column index to a nonzero Fraction.  Zero entries and empty
rows are never stored, so each operator has exactly one representation and
``==`` and ``hash`` compare rows directly (the hash is cached).  Products,
sums, scalings and embeddings cost in proportion to the nonzeros, which is
what makes the pairing operators cheap: an arity-2 operator embedded in the
k-th tensor power has at most n^2 entries per row.

``matrix`` is a dense :class:`QMatrix` view, built on first use and kept.
No code of the package reads it: relation spaces, minors, Manin checks and
JSON output all work on ``rows``.  The view is kept for callers outside
the package (benchmarks, tests, demos) that want a dense grid.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import lcm

from .freealg import _entry_product, poly_matrix
from .linalg import ONE, ZERO, QMatrix, SparseEchelon, Subspace, rat
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


class TensorOperator:
    """Operator on tensor powers, possibly rectangular across local dims.

    Construct from a dense ``QMatrix`` of shape n^arity x m^arity or from a
    mapping row -> {col: value}; zeros and empty rows are dropped.  Treated
    as immutable once constructed: operators share row dicts.
    """

    __slots__ = ("row_dim", "col_dim", "arity", "rows", "_hash", "_matrix", "_int_rows")

    def __init__(self, row_dim: int, col_dim: int, arity: int, entries):
        check_budget(max(row_dim, col_dim) ** arity)
        nrows, ncols = row_dim ** arity, col_dim ** arity
        if isinstance(entries, QMatrix):
            if entries.rows != nrows or entries.cols != ncols:
                raise ValueError("matrix shape does not match local dims and arity")
            entries = {i: dict(enumerate(row)) for i, row in enumerate(entries.data)}
        rows = {}
        for i, row in entries.items():
            nz = {}
            for j, x in row.items():
                x = rat(x)
                if x:
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise ValueError("entry outside the n^arity x m^arity grid")
                    nz[j] = x
            if nz:
                rows[i] = nz
        _fill(self, row_dim, col_dim, arity, rows)

    @property
    def square(self) -> bool:
        return self.row_dim == self.col_dim

    @property
    def matrix(self) -> QMatrix:
        """The dense n^arity x m^arity view, built on first use."""
        if self._matrix is None:
            m = QMatrix.zero(self.row_dim ** self.arity, self.col_dim ** self.arity)
            for i, row in self.rows.items():
                mrow = m.data[i]
                for j, x in row.items():
                    mrow[j] = x
            self._matrix = m
        return self._matrix

    @staticmethod
    def identity(n: int, arity: int) -> "TensorOperator":
        size = n ** arity
        check_budget(size)
        return _make(n, n, arity, {i: {i: ONE} for i in range(size)})

    @staticmethod
    def zero(n: int, arity: int, m: int | None = None) -> "TensorOperator":
        m = n if m is None else m
        check_budget(max(n, m) ** arity)
        return _make(n, m, arity, {})

    def row_space(self) -> Subspace:
        """The span of the rows inside the col_dim^arity-dimensional space."""
        ech = SparseEchelon()
        for i in sorted(self.rows):
            ech.insert(self.rows[i])
        return ech.dense_basis(self.col_dim ** self.arity)

    def entry(self, row_index, col_index):
        row = self.rows.get(flatten_index(row_index, self.row_dim))
        return row.get(flatten_index(col_index, self.col_dim), ZERO) if row else ZERO

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if self.arity != other.arity or self.col_dim != other.row_dim:
            raise ValueError("operators do not compose")
        out = {}
        for i, arow in self.rows.items():
            row = other.vecmat(arow)
            if row:
                out[i] = row
        return _make(self.row_dim, other.col_dim, self.arity, out)

    def vecmat(self, v: dict) -> dict:
        """The row vector v times this operator; v and the result are sparse
        dicts index -> Fraction without zeros.

        The sum runs over integers: every term is brought to the common
        denominator of v's entries and the rows it selects, and one Fraction
        per result entry is built at the end.
        """
        int_rows = self.integer_rows()
        terms = []
        den = 1
        for k, a in v.items():
            row = int_rows.get(k)
            if row is not None:
                d = a.denominator * row[0]
                den = lcm(den, d)
                terms.append((a.numerator, d, row[1]))
        acc = {}
        for num, d, row in terms:
            c = num * (den // d)
            for j, b in row.items():
                acc[j] = acc[j] + c * b if j in acc else c * b
        return {j: Fraction(x, den) for j, x in acc.items() if x}

    def integer_rows(self) -> dict:
        """row -> (d, {col: integer numerator}) with entry = numerator / d and
        d the least common denominator of the row; built once, on first use."""
        if self._int_rows is None:
            out = {}
            for i, row in self.rows.items():
                d = lcm(*(x.denominator for x in row.values()))
                out[i] = (d, {j: x.numerator * (d // x.denominator) for j, x in row.items()})
            self._int_rows = out
        return self._int_rows

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        out = dict(self.rows)          # rows are never mutated, so share them
        for i, brow in other.rows.items():
            row = out.get(i)
            if row is None:
                out[i] = brow
                continue
            row = dict(row)
            for j, x in brow.items():
                v = row.get(j, ZERO) + x
                if v:
                    row[j] = v
                else:
                    del row[j]
            if row:
                out[i] = row
            else:
                del out[i]
        return _make(self.row_dim, self.col_dim, self.arity, out)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        return self + -other

    def __neg__(self) -> "TensorOperator":
        return _make(self.row_dim, self.col_dim, self.arity,
                     {i: {j: -x for j, x in row.items()} for i, row in self.rows.items()})

    def scale(self, c) -> "TensorOperator":
        c = rat(c)
        if c == 1:
            return self
        rows = {i: {j: c * x for j, x in row.items()} for i, row in self.rows.items()} \
            if c else {}
        return _make(self.row_dim, self.col_dim, self.arity, rows)

    def transpose(self) -> "TensorOperator":
        out = {}
        for i, row in self.rows.items():
            for j, x in row.items():
                col = out.get(j)
                if col is None:
                    out[j] = {i: x}
                else:
                    col[i] = x
        return _make(self.col_dim, self.row_dim, self.arity, out)

    def trace(self):
        if not self.square:
            raise ValueError("trace of a non-square operator")
        return sum((row.get(i, ZERO) for i, row in self.rows.items()), ZERO)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not (isinstance(other, TensorOperator)
                and self.row_dim == other.row_dim
                and self.col_dim == other.col_dim
                and self.arity == other.arity):
            return False
        if self._hash is not None and other._hash is not None \
                and self._hash != other._hash:
            return False
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.row_dim, self.col_dim, self.arity,
                               frozenset((i, frozenset(row.items()))
                                         for i, row in self.rows.items())))
        return self._hash

    def __repr__(self):
        nnz = sum(map(len, self.rows.values()))
        return (f"TensorOperator({self.row_dim}->{self.col_dim}, arity {self.arity}, "
                f"{nnz} nonzeros)")

    def _check_same_shape(self, other: "TensorOperator"):
        if (self.row_dim, self.col_dim, self.arity) != \
           (other.row_dim, other.col_dim, other.arity):
            raise ValueError("operator shapes differ")


def _fill(op, row_dim, col_dim, arity, rows):
    op.row_dim = row_dim
    op.col_dim = col_dim
    op.arity = arity
    op.rows = rows
    op._hash = None
    op._matrix = None
    op._int_rows = None


def _make(row_dim: int, col_dim: int, arity: int, rows: dict) -> TensorOperator:
    """Wrap rows that are already canonical (no zeros, no empty rows)."""
    op = object.__new__(TensorOperator)
    _fill(op, row_dim, col_dim, arity, rows)
    return op


def embed(op: TensorOperator, total_arity: int, start_leg: int) -> TensorOperator:
    """T^{(a, ..., a+l-1)}: identity outside legs [a, a+l-1], op inside."""
    if not op.square:
        raise ValueError("only square-local-dim operators embed")
    n = op.row_dim
    ell = op.arity
    if not 1 <= start_leg <= total_arity - ell + 1:
        raise ValueError("leg out of range")
    check_budget(n ** total_arity)
    n_l = n ** (start_leg - 1)
    n_r = n ** (total_arity - ell - start_leg + 1)
    block = n ** ell * n_r
    local = [(r * n_r, [(c * n_r, x) for c, x in row.items()])
             for r, row in op.rows.items()]
    out = {}
    for a in range(n_l):
        for base in range(a * block, a * block + n_r):
            for r, cols in local:
                out[base + r] = {base + c: x for c, x in cols}
    return _make(n, n, total_arity, out)


def embed_pair(op: TensorOperator, total_arity: int, leg_a: int, leg_b: int) -> TensorOperator:
    """T^{(a,b)} for an arity-2 operator placed at two arbitrary legs a != b."""
    if op.arity != 2 or not op.square:
        raise ValueError("embed_pair takes a square arity-2 operator")
    if leg_a == leg_b or not (1 <= leg_a <= total_arity and 1 <= leg_b <= total_arity):
        raise ValueError("leg out of range")
    n = op.row_dim
    check_budget(n ** total_arity)
    weight = [n ** (total_arity - t) for t in range(1, total_arity + 1)]
    wa, wb = weight[leg_a - 1], weight[leg_b - 1]
    others = [w for t, w in enumerate(weight, 1) if t not in (leg_a, leg_b)]
    # the first local digit sits at leg a, the second at leg b
    place = lambda flat: (flat // n) * wa + (flat % n) * wb
    local = [(place(r), [(place(c), x) for c, x in row.items()])
             for r, row in op.rows.items()]
    out = {}
    for digits in itertools.product(range(n), repeat=total_arity - 2):
        base = sum(d * w for d, w in zip(digits, others))
        for r, cols in local:
            out[base + r] = {base + c: x for c, x in cols}
    return _make(n, n, total_arity, out)


def perm_action(p: Perm, n: int) -> TensorOperator:
    """rho^+(p) computed directly: e_{i_1...i_k} -> e_{j_1...j_k} with
    j_{p(t)} = i_t."""
    k = p.size
    check_budget(n ** k)
    weight = [n ** (k - t) for t in range(1, k + 1)]
    moved = [weight[p(t) - 1] for t in range(1, k + 1)]
    out = {}
    for digits in itertools.product(range(n), repeat=k):
        col = sum(d * w for d, w in zip(digits, weight))
        out[sum(d * w for d, w in zip(digits, moved))] = {col: ONE}
    return _make(n, n, k, out)


def swap_operator(n: int) -> TensorOperator:
    """The flip v (x) w -> w (x) v on C^n (x) C^n."""
    return _make(n, n, 2, {j * n + i: {i * n + j: ONE}
                           for i in range(n) for j in range(n)})


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
    M^{i_1}_{j_1} M^{i_2}_{j_2} ... M^{i_k}_{j_k}, multiplied out directly.
    """
    grid = poly_matrix(M.data if isinstance(M, QMatrix) else M)
    n = len(grid)
    m = len(grid[0])
    check_budget(max(n, m) ** k)
    return [[_entry_product([grid[i - 1][j - 1] for i, j in zip(row_index, col_index)])
             for col_index in multi_indices(m, k)]
            for row_index in multi_indices(n, k)]
