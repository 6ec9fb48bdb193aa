"""Operators on tensor powers of coordinate spaces.

A :class:`TensorOperator` of arity k maps (C^m)^{tensor k} to
(C^n)^{tensor k}.  Its n^k x m^k matrix is written in the lexicographic
multi-index basis: the multi-index (i_1, ..., i_k) with digits in 1..n
flattens to sum (i_t - 1) * n^(k-t), so the leftmost digit is most
significant.

The matrix is stored as integer numerators over one common denominator:
``num`` maps a flat row index to a dict from flat column index to a nonzero
int, and ``den`` is a positive int, so entry (i, j) is num[i][j] / den.
Zero entries and empty rows are never stored, and den has no factor in
common with all the numerators (it is the least common denominator of the
entries), so each operator has exactly one representation and ``==`` and
``hash`` compare integers (the hash is cached).

All arithmetic runs on integers and costs in proportion to the nonzeros,
which is what makes the pairing operators cheap: an arity-2 operator
embedded in the k-th tensor power has at most n^2 entries per row.  A
product multiplies numerators over den_a * den_b, a sum or difference adds
them over lcm(den_a, den_b), and a scaling by p/q multiplies them by p over
den * q; each ends with one gcd pass that restores the canonical form.
Transposes, negations and embeddings move numerators and keep den.

``embed`` places an operator on any tuple of distinct legs, ``perm_action``
is the one S_k action rho^+ (rho^- = sign * rho^+), and both read the flat
offset of every digit tuple on a set of legs from one table, ``_offsets``.
``coset_sum`` adds the weighted words g^(j-i) ... g^(j-1) prev in one
accumulator over one denominator; the group and Hecke pairing routes build
their (q-)symmetrizers from it.

Fractions appear only at the edges.  The constructor reads Fraction, int or
'p/q' entries, or a dense :class:`QMatrix`; ``trace`` and ``entry`` return
one Fraction.  ``num`` over ``den`` is the one view that the package reads.
The dense QMatrix view ``matrix`` is built on first use and kept only for
callers outside the package (tests, demos and benchmarks).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .freealg import _budget_from_env, _entry_product, poly_matrix
from .linalg import ZERO, QMatrix, Subspace, rat
from .permutations import Perm

DEFAULT_TENSOR_BUDGET = 4096


def tensor_budget() -> int:
    return _budget_from_env(DEFAULT_TENSOR_BUDGET)


class BudgetExceeded(ValueError):
    """A requested component is larger than the configured size budget."""


def budget_refusal(what: str, size, budget: int) -> BudgetExceeded:
    """The error refusing a ``what`` of ``size`` over ``budget``; ``size`` is
    an int, or the text 'n^k' of a power refused without forming it.  An int
    of more than 64 bits is named by the power of two below it: Python
    refuses to print an int of more than 4300 digits, and n^k reaches that
    fast."""
    if isinstance(size, int) and size.bit_length() > 64:
        size = f"at least 2^{size.bit_length() - 1}"
    return BudgetExceeded(f"{what} of size {size} exceeds budget {budget} "
                          "(override with MANIN_BUDGET)")


def check_budget(size: int):
    budget = tensor_budget()
    if size > budget:
        raise budget_refusal("component", size, budget)


def _power_size(what: str, n: int, k: int, budget: int) -> int:
    """n^k, refused as a ``what`` over budget from n and k alone when n >= 2
    and k passes the budget's bit length, since then n^k >= 2^k > budget:
    forming n^k would cost time and memory that grow with k, which has no
    bound."""
    if n > 1 and k > budget.bit_length():
        raise budget_refusal(what, f"{n}^{k}", budget)
    return n ** k


def _check_power(n: int, k: int):
    """check_budget(n ** k), with n^k refused unformed by ``_power_size``.
    At n = 1, where 1^k = 1 bounds nothing while the routes' work still
    grows with k, the arity gets the bound n >= 2 gets from n^k: k past the
    budget's bit length is refused.  The budget is read once, since reading
    MANIN_BUDGET costs as much as the rest of the check; a formed size over
    it is refused by check_budget, so that every such refusal passes
    through that one function (``bench/tracing.py`` counts refusals
    there)."""
    budget = tensor_budget()
    if n == 1 and k > budget.bit_length():
        raise budget_refusal("component", f"1^{k} (arity over {budget.bit_length()})",
                             budget)
    size = _power_size("component", n, k, budget)
    if size > budget:
        check_budget(size)


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
    mapping row -> {col: value}; every row and column index must lie in the
    grid, and zeros and empty rows are dropped.  Treated as immutable once
    constructed: operators share row dicts.
    """

    __slots__ = ("row_dim", "col_dim", "arity", "num", "den", "_hash", "_matrix")

    def __init__(self, row_dim: int, col_dim: int, arity: int, entries):
        _check_power(max(row_dim, col_dim), arity)
        nrows, ncols = row_dim ** arity, col_dim ** arity
        if isinstance(entries, QMatrix):
            if entries.rows != nrows or entries.cols != ncols:
                raise ValueError("matrix shape does not match local dims and arity")
            items = ((i, enumerate(row)) for i, row in enumerate(entries.data))
        else:
            items = ((i, row.items()) for i, row in entries.items())
        rows = {}
        den = 1
        for i, row in items:
            if not 0 <= i < nrows:
                raise ValueError("entry outside the n^arity x m^arity grid")
            nz = {}
            for j, x in row:
                if not 0 <= j < ncols:
                    raise ValueError("entry outside the n^arity x m^arity grid")
                x = rat(x)
                if x:
                    nz[j] = x
                    if den % x.denominator:
                        den = lcm(den, x.denominator)
            if nz:
                rows[i] = nz
        # den is the least common denominator, so it is coprime to the
        # numerators as a whole and the form is canonical
        _fill(self, row_dim, col_dim, arity,
              {i: {j: x.numerator * (den // x.denominator) for j, x in row.items()}
               for i, row in rows.items()}, den)

    @property
    def square(self) -> bool:
        return self.row_dim == self.col_dim

    @property
    def matrix(self) -> QMatrix:
        """The dense n^arity x m^arity view, built on first use."""
        if self._matrix is None:
            m = QMatrix.zero(self.row_dim ** self.arity, self.col_dim ** self.arity)
            den = self.den
            for i, row in self.num.items():
                mrow = m.data[i]
                for j, x in row.items():
                    mrow[j] = Fraction(x, den)
            self._matrix = m
        return self._matrix

    @staticmethod
    def identity(n: int, arity: int) -> "TensorOperator":
        _check_power(n, arity)
        return _make(n, n, arity, {i: {i: 1} for i in range(n ** arity)}, 1)

    @staticmethod
    def zero(n: int, arity: int, m: int | None = None) -> "TensorOperator":
        m = n if m is None else m
        _check_power(max(n, m), arity)
        return _make(n, m, arity, {}, 1)

    def row_space(self) -> Subspace:
        """The span of the rows inside the col_dim^arity-dimensional space."""
        return Subspace.span((self.num[i] for i in sorted(self.num)),
                             self.col_dim ** self.arity)

    def entry(self, row_index, col_index):
        row = self.num.get(flatten_index(row_index, self.row_dim))
        x = row.get(flatten_index(col_index, self.col_dim)) if row else None
        return Fraction(x, self.den) if x else ZERO

    def __mul__(self, other: "TensorOperator") -> "TensorOperator":
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if self.arity != other.arity or self.col_dim != other.row_dim:
            raise ValueError("operators do not compose")
        bnum = other.num
        out = {}
        for i, arow in self.num.items():
            row = _row_times(arow, bnum)
            if row:
                out[i] = row
        return _canonical(self.row_dim, other.col_dim, self.arity, out,
                          self.den * other.den)

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        return _sum(self, other, 1)

    def __sub__(self, other: "TensorOperator") -> "TensorOperator":
        self._check_same_shape(other)
        return _sum(self, other, -1)

    def __neg__(self) -> "TensorOperator":
        return _make(self.row_dim, self.col_dim, self.arity,
                     {i: {j: -x for j, x in row.items()} for i, row in self.num.items()},
                     self.den)

    def scale(self, c) -> "TensorOperator":
        c = rat(c)
        if c == 1:
            return self
        if not c:
            return _make(self.row_dim, self.col_dim, self.arity, {}, 1)
        p = c.numerator
        num = self.num if p == 1 else \
            {i: {j: p * x for j, x in row.items()} for i, row in self.num.items()}
        return _canonical(self.row_dim, self.col_dim, self.arity, num,
                          self.den * c.denominator)

    def transpose(self) -> "TensorOperator":
        return _make(self.col_dim, self.row_dim, self.arity, _transpose(self.num.items()),
                     self.den)

    def trace(self):
        if not self.square:
            raise ValueError("trace of a non-square operator")
        return Fraction(sum(row.get(i, 0) for i, row in self.num.items()), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not (isinstance(other, TensorOperator)
                and self.row_dim == other.row_dim
                and self.col_dim == other.col_dim
                and self.arity == other.arity):
            return False
        if self._hash is not None and other._hash is not None \
                and self._hash != other._hash:
            return False
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.row_dim, self.col_dim, self.arity, self.den,
                               frozenset((i, frozenset(row.items()))
                                         for i, row in self.num.items())))
        return self._hash

    def __repr__(self):
        nnz = sum(map(len, self.num.values()))
        return (f"TensorOperator({self.row_dim}->{self.col_dim}, arity {self.arity}, "
                f"{nnz} nonzeros)")

    def _check_same_shape(self, other: "TensorOperator"):
        if (self.row_dim, self.col_dim, self.arity) != \
           (other.row_dim, other.col_dim, other.arity):
            raise ValueError("operator shapes differ")


def _fill(op, row_dim, col_dim, arity, num, den):
    op.row_dim = row_dim
    op.col_dim = col_dim
    op.arity = arity
    op.num = num
    op.den = den
    op._hash = None
    op._matrix = None


def _make(row_dim: int, col_dim: int, arity: int, num: dict, den: int) -> TensorOperator:
    """Wrap integer rows that are already canonical: no zeros, no empty
    rows, and den > 0 without a factor common to all numerators."""
    op = object.__new__(TensorOperator)
    _fill(op, row_dim, col_dim, arity, num, den)
    return op


def _canonical(row_dim: int, col_dim: int, arity: int, num: dict, den: int) -> TensorOperator:
    """Wrap integer rows without zeros or empty rows over den > 0, after
    dividing den and every numerator by their common factor."""
    g = den
    for row in num.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g != 1:
        num = {i: {j: x // g for j, x in row.items()} for i, row in num.items()}
        den //= g
    return _make(row_dim, col_dim, arity, num, den)


def _row_times(v: dict, num: dict) -> dict:
    """The integer row v times the integer rows num, without zeros.  A row
    of num selected by a single unit entry of v is returned itself."""
    if len(v) == 1:
        (k, a), = v.items()
        row = num.get(k)
        if row is None:
            return {}
        return row if a == 1 else {j: a * b for j, b in row.items()}
    acc = {}
    for k, a in v.items():
        row = num.get(k)
        if row is not None:
            for j, b in row.items():
                acc[j] = acc[j] + a * b if j in acc else a * b
    return {j: x for j, x in acc.items() if x}


def _transpose(rows) -> dict:
    """The columns {j: {i: x}} of the sparse rows given as (i, {j: x}) pairs."""
    out = {}
    for i, row in rows:
        for j, x in row.items():
            col = out.get(j)
            if col is None:
                out[j] = {i: x}
            else:
                col[i] = x
    return out


def _fixes_rows(rows, num: dict, den: int) -> bool:
    """v num == den v for every integer row v of rows: each v is fixed by
    the operator num / den acting on the right.  At den = 0 it decides
    v num == 0 instead, so with the rows of A it decides A B == 0 for
    B = num over any denominator without forming the product."""
    if not den:
        return not any(_row_times(v, num) for v in rows)
    return all(_row_times(v, num) == {j: den * x for j, x in v.items()} for v in rows)


def _sum(a: TensorOperator, b: TensorOperator, sign: int) -> TensorOperator:
    """a + sign * b, with the numerators of both brought to lcm(a.den, b.den)."""
    den = lcm(a.den, b.den)
    ma, mb = den // a.den, sign * (den // b.den)
    # rows are never mutated, so unscaled rows are shared
    out = dict(a.num) if ma == 1 else \
        {i: {j: ma * x for j, x in row.items()} for i, row in a.num.items()}
    for i, brow in b.num.items():
        row = out.get(i)
        if row is None:
            out[i] = brow if mb == 1 else {j: mb * x for j, x in brow.items()}
            continue
        if ma == 1:
            row = dict(row)
        for j, x in brow.items():
            v = row.get(j, 0) + mb * x
            if v:
                row[j] = v
            else:
                del row[j]
        if row:
            out[i] = row
        else:
            del out[i]
    return _canonical(a.row_dim, a.col_dim, a.arity, out, den)


def _offsets(n: int, weights) -> list:
    """The flat offset sum(d_t * weights[t]) of every digit tuple (d_1, ...),
    digits 0..n-1, in lexicographic order (d_1 most significant)."""
    out = [0]
    for w in weights:
        out = [o + d * w for o in out for d in range(n)]
    return out


def embed(op: TensorOperator, total_arity: int, legs) -> TensorOperator:
    """T^{(legs)}: op on the given legs, identity on the others.

    legs is a tuple of distinct legs in 1..total_arity, one per leg of op:
    local digit t goes to leg legs[t-1].  An int a stands for the adjacent
    legs (a, ..., a+l-1).
    """
    if not op.square:
        raise ValueError("only square-local-dim operators embed")
    n = op.row_dim
    if isinstance(legs, int):
        legs = tuple(range(legs, legs + op.arity))
    if len(legs) != op.arity or len(set(legs)) != len(legs) \
            or not all(1 <= t <= total_arity for t in legs):
        raise ValueError("leg out of range")
    _check_power(n, total_arity)
    weight = [n ** (total_arity - t) for t in range(1, total_arity + 1)]
    place = _offsets(n, [weight[t - 1] for t in legs])
    local = [(place[r], [(place[c], x) for c, x in row.items()])
             for r, row in op.num.items()]
    out = {}
    for base in _offsets(n, [w for t, w in enumerate(weight, 1) if t not in legs]):
        for r, cols in local:
            out[base + r] = {base + c: x for c, x in cols}
    return _make(n, n, total_arity, out, op.den)


def coset_sum(prev: TensorOperator, g: TensorOperator, weights) -> TensorOperator:
    """sum_{i=0}^{j-1} w_i g^(j-i) ... g^(j-1) prev, j being prev's arity.

    g^(a) is the arity-2 operator g on legs (a, a+1); the i-th word is
    empty for i = 0.  When g^(a) represents the flip of a and a+1, the
    words run over the coset representatives of S_{j-1} in S_j, so with
    prev the sum over S_{j-1} the result is the sum over S_j.

    Runs on integer numerators: Y_0 = prev and Y_i = g^(j-i) Y_{i-1}, each
    row of Y_i one ``_row_times`` of a row of the embedded g, and every
    w_i Y_i is added into one accumulator over the lcm of the denominators
    prev.den g.den^i den(w_i); one gcd pass ends it.  The words stop early
    once Y is zero.
    """
    j = prev.arity
    if not (prev.square and g.square) or g.arity != 2 or g.row_dim != prev.row_dim:
        raise ValueError("coset_sum needs a square arity-2 g on prev's local dim")
    weights = [rat(w) for w in weights]
    if len(weights) != j:
        raise ValueError("coset_sum needs one weight per coset word")
    den = lcm(*(prev.den * g.den ** i * w.denominator
                for i, w in enumerate(weights) if w))
    acc = {}
    y = prev.num
    for i, w in enumerate(weights):
        if i:
            y = {r: row for r, grow in embed(g, j, j - i).num.items()
                 if (row := _row_times(grow, y))}
            if not y:
                break
        if not w:
            continue
        m = w.numerator * (den // (prev.den * g.den ** i * w.denominator))
        for r, row in y.items():
            arow = acc.get(r)
            if arow is None:
                acc[r] = {c: m * x for c, x in row.items()}
            else:
                for c, x in row.items():
                    arow[c] = arow.get(c, 0) + m * x
    num = {r: nz for r, row in acc.items() if (nz := {c: x for c, x in row.items() if x})}
    return _canonical(prev.row_dim, prev.row_dim, j, num, den)


def perm_action(p: Perm, n: int) -> TensorOperator:
    """rho^+(p): e_{i_1...i_k} -> e_{j_1...j_k} with j_{p(t)} = i_t; the
    signed rho^-(p) is ``perm_action(p, n).scale(p.sign())``."""
    k = p.size
    _check_power(n, k)
    weight = [n ** (k - t) for t in range(1, k + 1)]
    moved = _offsets(n, [weight[p(t) - 1] for t in range(1, k + 1)])
    return _make(n, n, k, {row: {col: 1} for col, row in enumerate(moved)}, 1)


def swap_operator(n: int) -> TensorOperator:
    """The flip v (x) w -> w (x) v on C^n (x) C^n."""
    return _make(n, n, 2, {j * n + i: {i * n + j: 1}
                           for i in range(n) for j in range(n)}, 1)


def compose_chain(M, k: int):
    """M^{(1)} ... M^{(k)} for an n x m matrix M over scalars or NCPoly.

    Returns the n^k x m^k grid of NCPoly entries: entry (I, J) is the word
    M^{i_1}_{j_1} M^{i_2}_{j_2} ... M^{i_k}_{j_k}, multiplied out directly.
    """
    grid = poly_matrix(M.data if isinstance(M, QMatrix) else M)
    n = len(grid)
    m = len(grid[0])
    _check_power(max(n, m), k)
    return [[_entry_product([grid[i - 1][j - 1] for i, j in zip(row_index, col_index)])
             for col_index in multi_indices(m, k)]
            for row_index in multi_indices(n, k)]
