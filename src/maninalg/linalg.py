"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always stored in
lowest terms with positive denominator).  :class:`QMatrix` is a dense
row-major matrix for parsed grids, the change of basis of
``manin.transport`` and the dense views kept for outside callers.  All row
reduction goes through one engine, the sparse :class:`SparseEchelon`, which
eliminates fraction-free on primitive integer rows; Fractions enter it only
as incoming rows, scaled to integers by their common denominator, and leave
it only as its reduced row-echelon rows.  A row space is a
:class:`Subspace`, which keeps those rows (Fractions, lead 1) so that two
subspaces are equal iff their rows are identical.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import attrgetter


QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class AmbientMismatch(ValueError):
    """Raised when two objects live in different ambient dimensions."""


class InvalidRational(ValueError):
    """A value that is not an exact rational number."""


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidRational(f"cannot interpret the boolean {x!r} as a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise InvalidRational(f"rational {x!r} has a zero denominator") from None
    raise InvalidRational(f"cannot interpret {x!r} as an exact rational "
                          "(give an integer or a 'p/q' string)")


def format_rat(x: Fraction) -> str:
    """Serialize as 'p' or 'p/q'."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class QMatrix:
    """Dense matrix over Q.  Treated as immutable once constructed."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        self.rows = rows
        self.cols = cols
        self.data = [[rat(x) for x in row] for row in data]
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise ValueError("entry grid does not match declared shape")

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return QMatrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        m = QMatrix.zero(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("need at least one row")
        return QMatrix(len(rows), len(rows[0]), rows)

    def copy(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)],
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)],
        )

    def __neg__(self) -> "QMatrix":
        return self.scale(-ONE)

    def scale(self, c) -> "QMatrix":
        c = rat(c)
        return QMatrix(self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return QMatrix(self.rows, other.cols, out)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length differs from column count")
        return [sum((a * x for a, x in zip(row, v) if a and x), ZERO) for row in self.data]

    def vecmat(self, v):
        if len(v) != self.rows:
            raise ValueError("vector length differs from row count")
        out = [ZERO] * self.cols
        for x, row in zip(v, self.data):
            if x:
                for j, a in enumerate(row):
                    if a:
                        out[j] += x * a
        return out

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows, [list(col) for col in zip(*self.data)])

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def kron(self, other: "QMatrix") -> "QMatrix":
        out = QMatrix.zero(self.rows * other.rows, self.cols * other.cols)
        for i, arow in enumerate(self.data):
            for j, a in enumerate(arow):
                if a:
                    for k, brow in enumerate(other.data):
                        orow = out.data[i * other.rows + k]
                        for l, b in enumerate(brow):
                            if b:
                                orow[j * other.cols + l] = a * b
        return out

    def rank(self) -> int:
        return Subspace.from_matrix(self).dim

    def to_strings(self):
        return [[format_rat(x) for x in row] for row in self.data]

    @staticmethod
    def from_strings(grid) -> "QMatrix":
        return QMatrix.from_rows([[rat(x) for x in row] for row in grid])

    def _check_shape(self, other: "QMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


class Subspace:
    """A subspace of Q^ambient_dim, stored as its reduced row-echelon basis.

    ``rows`` maps each lead index to its basis row, a sparse dict
    index -> Fraction with lead coefficient 1 and every other lead column
    cleared; leads ascend.  The reduced row-echelon basis of a subspace is
    unique, so two subspaces are equal iff their rows are.
    """

    __slots__ = ("ambient_dim", "rows", "_basis")

    def __init__(self, ambient_dim: int, rows: dict):
        self.ambient_dim = ambient_dim
        self.rows = rows
        self._basis = None

    @staticmethod
    def span(sparse_rows, ambient_dim: int) -> "Subspace":
        """The span of sparse rows (dicts index -> int or Fraction) inside
        Q^ambient_dim."""
        ech = SparseEchelon()
        for row in sparse_rows:
            ech.insert(row)
        return ech.dense_basis(ambient_dim)

    @staticmethod
    def from_rows(rows, ambient_dim: int) -> "Subspace":
        """The span of dense rows."""
        return Subspace.span((_sparse(row, ambient_dim) for row in rows), ambient_dim)

    @staticmethod
    def from_matrix(m: QMatrix) -> "Subspace":
        """Row space of m."""
        return Subspace.from_rows(m.data, m.cols)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> QMatrix:
        """The basis rows as a dense dim x ambient_dim matrix."""
        if self._basis is None:
            dense = []
            for row in self.rows.values():
                v = [ZERO] * self.ambient_dim
                for j, c in row.items():
                    v[j] = c
                dense.append(v)
            self._basis = QMatrix(len(dense), self.ambient_dim, dense)
        return self._basis

    def integer_rows(self) -> list:
        """The basis rows scaled by their least common denominators: integer
        rows with gcd 1 and a positive lead."""
        return [_integer_row(row) for row in self.rows.values()]

    def contains(self, vector) -> bool:
        return not _eliminate(_sparse(vector, self.ambient_dim), self.rows, self.rows)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return all(not _eliminate(dict(row), self.rows, self.rows)
                   for row in other.rows.values())

    def annihilator(self) -> "Subspace":
        """{v : r . v = 0 for every basis row r}.

        Each free column f gives the null vector e_f - sum_r r[f] e_lead(r).
        """
        free = {f: {f: ONE} for f in range(self.ambient_dim) if f not in self.rows}
        for lead, row in self.rows.items():
            for j, c in row.items():
                if j != lead:
                    free[j][lead] = -c
        return Subspace.span(free.values(), self.ambient_dim)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim,
                     tuple(tuple(sorted(row.items())) for row in self.rows.values())))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _sparse(vector, ambient_dim: int) -> dict:
    """Nonzero entries of a dense vector as index -> Fraction."""
    vector = [rat(x) for x in vector]
    if len(vector) != ambient_dim:
        raise AmbientMismatch("vector lives in a different ambient space")
    return {j: x for j, x in enumerate(vector) if x}


def invert(m: QMatrix) -> QMatrix | None:
    """Exact inverse, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = Subspace.from_rows(
        (row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m.data)),
        2 * n)
    # [m | 1] always has rank n; m is invertible iff every lead lies in m's block
    if list(aug.rows) != list(range(n)):
        return None
    return QMatrix(n, n, [[row.get(n + j, ZERO) for j in range(n)]
                          for row in aug.rows.values()])


class SparseEchelon:
    """Incremental row reduction with sparse integer rows.

    This is the one elimination engine of the package.  Each pivot row is a
    primitive integer row (dict index -> int): its entries have gcd 1 and
    its lead, the minimal index, has a positive coefficient.  Reduction
    proceeds strictly left to right and terminates in one ascending sweep;
    a step clears a lead without division, as ``(a/g) row - (c/g) pivot``
    where ``a`` is the pivot's lead, ``c`` the row's entry there and
    ``g = gcd(a, c)`` (Bareiss's fraction-free elimination).  Incoming rows
    may hold Fractions: they are scaled to integers by their common
    denominator.  ``reduced_integer_rows`` back-substitutes the pivots on
    integers, and ``reduced_rows`` turns those into the canonical Fraction
    form with lead 1; nowhere else do Fractions appear.

    ``leads`` holds every lead of the span and ``pivots`` maps a lead to its
    pivot row.  By default they are one dict.  An echelon given a separate
    lead set reads its rows through ``pivots`` on demand, and the mapping
    may build a row the first time it is asked for (an ideal slice's
    echelon does), so ``pivots`` may list fewer leads than ``leads``.
    """

    __slots__ = ("pivots", "leads")

    def __init__(self, pivots: dict | None = None, leads=None):
        self.pivots: dict[int, dict[int, int]] = {} if pivots is None else pivots
        self.leads = self.pivots if leads is None else leads

    @property
    def rank(self) -> int:
        return len(self.leads)

    def reduce(self, row: dict) -> dict:
        """A nonzero integer multiple of the remainder of row modulo the span
        (empty iff row lies in the span)."""
        return _eliminate(_integer_row(row), self.leads, self.pivots)

    def insert(self, row: dict) -> bool:
        """Add a row to the span; returns True if the rank grew."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        self.pivots[lead] = _primitive(red, lead)
        if self.leads is not self.pivots:
            self.leads.add(lead)
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def reduced_integer_rows(self) -> dict:
        """Fully back-substituted pivot rows keyed by lead, leads ascending:
        primitive integer rows with a positive lead and no entry in any
        other lead column."""
        # the rows already reduced, all with larger leads, are the pivots
        reduced: dict[int, dict] = {}
        for lead in sorted(self.leads, reverse=True):
            reduced[lead] = _primitive(
                _eliminate(dict(self.pivots[lead]), reduced, reduced), lead)
        return {lead: reduced[lead] for lead in sorted(reduced)}

    def reduced_rows(self) -> dict:
        """``reduced_integer_rows`` as Fraction rows with lead coefficient 1."""
        out = {}
        for lead, row in self.reduced_integer_rows().items():
            a = row[lead]
            out[lead] = {j: Fraction(c, a) for j, c in row.items()}
        return out

    def dense_basis(self, ambient_dim: int) -> Subspace:
        """The span as a Subspace of Q^ambient_dim."""
        return Subspace(ambient_dim, self.reduced_rows())


def _integer_row(row: dict) -> dict:
    """The nonzero entries of a row of ints and Fractions, times the least
    common denominator, as a fresh dict of ints."""
    values = row.values()
    den = lcm(*map(_denominator, values))
    if den == 1:
        out = dict(zip(row, map(_numerator, values)))
    else:
        out = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
    if 0 in values:
        out = {j: c for j, c in out.items() if c}
    return out


def _primitive(row: dict, lead: int) -> dict:
    """row divided by its gcd content, signed so that row[lead] > 0."""
    content = gcd(*row.values())
    if row[lead] < 0:
        content = -content
    if content == 1:
        return row
    return {j: c // content for j, c in row.items()}


def _eliminate(row: dict, leads, pivots) -> dict:
    """Clear from row (in place) every pivot lead it holds, smallest lead
    first, and return it.

    ``leads`` is the set of pivot leads (any container that answers ``in``)
    and ``pivots`` maps each lead to its row; a row is looked up only when
    the elimination reaches its lead.  A pivot row has no entry left of its
    lead and is either a Fraction row with coefficient 1 at the lead (a
    ``Subspace`` row), or an integer row, in which case row must hold
    integers too.  A step with pivot lead a and row entry c replaces row by
    ``(a/g) row - (c/g) pivot`` with g = gcd(a, c), which for a = 1 is
    ``row - c pivot``; the result is a nonzero multiple of the remainder.
    Each step clears its lead for good
    and can only bring in leads further right, so a heap of the leads met
    keeps the row from being rescanned after every step.
    """
    hits = [i for i in row if i in leads]
    heapify(hits)
    while hits:
        i = heappop(hits)
        c = row.pop(i, None)
        if c is None:  # cancelled, or a repeat already cleared
            continue
        pivot = pivots[i]
        a = pivot[i]
        if a != 1:
            g = gcd(a, c)
            if g != a:
                m = a // g
                for j in row:
                    row[j] *= m
            c //= g
        for j, v in pivot.items():
            if j == i:
                continue
            if j in row:
                nv = row[j] - c * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
            else:
                row[j] = -c * v
                if j in leads:
                    heappush(hits, j)
    return row
