"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always stored in
lowest terms with positive denominator).  :class:`QMatrix` is a dense
row-major matrix for products, traces and small Gram systems.  All row
reduction goes through one engine, the sparse :class:`SparseEchelon`; a row
space is a :class:`Subspace`, which keeps the engine's reduced row-echelon
rows so that two subspaces are equal iff their rows are identical.
"""

from __future__ import annotations

from fractions import Fraction


QQ = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Raised when two objects live in different ambient dimensions."""


class InvalidRational(ValueError):
    """A value that is not an exact rational number."""


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
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
    def from_rows(rows, ambient_dim: int) -> "Subspace":
        ech = SparseEchelon()
        for row in rows:
            ech.insert(_sparse(row, ambient_dim))
        return ech.dense_basis(ambient_dim)

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

    def _reduces_to_zero(self, row: dict) -> bool:
        # The basis rows are fully reduced, so subtracting one of them never
        # touches another lead column: one pass over the leads of row is enough.
        row = dict(row)
        for lead in [j for j in row if j in self.rows]:
            c = row[lead]
            for j, x in self.rows[lead].items():
                nv = row.get(j, ZERO) - c * x
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        return not row

    def contains(self, vector) -> bool:
        return self._reduces_to_zero(_sparse(vector, self.ambient_dim))

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return all(self._reduces_to_zero(row) for row in other.rows.values())

    def annihilator(self) -> "Subspace":
        """{v : r . v = 0 for every basis row r}.

        Each free column f gives the null vector e_f - sum_r r[f] e_lead(r).
        """
        free = {f: {f: ONE} for f in range(self.ambient_dim) if f not in self.rows}
        for lead, row in self.rows.items():
            for j, c in row.items():
                if j != lead:
                    free[j][lead] = -c
        ech = SparseEchelon()
        for v in free.values():
            ech.insert(v)
        return ech.dense_basis(self.ambient_dim)

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


def row_space(m: QMatrix) -> Subspace:
    return Subspace.from_matrix(m)


def column_space(m: QMatrix) -> Subspace:
    return Subspace.from_matrix(m.transpose())


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
    """Incremental row reduction with sparse rows (dict index -> Fraction).

    This is the one elimination engine of the package.  Pivot rows are
    normalized to leading coefficient 1; the lead of a pivot row is its
    minimal index, so reduction proceeds strictly left to right and
    terminates in one ascending sweep.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = {i: c for i, c in row.items() if c}
        while row:
            hits = [i for i in row if i in self.pivots]
            if not hits:
                break
            i = min(hits)
            c = row.pop(i)
            for j, v in self.pivots[i].items():
                if j == i:
                    continue
                nv = row.get(j, ZERO) - c * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        return row

    def insert(self, row: dict) -> bool:
        """Add a row to the span; returns True if the rank grew."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        inv = ONE / red[lead]
        if inv != 1:
            red = {j: c * inv for j, c in red.items()}
        self.pivots[lead] = red
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def reduced_rows(self) -> dict:
        """Fully back-substituted pivot rows keyed by lead, leads ascending."""
        leads = sorted(self.pivots)
        reduced: dict[int, dict] = {}
        for lead in reversed(leads):
            row = dict(self.pivots[lead])
            while True:
                hits = [j for j in row if j != lead and j in reduced]
                if not hits:
                    break
                j = min(hits)
                c = row.pop(j)
                for jj, v in reduced[j].items():
                    if jj == j:
                        continue
                    nv = row.get(jj, ZERO) - c * v
                    if nv:
                        row[jj] = nv
                    else:
                        row.pop(jj, None)
            reduced[lead] = row
        return {lead: reduced[lead] for lead in leads}

    def dense_basis(self, ambient_dim: int) -> Subspace:
        """The span as a Subspace of Q^ambient_dim."""
        return Subspace(ambient_dim, self.reduced_rows())
