"""Dense oracles for the sparse engines.

The library reduces rows only with ``linalg.SparseEchelon`` and stores
tensor operators as sparse rows.  This module keeps independent dense
routes, written directly on ``QMatrix`` grids, so that tests can check the
sparse results against them: row-echelon forms, kernels, inverses, the
intersection subspaces of ``quadratic`` (computed here as joint kernels of
the stacked embedded operators), the embeddings of ``tensor``, the
fixed-vector check of ``pairing.verify_axioms`` and the products of NCPoly
grids with scalar matrices (``freealg.poly_grid_product``).  Dense operator
products, sums and transposes are those of ``QMatrix`` itself.
"""

from __future__ import annotations

from maninalg.freealg import NCPoly
from maninalg.linalg import ONE, ZERO, QMatrix
from maninalg.tensor import TensorOperator, flatten_index, multi_indices, unflatten_index


def rref(m: QMatrix) -> tuple[QMatrix, int]:
    """Reduced row-echelon form and rank; the row space is preserved.

    The returned matrix has the shape of the input, zero rows at the bottom,
    pivots equal to 1 and cleared pivot columns.
    """
    data = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    piv_row = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_row, nrows):
            if data[r][col]:
                sel = r
                break
        if sel is None:
            continue
        data[piv_row], data[sel] = data[sel], data[piv_row]
        inv = ONE / data[piv_row][col]
        if inv != 1:
            data[piv_row] = [x * inv for x in data[piv_row]]
        prow = data[piv_row]
        for r in range(nrows):
            if r != piv_row and data[r][col]:
                c = data[r][col]
                data[r] = [x - c * y for x, y in zip(data[r], prow)]
        piv_row += 1
        if piv_row == nrows:
            break
    return QMatrix(nrows, ncols, data), piv_row


def row_basis(rows, ncols: int) -> QMatrix:
    """The nonzero rows of the reduced row-echelon form of the given rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return QMatrix(0, ncols, [])
    echelon, rank = rref(QMatrix(len(rows), ncols, rows))
    return QMatrix(rank, ncols, echelon.data[:rank])


def kernel(m: QMatrix) -> QMatrix:
    """Reduced row-echelon basis of the right null space {v : m v = 0}."""
    echelon, rank = rref(m)
    pivot_cols = [next(j for j, x in enumerate(row) if x) for row in echelon.data[:rank]]
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivot_cols):
            v[p] = -echelon.data[r][f]
        basis.append(v)
    return row_basis(basis, m.cols)


def invert(m: QMatrix) -> QMatrix | None:
    """Exact inverse by reducing [m | 1], or None if singular."""
    n = m.rows
    aug = QMatrix(n, 2 * n, [row + [ONE if i == j else ZERO for j in range(n)]
                             for i, row in enumerate(m.data)])
    echelon, rank = rref(aug)
    if rank < n or any(echelon.data[i][i] != 1 for i in range(n)):
        return None
    return QMatrix(n, n, [row[n:] for row in echelon.data])


def _embedded_rows(op: TensorOperator, k: int, a: int) -> list:
    """Dense rows of op at legs (a+1, a+2) of the k-fold tensor power."""
    n = op.row_dim
    size = n ** k
    right = n ** (k - 2 - a)
    rows = []
    for row_pos in range(size):
        trail = row_pos % right
        mid = (row_pos // right) % (n * n)
        lead = row_pos // (right * n * n)
        dense = [ZERO] * size
        for col_mid, x in enumerate(op.matrix.data[mid]):
            if x:
                dense[(lead * n * n + col_mid) * right + trail] = x
        rows.append(dense)
    return rows


def joint_kernels(E: TensorOperator, k: int) -> tuple:
    """(V_k, Vbar_k, W_k, Wbar_k) as dense reduced bases, k >= 2.

    V_k is the joint right kernel of the copies of E at adjacent legs,
    Vbar_k the joint left kernel; W uses S = 1 - E.
    """
    n = E.row_dim
    size = n ** k
    S = TensorOperator.identity(n, 2) - E
    out = []
    for op in (E, S):
        blocks = [QMatrix(size, size, _embedded_rows(op, k, a)) for a in range(k - 1)]
        right = [row for b in blocks for row in b.data]
        left = [row for b in blocks for row in b.transpose().data]
        out.append(kernel(QMatrix(len(right), size, right)))
        out.append(kernel(QMatrix(len(left), size, left)))
    return tuple(out)


def embed(op: TensorOperator, total_arity: int, start_leg: int) -> QMatrix:
    """Dense matrix of op at legs start_leg .. start_leg + arity - 1."""
    n, ell = op.row_dim, op.arity
    dense = op.matrix.data
    size = n ** total_arity
    out = QMatrix.zero(size, size)
    n_l, n_mid = n ** (start_leg - 1), n ** ell
    n_r = n ** (total_arity - ell - start_leg + 1)
    for col_mid in range(n_mid):
        nz = [(r, dense[r][col_mid]) for r in range(n_mid) if dense[r][col_mid]]
        for a in range(n_l):
            for b in range(n_r):
                col = (a * n_mid + col_mid) * n_r + b
                for r, x in nz:
                    out.data[(a * n_mid + r) * n_r + b][col] = x
    return out


def embed_pair(op: TensorOperator, total_arity: int, leg_a: int, leg_b: int) -> QMatrix:
    """Dense matrix of the arity-2 op at legs (leg_a, leg_b)."""
    n = op.row_dim
    dense = op.matrix.data
    size = n ** total_arity
    out = QMatrix.zero(size, size)
    for col_index in multi_indices(n, total_arity):
        col = flatten_index(col_index, n)
        src = flatten_index((col_index[leg_a - 1], col_index[leg_b - 1]), n)
        for r in range(n * n):
            x = dense[r][src]
            if x:
                row_index = list(col_index)
                row_index[leg_a - 1], row_index[leg_b - 1] = unflatten_index(r, n, 2)
                out.data[flatten_index(tuple(row_index), n)][col] = x
    return out


def fixes_subspaces(m: QMatrix, right, left) -> bool:
    """m pi = pi for each dense basis row pi of right, xi m = xi for each of left."""
    return (all(m.matvec(row) == list(row) for row in right.basis.data)
            and all(m.vecmat(row) == list(row) for row in left.basis.data))


def scalar_times_poly_mat(m: QMatrix, p) -> list:
    """The QMatrix m times the NCPoly grid p, one dense sum per entry."""
    out = []
    for i in range(m.rows):
        row = []
        for j in range(len(p[0])):
            acc = NCPoly.zero()
            for k in range(m.cols):
                c = m.data[i][k]
                if c and p[k][j]:
                    acc = acc + p[k][j].scale(c)
            row.append(acc)
        out.append(row)
    return out


def poly_mat_times_scalar(p, m: QMatrix) -> list:
    """The NCPoly grid p times the QMatrix m, one dense sum per entry."""
    out = []
    for i in range(len(p)):
        row = []
        for j in range(m.cols):
            acc = NCPoly.zero()
            for k in range(m.rows):
                c = m.data[k][j]
                if c and p[i][k]:
                    acc = acc + p[i][k].scale(c)
            row.append(acc)
        out.append(row)
    return out
