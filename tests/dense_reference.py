"""Dense and Fraction oracles for the sparse integer engines.

The library reduces rows only with ``linalg.SparseEchelon``, which
eliminates on primitive integer rows, builds ideal slices degree by degree,
and stores tensor operators as sparse rows.  This module keeps independent
routes so that tests can check those results against them: the earlier
``Fraction`` echelon (pivots with lead 1) and the lcm scaling of every
incoming row (``integer_row``), the all-positions slice builder that
echelonizes every w1 * r * w2 from scratch and the eager slice builder that
shifted every pivot row up each degree, plus dense routes written directly
on ``QMatrix`` grids: row-echelon forms, kernels,
inverses, the intersection subspaces of ``quadratic`` (computed here as
joint kernels of the stacked embedded operators), the embeddings of
``tensor``, the fixed-vector check of ``pairing.verify_axioms`` and the
products of NCPoly grids with scalar matrices
(``freealg.poly_grid_product``) and the Manin defect as a grid of NCPoly
entries (``manin.defect_rows``).  Dense operator products, sums and
transposes are those of ``QMatrix`` itself.

The Fraction routes that the integer minor and identity paths replaced are
kept here as their oracles.  Polynomials are word -> Fraction dicts
(``poly_add``, ``poly_mul``, ``poly_scale``, ``entry_product``,
``grid_product``, ``congruent``): the arithmetic NCPoly ran before it moved
to integer numerators over one denominator, with no NCPoly built or read.
On them run the chained products of ``tensor.compose_chain`` and
``minors.det_qhat``/``perm_qhat``, the transposing ``poly_grid_product``
summing Fractions per word, and ``verify_identity`` reducing lhs - rhs as
Fraction coordinates; NCPoly grids cross only at the edges, through the
constructor and the ``terms`` view.  Idempotency is the dense product, and
the parameter-matrix check and antisymmetrizer are built from Fraction
products, the antisymmetrizer also as Fraction rows read by the
TensorOperator constructor (``fraction_row_antisymmetrizer``).
``FractionOperator`` keeps the sparse Fraction-row operator arithmetic
(products, sums, scalings, transposes, embeddings) that ``TensorOperator``
ran before it moved to integer numerators over one common denominator;
``closed_form_multiparam`` keeps the closed form built entry by entry on
Fractions, re-validating each restricted parameter matrix, and
``inversion_parameter_product`` the inversion product read off qhat
directly; ``generic_pairing`` keeps the dual-basis construction that summed
Fraction products over the dense inverse of the Gram matrix.
``group_closure_average`` keeps the group average over the enumerated
closure of the signed flips, and ``hecke_recursion`` the q-symmetrizer
recursion with two full products per arity, which the coset sums of
``tensor.coset_sum`` replaced.  ``verify_axioms_by_products`` keeps the
axiom report of ``pairing.verify_axioms`` with every identity decided by
forming the full operator products, which the row checks of
``tensor._fixes_rows`` replaced.  ``parse_poly`` keeps the token parser
(``_tokenize`` and a token loop with an ``expect_factor`` flag) that the
pattern loop of ``freealg.parse_poly`` replaced.  ``perm_action``, the
permutation action rho^+ on a tensor power written index by index, and
``inversion_set`` and ``reduced_word``, the brute-force inversion set and a
reduced word by bubble sort, are the oracles of the S_k combinatorics.
``entry`` reads one entry of an operator by multi-indices, and
``spec_to_json`` writes an idempotent spec as the JSON that
``IdempotentSpec.from_json`` reads, for the round-trip tests; the library
reads specs and does not write them.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import factorial, lcm

from maninalg.freealg import (Gen, NCPoly, NonHomogeneous, poly_matrix, word_budget,
                              word_index)
from maninalg.idempotents import (InvalidParameter, hecke_r_matrix, rational_grid,
                                  restrict_parameter_matrix)
from maninalg.linalg import ONE, ZERO, QMatrix, SparseEchelon, rat
from maninalg.pairing import NotExists, PairingOperator, q_int
from maninalg.permutations import Perm, all_perms, mu, stabilizer_order
from maninalg.quadratic import component_subspaces
from maninalg.tensor import TensorOperator, check_budget, flatten_index, multi_indices
from maninalg.tensor import embed as embed_op


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


def joint_kernels(op: TensorOperator, k: int) -> tuple:
    """(right, left) joint kernels of the copies of op at adjacent legs as
    dense reduced bases, k >= 2: (V_k, Vbar_k) for op = E and
    (W_k, Wbar_k) for op = S = 1 - E.
    """
    size = op.row_dim ** k
    blocks = [QMatrix(size, size, _embedded_rows(op, k, a)) for a in range(k - 1)]
    right = [row for b in blocks for row in b.data]
    left = [row for b in blocks for row in b.transpose().data]
    return (kernel(QMatrix(len(right), size, right)),
            kernel(QMatrix(len(left), size, left)))


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
                row_index[leg_a - 1], row_index[leg_b - 1] = r // n + 1, r % n + 1
                out.data[flatten_index(tuple(row_index), n)][col] = x
    return out


def fixes_subspaces(m: QMatrix, right, left) -> bool:
    """m pi = pi for each dense basis row pi of right, xi m = xi for each of left."""
    return (all(m.matvec(row) == list(row) for row in right.basis.data)
            and all(m.vecmat(row) == list(row) for row in left.basis.data))


# --- polynomials as word -> Fraction dicts ------------------------------------
#
# The Fraction arithmetic that NCPoly ran before it moved to integer
# numerators over one denominator; no NCPoly is built or read here.  Every
# result holds no zero coefficient.

def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b."""
    out = dict(a)
    for word, c in b.items():
        v = out.get(word, ZERO) + sign * c
        if v:
            out[word] = v
        else:
            out.pop(word, None)
    return out


def poly_sub(a: dict, b: dict) -> dict:
    return poly_add(a, b, -1)


def poly_scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {word: c * x for word, x in a.items()} if c else {}


def poly_mul(a: dict, b: dict) -> dict:
    """The product, one Fraction sum per word."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            word = w1 + w2
            v = out.get(word, ZERO) + c1 * c2
            if v:
                out[word] = v
            else:
                out.pop(word, None)
    return out


def entry_product(factors, c=ONE) -> dict:
    """c * f_1 * f_2 * ..., one poly_mul per factor."""
    out = {(): Fraction(c)} if c else {}
    for f in factors:
        out = poly_mul(out, f)
    return out


def grid_product(grid, left=None, right=None) -> list:
    """left * grid * right for a grid of word -> Fraction dicts, with
    Fraction sums per word; the right side is applied as
    (right^T grid^T)^T.  Sides are None, QMatrix or TensorOperator."""
    if left is not None:
        grid = _rows_times_grid(left, grid)
    if right is not None:
        right = right.transpose()
        grid = [list(col) for col in zip(*_rows_times_grid(right, [list(c) for c in zip(*grid)]))]
    return grid


def _rows_times_grid(op, grid) -> list:
    if isinstance(op, QMatrix):
        rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(op.data)}
        nrows, ncols = op.rows, op.cols
    else:
        rows = fraction_rows(op)
        nrows, ncols = op.row_dim ** op.arity, op.col_dim ** op.arity
    if ncols != len(grid):
        raise ValueError("inner dimensions differ")
    out = []
    for i in range(nrows):
        acc = [{} for _ in grid[0]]
        for k, c in rows.get(i, {}).items():
            acc = [poly_add(sums, poly_scale(p, c)) for sums, p in zip(acc, grid[k])]
        out.append(acc)
    return out


def congruent(lhs: dict, rhs: dict, algebra) -> bool:
    """lhs - rhs built as a dict, then reduced as sparse Fraction
    coordinates in the slice of its degree that ``slice_from_scratch``
    builds from the algebra's relations."""
    return _difference_in(lhs, rhs, algebra, lambda d: slice_from_scratch(
        len(algebra.gens), algebra.relations, d))


def _difference_in(lhs: dict, rhs: dict, algebra, slice_of) -> bool:
    """Does lhs - rhs lie in the echelon slice_of(d) of its degree d?"""
    diff = poly_sub(lhs, rhs)
    if not diff:
        return True
    degrees = {len(w) for w in diff}
    if len(degrees) > 1:
        raise NonHomogeneous("membership needs a homogeneous polynomial")
    d = degrees.pop()
    if d < 2:
        return False
    g = len(algebra.gens)
    return slice_of(d).contains({word_index(w, algebra.gen_pos, g): c for w, c in diff.items()})


# --- NCPoly grids through the dict arithmetic ---------------------------------

def _dicts(grid) -> list:
    return [[p.terms for p in row] for row in grid]


def _polys(grid) -> list:
    return [[NCPoly(p) for p in row] for row in grid]


def scalar_times_poly_mat(m: QMatrix, p) -> list:
    """The QMatrix m times the NCPoly grid p, one dense sum per entry."""
    return _polys(grid_product(_dicts(p), left=m))


def manin_defect(pair, M) -> list:
    """The grid A M^{(1)} M^{(2)} (1 - B) of NCPoly entries, from dense
    products of the NCPoly chain with A and with 1 - B built on QMatrix
    grids: the oracle for ``manin.defect_rows``."""
    if len(M) != pair.n or any(len(row) != pair.m for row in M):
        raise ValueError("matrix shape does not match the pair")
    complement = QMatrix.identity(pair.m ** 2) - pair.B.matrix
    return poly_mat_times_scalar(scalar_times_poly_mat(pair.A.matrix, compose_chain(M, 2)),
                                 complement)


def poly_mat_times_scalar(p, m: QMatrix) -> list:
    """The NCPoly grid p times the QMatrix m, one dense sum per entry."""
    return _polys(grid_product(_dicts(p), right=m))


def compose_chain(M, k: int) -> list:
    """M^{(1)} ... M^{(k)} as chained dict products, one factor at a time."""
    grid = _dicts(poly_matrix(M.data if isinstance(M, QMatrix) else M))
    n, m = len(grid), len(grid[0])
    check_budget(max(n, m) ** k)
    return [[NCPoly(entry_product(grid[i - 1][j - 1] for i, j in zip(row_index, col_index)))
             for col_index in multi_indices(m, k)]
            for row_index in multi_indices(n, k)]


def poly_grid_product(grid, left=None, right=None) -> list:
    """left * grid * right with Fraction sums per word (``grid_product``)."""
    return _polys(grid_product(_dicts(grid), left, right))


def fraction_rows(op: TensorOperator) -> dict:
    """The entries of op as sparse Fraction rows row -> {col: num / den}."""
    return {i: {j: Fraction(x, op.den) for j, x in row.items()} for i, row in op.num.items()}


def entry(op: TensorOperator, row_index, col_index) -> Fraction:
    """Entry (I, J) of op, for multi-indices I and J with digits from 1."""
    row = op.num.get(flatten_index(row_index, op.row_dim), {})
    return Fraction(row.get(flatten_index(col_index, op.col_dim), 0), op.den)


def det_qhat(qhat, M) -> NCPoly:
    """sum_sigma sgn(sigma) mu(qhat, sigma)^{-1} M^{sigma(1)}_1 ... M^{sigma(k)}_k,
    one dict product per factor."""
    M = _dicts(poly_matrix(M))
    out = {}
    for sigma in all_perms(len(M)):
        out = poly_add(out, entry_product(
            (M[sigma(t) - 1][t - 1] for t in range(1, len(M) + 1)),
            Fraction(sigma.sign()) / mu(qhat, sigma)))
    return NCPoly(out)


def perm_qhat(phat, M) -> NCPoly:
    """sum_sigma mu(phat, sigma) M^1_{sigma(1)} ... M^k_{sigma(k)}."""
    M = _dicts(poly_matrix(M))
    out = {}
    for sigma in all_perms(len(M)):
        out = poly_add(out, entry_product(
            (M[t - 1][sigma(t) - 1] for t in range(1, len(M) + 1)), mu(phat, sigma)))
    return NCPoly(out)


def verify_identity(lhs: NCPoly, rhs: NCPoly, algebra) -> bool:
    """lhs - rhs built as a dict, then reduced as sparse Fraction
    coordinates in the algebra's slice of its degree."""
    return _difference_in(lhs.terms, rhs.terms, algebra, lambda d: algebra.slice(d).echelon)


def is_idempotent(E: TensorOperator) -> bool:
    """E E = E as a dense QMatrix product."""
    return E.matrix * E.matrix == E.matrix


def check_parameter_matrix(qhat) -> list:
    """q_ii = 1, q_ij q_ji = 1 as a Fraction product, entries nonzero."""
    rows = rational_grid(qhat, "a parameter matrix")
    n = len(rows)
    if not rows or any(len(r) != n for r in rows):
        raise InvalidParameter("parameter matrix must be square and non-empty")
    for i in range(n):
        if rows[i][i] != 1:
            raise InvalidParameter("parameter matrix needs unit diagonal")
        for j in range(n):
            if not rows[i][j]:
                raise InvalidParameter("parameter matrix entries must be nonzero")
            if rows[i][j] * rows[j][i] != 1:
                raise InvalidParameter("parameter matrix needs q_ij * q_ji = 1")
    return rows


def parameterized_antisymmetrizer(qhat) -> TensorOperator:
    """(1 - P_qhat) / 2 from the flip P_qhat, (P)^{kl}_{ij} = q_ij d^k_j d^l_i."""
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    flip = TensorOperator(n, n, 2, {
        flatten_index((j, i), n): {flatten_index((i, j), n): rows[i - 1][j - 1]}
        for i in range(1, n + 1) for j in range(1, n + 1)})
    return (TensorOperator.identity(n, 2) - flip).scale(Fraction(1, 2))


def fraction_row_antisymmetrizer(qhat) -> TensorOperator:
    """A_qhat written row by row on Fractions and read by the TensorOperator
    constructor: for a != b, row (a, b) is 1/2 at (a, b) and -q_ba/2 at
    (b, a)."""
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    half = Fraction(1, 2)
    return TensorOperator(n, n, 2, {
        flatten_index((a, b), n): {flatten_index((a, b), n): half,
                                   flatten_index((b, a), n): -rows[b - 1][a - 1] * half}
        for a in range(1, n + 1) for b in range(1, n + 1) if a != b})


def closed_form_multiparam(qhat, k: int, kind: str) -> TensorOperator:
    """The closed-form S_(k)/A_(k) operator of ``pairing.closed_form_multiparam``
    with every entry a Fraction product and quotient, before the rank-one
    blocks moved to integer numerators over one denominator; it restricts
    qhat to every index tuple with the validating
    ``restrict_parameter_matrix`` and reads each weight through ``mu``."""
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    out = {}
    kfact = factorial(k)
    if kind == "A":
        for I in itertools.combinations(range(1, n + 1), k):
            qII = restrict_parameter_matrix(rows, I)
            arranged = []
            for sigma in all_perms(k):
                tup = tuple(I[sigma(t) - 1] for t in range(1, k + 1))
                arranged.append((flatten_index(tup, n), sigma.sign(), mu(qII, sigma)))
            for row_pos, s_sign, s_mu in arranged:
                out[row_pos] = {col_pos: Fraction(s_sign * t_sign, kfact) * s_mu / t_mu
                                for col_pos, t_sign, t_mu in arranged}
    else:
        for I in itertools.combinations_with_replacement(range(1, n + 1), k):
            qII = restrict_parameter_matrix(rows, I)
            arranged = {}
            for sigma in all_perms(k):
                pos = flatten_index(tuple(I[sigma(t) - 1] for t in range(1, k + 1)), n)
                if pos not in arranged:
                    arranged[pos] = mu(qII, sigma)
            factor = Fraction(stabilizer_order(I), kfact)
            for row_pos, s_mu in arranged.items():
                out[row_pos] = {col_pos: factor * s_mu / t_mu
                                for col_pos, t_mu in arranged.items()}
    return TensorOperator(n, n, k, out)


def inversion_parameter_product(qhat, tau) -> Fraction:
    """prod of q_ij over i < j with tau(i) > tau(j), read off qhat directly."""
    rows = qhat.data if hasattr(qhat, "data") else [[Fraction(x) for x in r] for r in qhat]
    out = ONE
    k = tau.size
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if tau(i) > tau(j):
                out *= rows[i - 1][j - 1]
    return out


def generic_pairing(E: TensorOperator, k: int, kind: str):
    """The dual-basis operator sum_a v_a w_a of ``pairing.generic_pairing``
    with w_a = sum_b gram_inv[a][b] xi^b summed as Fraction products over
    the dense Fraction inverse of the Gram matrix gram[b][a] = xi^b v_a of
    the basis rows, or the same NotExists."""
    n = E.row_dim
    if k == 1:
        return PairingOperator(kind, 1, E, TensorOperator.identity(n, 1), "generic")
    right, left = component_subspaces(E, k, kind)
    if right.dim != left.dim:
        return NotExists(kind, k, "dimension mismatch",
                         {"right_dim": right.dim, "left_dim": left.dim})
    d = right.dim
    if d == 0:
        return PairingOperator(kind, k, E, TensorOperator.zero(n, k), "generic")
    vs, xis = list(right.rows.values()), list(left.rows.values())
    gram = QMatrix(d, d, [[sum((x * v.get(j, ZERO) for j, x in xi.items()), ZERO)
                           for v in vs] for xi in xis])
    gram_inv = invert(gram)
    if gram_inv is None:
        return NotExists(kind, k, "degenerate natural pairing",
                         {"dim": d, "gram_rank": rref(gram)[1]})
    out = {}
    for v, coeffs in zip(vs, gram_inv.data):
        w = {}
        for g, xi in zip(coeffs, xis):
            if g:
                for j, x in xi.items():
                    w[j] = w.get(j, ZERO) + g * x
        for i, vi in v.items():
            row = out.setdefault(i, {})
            for j, x in w.items():
                row[j] = row.get(j, ZERO) + vi * x
    return PairingOperator(kind, k, E, TensorOperator(n, n, k, out), "generic")


def group_closure_average(E: TensorOperator, k: int, kind: str,
                          cap: int = 100000) -> TensorOperator:
    """The average over the closure of the generators (+-P)^{(a,a+1)},
    P = 1 - 2E, enumerated breadth first into a set of operators: the route
    ``pairing.group_average`` took before it summed over the coset words of
    S_k.  Raises ValueError when the closure exceeds cap elements."""
    n = E.row_dim
    P = TensorOperator.identity(n, 2) - E.scale(2)
    signed = P if kind == "S" else -P
    gens = [embed_op(signed, k, a) for a in range(1, k)]
    identity = TensorOperator.identity(n, k)
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"group did not close within {cap} elements")
                    seen[h] = None
                    new_frontier.append(h)
        frontier = new_frontier
    total = TensorOperator.zero(n, k)
    for g in seen:
        total = total + g
    return total.scale(Fraction(1, len(seen)))


def hecke_recursion(q, n: int, k: int, kind: str) -> TensorOperator:
    """The q-symmetrizer by the two-product recursion that
    ``pairing.hecke_pairing`` ran before the coset sum: with
    prev = S_(j-1) (x) 1,
    S_(j) = q^{+-(j-1)}/[j]_q prev +- [j-1]_q/[j]_q prev R^(j-1) prev."""
    q = Fraction(q)
    R = hecke_r_matrix(n, q)
    sign = 1 if kind == "S" else -1
    op = TensorOperator.identity(n, 1)
    for j in range(2, k + 1):
        prev = embed_op(op, j, 1)
        kq = q_int(j, q)
        head = prev.scale(q ** (sign * (j - 1)) / kq)
        tail = (prev * embed_op(R, j, j - 1) * prev).scale(q_int(j - 1, q) / kq)
        op = head + tail if sign > 0 else head - tail
    return op


def verify_axioms_by_products(p: PairingOperator, partner: PairingOperator | None = None,
                              lower=()) -> dict:
    """The report of ``pairing.verify_axioms`` from full products: e op = 0
    and op e = 0 for every window e of E (kind S) or 1 - E (kind A),
    op op = op, op partner = 0 and partner op = 0, and for every window e
    of a lower operator e op = op = op e (same kind) or e op = 0 = op e
    (other kind, arity 2 and up).  The fixed vectors are the dense check
    ``fixes_subspaces``."""
    E, k, op = p.source, p.arity, p.operator

    def windows(q):
        return [embed_op(q, k, a) for a in range(1, k - q.arity + 2)]

    def kills(q):
        return all((e * op).is_zero() and (op * e).is_zero() for e in windows(q))

    def absorbs(q):
        return all(e * op == op and op * e == op for e in windows(q))

    killer = E if p.kind == "S" else TensorOperator.identity(E.row_dim, 2) - E
    right, left = component_subspaces(E, k, p.kind)
    report = {"annihilation": kills(killer),
              "fixed_vectors": fixes_subspaces(op.matrix, right, left),
              "idempotent": op * op == op}
    if partner is not None and k >= 2:
        if partner.kind == p.kind or partner.arity != k:
            raise ValueError("orthogonality needs the other kind at the same arity")
        report["orthogonality"] = ((op * partner.operator).is_zero()
                                   and (partner.operator * op).is_zero())
    else:
        report["orthogonality"] = None
    report["nesting"] = all(
        absorbs(q.operator) if q.kind == p.kind else kills(q.operator)
        for q in lower if q.arity < k and (q.kind == p.kind or q.arity >= 2)
    ) if lower else None
    report["pass"] = all(v for v in report.values() if v is not None)
    return report


class FractionOperator:
    """A tensor operator as sparse Fraction rows: the representation and
    arithmetic that ``TensorOperator`` had before it moved to integer
    numerators over one common denominator.

    ``rows`` maps a flat row index to {flat column index: nonzero
    Fraction}; zeros and empty rows are never stored, so two operators are
    equal iff their rows are.  Products sum each row over the integer rows
    of the right factor, each over its own least common denominator.
    """

    def __init__(self, row_dim: int, col_dim: int, arity: int, rows: dict):
        self.row_dim, self.col_dim, self.arity = row_dim, col_dim, arity
        rows = {i: {j: Fraction(x) for j, x in row.items() if x} for i, row in rows.items()}
        self.rows = {i: row for i, row in rows.items() if row}

    @staticmethod
    def of(op: TensorOperator) -> "FractionOperator":
        return FractionOperator(op.row_dim, op.col_dim, op.arity, fraction_rows(op))

    def operator(self) -> TensorOperator:
        return TensorOperator(self.row_dim, self.col_dim, self.arity, self.rows)

    def _like(self, rows, row_dim=None, col_dim=None) -> "FractionOperator":
        out = object.__new__(FractionOperator)
        out.row_dim = self.row_dim if row_dim is None else row_dim
        out.col_dim = self.col_dim if col_dim is None else col_dim
        out.arity = self.arity
        out.rows = rows
        return out

    def integer_rows(self) -> dict:
        """row -> (d, {col: numerator}), d the least common denominator of the row."""
        out = {}
        for i, row in self.rows.items():
            d = lcm(*(x.denominator for x in row.values()))
            out[i] = (d, {j: x.numerator * (d // x.denominator) for j, x in row.items()})
        return out

    def vecmat(self, v: dict) -> dict:
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

    def __mul__(self, other: "FractionOperator") -> "FractionOperator":
        out = {}
        for i, arow in self.rows.items():
            row = other.vecmat(arow)
            if row:
                out[i] = row
        return self._like(out, col_dim=other.col_dim)

    def __add__(self, other: "FractionOperator") -> "FractionOperator":
        out = dict(self.rows)
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
        return self._like(out)

    def __sub__(self, other: "FractionOperator") -> "FractionOperator":
        return self + -other

    def __neg__(self) -> "FractionOperator":
        return self._like({i: {j: -x for j, x in row.items()} for i, row in self.rows.items()})

    def scale(self, c) -> "FractionOperator":
        c = Fraction(c)
        if c == 1:
            return self
        return self._like({i: {j: c * x for j, x in row.items()}
                           for i, row in self.rows.items()} if c else {})

    def transpose(self) -> "FractionOperator":
        out = {}
        for i, row in self.rows.items():
            for j, x in row.items():
                out.setdefault(j, {})[i] = x
        return self._like(out, row_dim=self.col_dim, col_dim=self.row_dim)

    def trace(self) -> Fraction:
        return sum((row.get(i, ZERO) for i, row in self.rows.items()), ZERO)

    def is_zero(self) -> bool:
        return not self.rows

    def is_idempotent(self) -> bool:
        return self * self == self

    def row_basis(self) -> QMatrix:
        """The reduced row-echelon basis of the rows, computed densely."""
        size = self.col_dim ** self.arity
        dense = []
        for i in sorted(self.rows):
            v = [ZERO] * size
            for j, x in self.rows[i].items():
                v[j] = x
            dense.append(v)
        return row_basis(dense, size)

    def __eq__(self, other):
        return (isinstance(other, FractionOperator)
                and (self.row_dim, self.col_dim, self.arity)
                == (other.row_dim, other.col_dim, other.arity)
                and self.rows == other.rows)


def embed_rows(op: FractionOperator, total_arity: int, start_leg: int) -> FractionOperator:
    """FractionOperator of op at legs start_leg .. start_leg + arity - 1."""
    n, ell = op.row_dim, op.arity
    n_l = n ** (start_leg - 1)
    n_r = n ** (total_arity - ell - start_leg + 1)
    block = n ** ell * n_r
    out = {}
    for a in range(n_l):
        for base in range(a * block, a * block + n_r):
            for r, row in op.rows.items():
                out[base + r * n_r] = {base + c * n_r: x for c, x in row.items()}
    return FractionOperator(n, n, total_arity, out)


def embed_pair_rows(op: FractionOperator, total_arity: int, leg_a: int,
                    leg_b: int) -> FractionOperator:
    """FractionOperator of the arity-2 op at legs (leg_a, leg_b)."""
    n = op.row_dim
    weight = [n ** (total_arity - t) for t in range(1, total_arity + 1)]
    wa, wb = weight[leg_a - 1], weight[leg_b - 1]
    others = [w for t, w in enumerate(weight, 1) if t not in (leg_a, leg_b)]
    place = lambda flat: (flat // n) * wa + (flat % n) * wb
    out = {}
    for digits in multi_indices(n, total_arity - 2):
        base = sum((d - 1) * w for d, w in zip(digits, others))
        for r, row in op.rows.items():
            out[base + place(r)] = {base + place(c): x for c, x in row.items()}
    return FractionOperator(n, n, total_arity, out)


class FractionEchelon:
    """Incremental row reduction on sparse Fraction rows, every pivot row
    normalized to lead coefficient 1: the engine that ``SparseEchelon``
    replaced, kept as its oracle."""

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        return _eliminate({i: Fraction(c) for i, c in row.items() if c}, self.pivots)

    def insert(self, row: dict) -> bool:
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        inv = ONE / red[lead]
        self.pivots[lead] = {j: c * inv for j, c in red.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def reduced_rows(self) -> dict:
        reduced: dict[int, dict] = {}
        for lead in sorted(self.pivots, reverse=True):
            reduced[lead] = _eliminate(dict(self.pivots[lead]), reduced)
        return dict(sorted(reduced.items()))


def integer_row(row: dict) -> dict:
    """The nonzero entries of a row of ints and Fractions, times the least
    common denominator, as a fresh dict of ints: the scaling that
    ``linalg._integer_row`` applied to every row before rows of ints were
    copied as they are."""
    values = row.values()
    den = lcm(*(c.denominator for c in values))
    if den == 1:
        out = dict(zip(row, (c.numerator for c in values)))
    else:
        out = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
    if 0 in values:
        out = {j: c for j, c in out.items() if c}
    return out


def _eliminate(row: dict, pivots: dict) -> dict:
    """Subtract c * pivot from row (in place) for every pivot lead in row,
    smallest lead first; pivots have lead coefficient 1."""
    hits = [i for i in row if i in pivots]
    heapify(hits)
    while hits:
        i = heappop(hits)
        c = row.pop(i, None)
        if c is None:  # cancelled, or a repeat already cleared
            continue
        for j, v in pivots[i].items():
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
                if j in pivots:
                    heappush(hits, j)
    return row


def slice_from_scratch(g: int, relations, d: int) -> FractionEchelon:
    """The degree-d slice of the ideal generated by the Subspace relations
    of the g^2-dimensional word space: every w1 * r * w2 with
    |w1| + |w2| = d - 2, inserted into a FractionEchelon."""
    ech = FractionEchelon()
    for left_len in range(d - 1):
        right_size = g ** (d - 2 - left_len)
        for lead in range(g ** left_len):
            for rel in relations.rows.values():
                for trail in range(right_size):
                    ech.insert({(lead * g * g + mid) * right_size + trail: c
                                for mid, c in rel.items()})
    return ech


def eager_slice(g: int, relations, d: int) -> SparseEchelon:
    """The degree-d slice grown degree by degree with every pivot row of
    I_(e-1) shifted by each generator into the echelon of degree e, the
    builder that the increment form of ``ideals.IdealSlice`` replaced: the
    rows u * r are inserted for the normal words u of degree e - 2 into the
    full slice.  Returns the SparseEchelon of I_d."""
    pivots, normal, rels = {}, [0], list(relations.rows.values())
    for e in range(2, d + 1):
        normal_next = [w for w in range(g ** (e - 1)) if w not in pivots]
        ech = SparseEchelon()
        for lead in sorted(pivots):
            for x in range(g):
                ech.pivots[lead * g + x] = {pos * g + x: c for pos, c in pivots[lead].items()}
        for u in normal:
            for rel in rels:
                ech.insert({u * g * g + mid: c for mid, c in rel.items()})
        pivots, normal = ech.pivots, normal_next
    return ech


# --- permutations: the S_k action on tensor powers and reduced words ----------

def perm_action(p: Perm, n: int) -> TensorOperator:
    """rho^+(p): e_{i_1...i_k} -> e_{j_1...j_k} with j_{p(t)} = i_t; the
    signed rho^-(p) is ``perm_action(p, n).scale(p.sign())``."""
    k = p.size
    rows = {}
    for index in multi_indices(n, k):
        moved = [0] * k
        for t, i in enumerate(index, 1):
            moved[p(t) - 1] = i
        rows[flatten_index(moved, n)] = {flatten_index(index, n): 1}
    return TensorOperator(n, n, k, rows)


def inversion_set(p: Perm) -> frozenset:
    """Brute-force inversion set {(i, j) : i < j, p(i) > p(j)}."""
    return frozenset(
        (i, j)
        for i in range(1, p.size + 1)
        for j in range(i + 1, p.size + 1)
        if p(i) > p(j)
    )


def reduced_word(p: Perm) -> tuple:
    """Canonical reduced word by bubble-sort descent.

    Repeatedly strips the smallest descent from the left; the returned word
    (i_1, ..., i_l) satisfies from_word(word, k) == p and l == inv(p).
    """
    word = []
    images = list(p.images)
    # sorting the one-line notation with adjacent swaps; recording swap a at
    # position t means multiplying by s_a on the right of what remains
    while True:
        for a in range(len(images) - 1):
            if images[a] > images[a + 1]:
                images[a], images[a + 1] = images[a + 1], images[a]
                word.append(a + 1)
                break
        else:
            break
    # the recorded swaps sort p to the identity: p * s_{a_1} * ... = id,
    # hence p = s_{a_m} * ... * s_{a_1} reversed
    return tuple(reversed(word))


# --- the token parser that freealg.parse_poly replaced -------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\],*+^-]))"
)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text!r} at position {pos}")
            break
        pos = m.end()
        if m.group("num"):
            yield ("num", m.group("num"), m.start())
        elif m.group("name"):
            yield ("name", m.group("name"), m.start())
        else:
            yield ("op", m.group("op"), m.start())


def parse_poly(text: str) -> NCPoly:
    """Parse the textual form '2*M[1,1]*M[2,2] - 1/3*M[1,2]*M[2,1]'.

    Malformed text, a zero denominator and a word longer than
    ``word_budget()`` letters raise ValueError; the length is checked before
    the word is built.
    """
    tokens = list(_tokenize(text))
    out = NCPoly.zero()
    i = 0
    n = len(tokens)
    budget = word_budget()

    def fail(where, what):
        raise ValueError(f"{what} at position {where} in {text!r}")

    while i < n:
        sign = ONE
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail(len(text), "dangling sign")
        coeff = sign
        word = []
        expect_factor = True
        while i < n:
            kind, val, where = tokens[i]
            if kind == "num":
                coeff *= rat(val)
                i += 1
            elif kind == "name":
                sym = val
                i += 1
                idx = ()
                if i < n and tokens[i][:2] == ("op", "["):
                    # integers split by single commas: '[' num (',' num)* ']'
                    nums = []
                    while not nums or (i < n and tokens[i][:2] == ("op", ",")):
                        i += 1
                        if i >= n:
                            fail(where, "unterminated index bracket")
                        kind2, val2, where2 = tokens[i]
                        if kind2 != "num" or "/" in val2:
                            fail(where2, "bad index list")
                        nums.append(int(val2))
                        i += 1
                    if i >= n:
                        fail(where, "unterminated index bracket")
                    if tokens[i][:2] != ("op", "]"):
                        fail(tokens[i][2], "bad index list")
                    i += 1
                    idx = tuple(nums)
                power = 1
                if i < n and tokens[i][:2] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        fail(where, "bad exponent")
                    power = int(tokens[i][1])
                    i += 1
                if len(word) + power > budget:
                    fail(where, f"word longer than the word budget {budget} "
                                "(override with MANIN_BUDGET)")
                word.extend([Gen(sym, idx)] * power)
            else:
                fail(where, f"unexpected token {val!r}")
            expect_factor = False
            if i < n and tokens[i][:2] == ("op", "*"):
                i += 1
                expect_factor = True
                continue
            if i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
                break
            if i < n and not expect_factor:
                fail(tokens[i][2], f"unexpected token {tokens[i][1]!r}")
        if expect_factor:
            fail(len(text), "dangling '*'")
        out = out + NCPoly({tuple(word): coeff})
    return out


def spec_to_json(spec) -> dict:
    """An IdempotentSpec as a JSON object, with every Fraction of its params,
    at any depth of lists and dicts, written as a 'p' or 'p/q' string."""
    return {"family": spec.family, "n": spec.n, "params": _json_value(spec.params)}


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value
