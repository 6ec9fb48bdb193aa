"""Catalog of idempotents on C^n (x) C^n and equivalence predicates.

Each constructor returns an arity-2 :class:`TensorOperator`.  The catalog
covers the (anti)symmetrizers, their one- and multi-parameter deformations,
the Hecke R-matrix split, the orthogonal/symplectic idempotents built from
the rank-one contraction, the 3-dimensional 4-parameter family, and the
idempotent attached to a Lie algebra's structure constants.

Two idempotents are left equivalent iff their row spaces agree, right
equivalent iff their column spaces agree; left-equivalent idempotents
present the same quadratic algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import ONE, QMatrix, ZERO, column_space, format_rat, rat, row_space
from .tensor import TensorOperator, flatten_index, swap_operator


class InvalidParameter(ValueError):
    """Constructor parameters violate a family invariant."""


def sgn(k: int) -> int:
    return (k > 0) - (k < 0)


def check_parameter_matrix(qhat) -> list:
    """Validate q_ii = 1, q_ij = q_ji^{-1}, entries nonzero; return rows."""
    rows = [[rat(x) for x in row] for row in
            (qhat.data if isinstance(qhat, QMatrix) else qhat)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidParameter("parameter matrix must be square")
    for i in range(n):
        if rows[i][i] != 1:
            raise InvalidParameter("parameter matrix needs unit diagonal")
        for j in range(n):
            if not rows[i][j]:
                raise InvalidParameter("parameter matrix entries must be nonzero")
            if rows[i][j] * rows[j][i] != 1:
                raise InvalidParameter("parameter matrix needs q_ij * q_ji = 1")
    return rows


def uniform_parameter_matrix(n: int, q) -> list:
    """q^{[n]}: entries q^{sgn(j-i)}."""
    q = rat(q)
    if not q:
        raise InvalidParameter("q must be nonzero")
    return [[q ** sgn(j - i) for j in range(n)] for i in range(n)]


def conjugate_parameter_matrix(qhat, sigma) -> list:
    """(sigma qhat sigma^{-1})_{ij} = q_{sigma^{-1}(i), sigma^{-1}(j)}."""
    rows = check_parameter_matrix(qhat)
    inv = sigma.inverse()
    n = len(rows)
    return [[rows[inv(i + 1) - 1][inv(j + 1) - 1] for j in range(n)] for i in range(n)]


def restrict_parameter_matrix(qhat, index_tuple) -> list:
    """qhat_II: entry (s,t) is q_{i_s i_t}."""
    rows = check_parameter_matrix(qhat)
    return [[rows[a - 1][b - 1] for b in index_tuple] for a in index_tuple]


# --- constructors -------------------------------------------------------------

def permutation_op(n: int) -> TensorOperator:
    """P_n, the tensor flip (an involution, not an idempotent)."""
    return swap_operator(n)


def antisymmetrizer(n: int) -> TensorOperator:
    return (TensorOperator.identity(n, 2) - permutation_op(n)).scale(Fraction(1, 2))


def symmetrizer(n: int) -> TensorOperator:
    return (TensorOperator.identity(n, 2) + permutation_op(n)).scale(Fraction(1, 2))


def q_permutation_op(n: int, q) -> TensorOperator:
    """P^q_n acting as e_i (x) e_j -> q^{-sgn(i-j)} e_j (x) e_i."""
    return parameterized_permutation_op(uniform_parameter_matrix(n, q))


def q_antisymmetrizer(n: int, q) -> TensorOperator:
    return (TensorOperator.identity(n, 2) - q_permutation_op(n, q)).scale(Fraction(1, 2))


def q_symmetrizer(n: int, q) -> TensorOperator:
    return (TensorOperator.identity(n, 2) + q_permutation_op(n, q)).scale(Fraction(1, 2))


def parameterized_permutation_op(qhat) -> TensorOperator:
    """P_qhat with entries (P)^{kl}_{ij} = q_ij d^k_j d^l_i."""
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    out = QMatrix.zero(n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.data[flatten_index((j, i), n)][flatten_index((i, j), n)] = rows[i - 1][j - 1]
    return TensorOperator(n, n, 2, out)


def parameterized_antisymmetrizer(qhat) -> TensorOperator:
    """A_qhat = (1 - P_qhat)/2; presents x^j x^i = q_ij x^i x^j."""
    base = parameterized_permutation_op(qhat)
    return (TensorOperator.identity(base.row_dim, 2) - base).scale(Fraction(1, 2))


def twisted_antisymmetrizer(qhat) -> TensorOperator:
    """A~_qhat from the cross-relation-only presentation: the flip picks up
    a sign (-1)^{delta_ij} so the squares psi_i^2 stay free."""
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    out = QMatrix.zero(n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            c = rows[i - 1][j - 1]
            if i == j:
                c = -c
            out.data[flatten_index((j, i), n)][flatten_index((i, j), n)] = c
    base = TensorOperator(n, n, 2, out)
    return (TensorOperator.identity(n, 2) - base).scale(Fraction(1, 2))


def hecke_r_matrix(n: int, q) -> TensorOperator:
    """R^(hat), the braid form of the standard gl_n R-matrix."""
    q = rat(q)
    if q in (0, 1, -1):
        raise InvalidParameter("q must avoid {0, 1, -1}")
    out = QMatrix.zero(n * n)
    qi = 1 / q

    def put(row_pair, col_pair, value):
        out.data[flatten_index(row_pair, n)][flatten_index(col_pair, n)] += value

    for i in range(1, n + 1):
        put((i, i), (i, i), qi)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                put((i, j), (j, i), ONE)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            put((i, j), (i, j), qi - q)
    return TensorOperator(n, n, 2, out)


def hecke_plus(n: int, q) -> TensorOperator:
    """R^(hat)_+ = (q + R^(hat)) / (q + q^{-1})."""
    q = rat(q)
    R = hecke_r_matrix(n, q)
    two_q = q + 1 / q
    return (TensorOperator.identity(n, 2).scale(q) + R).scale(1 / two_q)


def hecke_minus(n: int, q) -> TensorOperator:
    """R^(hat)_- = (q^{-1} - R^(hat)) / (q + q^{-1})."""
    q = rat(q)
    R = hecke_r_matrix(n, q)
    two_q = q + 1 / q
    return (TensorOperator.identity(n, 2).scale(1 / q) - R).scale(1 / two_q)


def rank_one_contraction(n: int) -> TensorOperator:
    """Q_n: e_k (x) e_l -> delta_{l,k'} sum_i e_i (x) e_{i'}, i' = n+1-i."""
    out = QMatrix.zero(n * n)
    for k in range(1, n + 1):
        col = flatten_index((k, n + 1 - k), n)
        for i in range(1, n + 1):
            out.data[flatten_index((i, n + 1 - i), n)][col] = ONE
    return TensorOperator(n, n, 2, out)


def twisted_rank_one_contraction(n: int) -> TensorOperator:
    """Q~_n, the symplectic variant weighted by eps_i eps_k."""
    if n % 2:
        raise InvalidParameter("the symplectic contraction needs even n")
    eps = lambda i: 1 if i <= n // 2 else -1
    out = QMatrix.zero(n * n)
    for k in range(1, n + 1):
        col = flatten_index((k, n + 1 - k), n)
        for i in range(1, n + 1):
            out.data[flatten_index((i, n + 1 - i), n)][col] = rat(eps(i) * eps(k))
    return TensorOperator(n, n, 2, out)


def orthogonal_idempotent(n: int) -> TensorOperator:
    """B_n = A_n + Q_n / n."""
    return antisymmetrizer(n) + rank_one_contraction(n).scale(Fraction(1, n))


def symplectic_idempotent(n: int) -> TensorOperator:
    """B~_n = A_n - Q~_n / n (n even); note B~_2 = 0."""
    return antisymmetrizer(n) - twisted_rank_one_contraction(n).scale(Fraction(1, n))


def fourparam_idempotent(a, b, c, kappa) -> TensorOperator:
    """The 3-dimensional 4-parameter idempotent (1 - P)/2 with
    P^{ij}_{kl} = a_{ji}^2 d^j_k d^i_l + kappa a_{ji} delta_{kl} eps_{ijk}."""
    a, b, c, kappa = rat(a), rat(b), rat(c), rat(kappa)
    if not (a and b and c):
        raise InvalidParameter("a, b, c must be nonzero")
    amat = [[ONE, a, 1 / c], [1 / a, ONE, b], [c, 1 / b, ONE]]
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
           (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}
    P = QMatrix.zero(9)
    for i in range(1, 4):
        for j in range(1, 4):
            row = flatten_index((i, j), 3)
            aji = amat[j - 1][i - 1]
            P.data[row][flatten_index((j, i), 3)] += aji * aji
            for k in range(1, 4):
                e = eps.get((i, j, k), 0)
                if e:
                    P.data[row][flatten_index((k, k), 3)] += kappa * aji * e
    E = (TensorOperator.identity(3, 2) - TensorOperator(3, 3, 2, P)).scale(Fraction(1, 2))
    if not is_idempotent(E):
        raise InvalidParameter("parameters fail to square the flip to one")
    return E


def lie_structure_operator(brackets, dim: int) -> TensorOperator:
    """C_g on C^n (x) C^n, n = dim + 1, from structure constants C^{ij}_k.

    brackets maps (i, j) -> {k: C^{ij}_k}; antisymmetry in (i, j) is
    required.  Entries: (C_g)^{ij}_{kl} = C^{ij}_k d_{ln} + C^{ij}_l d_{kn}.
    """
    n = dim + 1
    table = {}
    for (i, j), comps in brackets.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise InvalidParameter("bracket indices outside the Lie algebra")
        for k, cval in comps.items():
            if not 1 <= k <= dim:
                raise InvalidParameter("bracket component outside the Lie algebra")
            table[(i, j, k)] = table.get((i, j, k), ZERO) + rat(cval)
    for (i, j, k), v in table.items():
        if table.get((j, i, k), ZERO) != -v:
            raise InvalidParameter("structure constants must be antisymmetric")
    out = QMatrix.zero(n * n)
    for (i, j, k), v in table.items():
        if v:
            row = flatten_index((i, j), n)
            out.data[row][flatten_index((k, n), n)] += v
            out.data[row][flatten_index((n, k), n)] += v
    return TensorOperator(n, n, 2, out)


def lie_idempotent(brackets, dim: int) -> TensorOperator:
    """A_g = A_n - C_g / 4; idempotent for any antisymmetric constants."""
    C = lie_structure_operator(brackets, dim)
    return antisymmetrizer(dim + 1) - C.scale(Fraction(1, 4))


def sl2_brackets() -> dict:
    """Structure constants of sl_2 in the basis (e, f, h)."""
    return {
        (1, 2): {3: 1}, (2, 1): {3: -1},
        (3, 1): {1: 2}, (1, 3): {1: -2},
        (3, 2): {2: -2}, (2, 3): {2: 2},
    }


# --- predicates ---------------------------------------------------------------

def is_idempotent(E: TensorOperator) -> bool:
    if not E.square:
        raise ValueError("idempotency needs a square operator")
    return E * E == E


def make_idempotent(R: QMatrix) -> TensorOperator:
    """Echelon projector with the same row space as the relation rows R.

    Echelonize R; for pivot columns c_i with echelon rows r_i the operator
    E = sum e_{c_i} r_i is idempotent and rowspace(E) = rowspace(R), so it
    presents the same quadratic algebra as R.
    """
    size = R.cols
    out = QMatrix.zero(size, size)
    for lead, row in row_space(R).rows.items():
        for j, x in row.items():
            out.data[lead][j] = x
    n = round(size ** 0.5)
    if n * n == size:
        return TensorOperator(n, n, 2, out)
    return TensorOperator(size, size, 1, out)


def left_equivalent(E1: TensorOperator, E2: TensorOperator) -> bool:
    """Row spaces agree (same X- and Xi-algebra)."""
    _check_equiv_args(E1, E2)
    return row_space(E1.matrix) == row_space(E2.matrix)


def right_equivalent(E1: TensorOperator, E2: TensorOperator) -> bool:
    """Column spaces agree (same dual algebras)."""
    _check_equiv_args(E1, E2)
    return column_space(E1.matrix) == column_space(E2.matrix)


def _check_equiv_args(E1, E2):
    if not (is_idempotent(E1) and is_idempotent(E2)):
        raise ValueError("equivalence is defined for idempotents")
    if E1.matrix.rows != E2.matrix.rows:
        raise ValueError("idempotents live in different ambients")


def conjugate(E: TensorOperator, sigma) -> TensorOperator:
    """(sigma (x) sigma) E (sigma^{-1} (x) sigma^{-1}) for a Perm sigma."""
    s = sigma.matrix()
    s2 = s.kron(s)
    si = sigma.inverse().matrix()
    return TensorOperator(E.row_dim, E.col_dim, 2, s2 * E.matrix * si.kron(si))


# --- named catalog ------------------------------------------------------------

@dataclass(frozen=True)
class IdempotentSpec:
    """A serializable handle for a catalog operator."""

    family: str
    n: int = 0
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        params = {}
        for key, value in self.params.items():
            if isinstance(value, Fraction):
                params[key] = format_rat(value)
            elif key in ("qhat",):
                params[key] = [[format_rat(rat(x)) for x in row] for row in value]
            else:
                params[key] = value
        return {"family": self.family, "n": self.n, "params": params}

    @staticmethod
    def from_json(doc) -> "IdempotentSpec":
        if not isinstance(doc, dict):
            raise InvalidParameter("an idempotent spec must be a JSON object")
        family, n, params = doc.get("family"), doc.get("n", 0), doc.get("params", {})
        if not isinstance(family, str):
            raise InvalidParameter("an idempotent spec needs a string 'family'")
        if isinstance(n, bool) or not isinstance(n, (int, str)):
            raise InvalidParameter(f"spec 'n' must be an integer, got {n!r}")
        if not isinstance(params, dict):
            raise InvalidParameter("spec 'params' must be a JSON object")
        return IdempotentSpec(family, int(n), dict(params))

    def param(self, key: str):
        try:
            return self.params[key]
        except KeyError:
            raise InvalidParameter(
                f"family {self.family} needs the parameter {key!r}") from None


FAMILIES = (
    "A_n", "S_n", "P_n", "Aq", "Pq", "Aqhat", "Atilde_qhat",
    "RhatPlus", "RhatMinus", "B_n", "Btilde_n", "FourParam", "Lie", "Custom",
)

# families whose build() output is an idempotent (P_n and Pq are involutions)
IDEMPOTENT_FAMILIES = tuple(f for f in FAMILIES if f not in ("P_n", "Pq"))

# families whose size is the spec's n rather than a parameter
SIZED_FAMILIES = ("A_n", "S_n", "P_n", "Aq", "Pq", "RhatPlus", "RhatMinus",
                  "B_n", "Btilde_n")


def build(spec: IdempotentSpec) -> TensorOperator:
    family, n, param = spec.family, spec.n, spec.param
    if family in SIZED_FAMILIES and n < 1:
        raise InvalidParameter(f"family {family} needs a local dimension n >= 1, got {n}")
    if family == "A_n":
        return antisymmetrizer(n)
    if family == "S_n":
        return symmetrizer(n)
    if family == "P_n":
        return permutation_op(n)
    if family == "Aq":
        return q_antisymmetrizer(n, param("q"))
    if family == "Pq":
        return q_permutation_op(n, param("q"))
    if family == "Aqhat":
        return parameterized_antisymmetrizer(param("qhat"))
    if family == "Atilde_qhat":
        return twisted_antisymmetrizer(param("qhat"))
    if family == "RhatPlus":
        return hecke_plus(n, param("q"))
    if family == "RhatMinus":
        return hecke_minus(n, param("q"))
    if family == "B_n":
        return orthogonal_idempotent(n)
    if family == "Btilde_n":
        return symplectic_idempotent(n)
    if family == "FourParam":
        return fourparam_idempotent(param("a"), param("b"), param("c"),
                                    spec.params.get("kappa", 0))
    if family == "Lie":
        brackets = {}
        for i, j, k, cval in param("brackets"):
            brackets.setdefault((int(i), int(j)), {})[int(k)] = rat(cval)
        return lie_idempotent(brackets, int(param("dim")))
    if family == "Custom":
        m = QMatrix.from_strings(param("matrix"))
        if m.rows != m.cols:
            raise InvalidParameter("custom operator must be square")
        loc = round(m.rows ** 0.5)
        if loc * loc != m.rows:
            raise InvalidParameter("custom operator must act on a tensor square")
        return TensorOperator(loc, loc, 2, m)
    raise InvalidParameter(f"unknown family {family!r}")
