"""Catalog of idempotents on C^n (x) C^n and equivalence predicates.

Each constructor returns an arity-2 :class:`TensorOperator`.  The catalog
covers the (anti)symmetrizers, their one- and multi-parameter deformations,
the Hecke R-matrix split, the orthogonal/symplectic idempotents built from
the rank-one contraction, the 3-dimensional 4-parameter family, and the
idempotent attached to a Lie algebra's structure constants.

Two idempotents are left equivalent iff their row spaces agree, right
equivalent iff their column spaces agree; left-equivalent idempotents
present the same quadratic algebra.  Constructors write the sparse rows of
their operators directly.  ``check_parameter_matrix`` validates a parameter
matrix once into a ``ParameterMatrix``; restriction, conjugation and every
consumer take one as it is.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .linalg import ONE, QMatrix, Record, Subspace, ZERO, _lead_one, format_rat, rat
from .tensor import (TensorOperator, _canonical, _check_power, _fixes_rows, _make,
                     flatten_index, multi_indices, swap_operator)


class InvalidParameter(ValueError):
    """Constructor parameters violate a family invariant."""


def sgn(k: int) -> int:
    return (k > 0) - (k < 0)


def rational_grid(value, what: str) -> list:
    """Rows of rationals from a QMatrix or a list of lists."""
    if isinstance(value, QMatrix):
        return [row[:] for row in value.data]
    if not (isinstance(value, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in value)):
        raise InvalidParameter(f"{what} must be a list of lists, got {value!r}")
    return [[rat(x) for x in row] for row in value]


def parse_integer(value, what: str) -> int:
    """An integer given as a JSON number or an integer string."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidParameter(f"{what} must be an integer, got {value!r}")


def parse_brackets(rows) -> dict:
    """Structure constants from [i, j, k, c] rows: [x^i, x^j] = ... + c x^k."""
    if not isinstance(rows, list):
        raise InvalidParameter(f"'brackets' must be a list of [i, j, k, c] rows, got {rows!r}")
    brackets = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise InvalidParameter(f"bracket row {row!r} is not an [i, j, k, c] list")
        i, j, k = (parse_integer(x, "a bracket index") for x in row[:3])
        brackets.setdefault((i, j), {})[k] = rat(row[3])
    return brackets


class ParameterMatrix(tuple):
    """Row tuples of Fractions that ``check_parameter_matrix`` passed, or a
    restriction or conjugation of such rows: valid without a second check."""

    __slots__ = ()


def check_parameter_matrix(qhat) -> ParameterMatrix:
    """Validate q_ii = 1, q_ij = q_ji^{-1}, entries nonzero; return the
    rows as a ParameterMatrix, or a ParameterMatrix unchanged.

    Each pair i < j is visited once, in the order of a row-by-row scan that
    checks the diagonal of each row first, so the first error is the one
    that scan meets."""
    if isinstance(qhat, ParameterMatrix):
        return qhat
    rows = rational_grid(qhat, "a parameter matrix")
    n = len(rows)
    if not rows or any(len(r) != n for r in rows):
        raise InvalidParameter("parameter matrix must be square and non-empty")
    for i, row in enumerate(rows):
        if row[i] != 1:
            raise InvalidParameter("parameter matrix needs unit diagonal")
        for j in range(i + 1, n):
            q = row[j]
            if not q:
                raise InvalidParameter("parameter matrix entries must be nonzero")
            # q_ij * q_ji = 1, cross-multiplied on numerators and denominators
            p = rows[j][i]
            if q.numerator * p.numerator != q.denominator * p.denominator:
                raise InvalidParameter("parameter matrix needs q_ij * q_ji = 1")
    return ParameterMatrix(map(tuple, rows))


def uniform_parameter_matrix(n: int, q) -> list:
    """q^{[n]}: entries q^{sgn(j-i)}."""
    q = rat(q)
    if not q:
        raise InvalidParameter("q must be nonzero")
    return [[q ** sgn(j - i) for j in range(n)] for i in range(n)]


def conjugate_parameter_matrix(qhat, sigma) -> ParameterMatrix:
    """(sigma qhat sigma^{-1})_{ij} = q_{sigma^{-1}(i), sigma^{-1}(j)}: qhat
    restricted to (sigma^{-1}(1), ..., sigma^{-1}(n))."""
    rows = check_parameter_matrix(qhat)
    if sigma.size != len(rows):
        raise InvalidParameter(f"a permutation of {sigma.size} points does not act on "
                               f"a {len(rows)} x {len(rows)} parameter matrix")
    return restrict_parameter_matrix(rows, sorted(range(1, len(rows) + 1), key=sigma))


def restrict_parameter_matrix(qhat, index_tuple) -> ParameterMatrix:
    """qhat_II: entry (s,t) is q_{i_s i_t}, for a non-empty I in 1..n."""
    rows = check_parameter_matrix(qhat)
    I = tuple(index_tuple)
    if not I:
        raise InvalidParameter("parameter matrix must be square and non-empty")
    if not all(1 <= a <= len(rows) for a in I):
        raise InvalidParameter(f"index tuple {I!r} leaves 1..{len(rows)}")
    return ParameterMatrix(tuple(rows[a - 1][b - 1] for b in I) for a in I)


# --- constructors -------------------------------------------------------------

def antisymmetrizer(n: int) -> TensorOperator:
    return (TensorOperator.identity(n, 2) - swap_operator(n)).scale(Fraction(1, 2))


def symmetrizer(n: int) -> TensorOperator:
    return (TensorOperator.identity(n, 2) + swap_operator(n)).scale(Fraction(1, 2))


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
    return TensorOperator(n, n, 2, {
        flatten_index((j, i), n): {flatten_index((i, j), n): rows[i - 1][j - 1]}
        for i in range(1, n + 1) for j in range(1, n + 1)})


def parameterized_antisymmetrizer(qhat) -> TensorOperator:
    """A_qhat = (1 - P_qhat)/2; presents x^j x^i = q_ij x^i x^j.

    Written row by row as integers over 2 * L, L the least common
    denominator of qhat's entries: for a != b, row (a, b) is L at (a, b)
    and -q_ba * L at (b, a); the rows (a, a) vanish.
    """
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    _check_power(n, 2)
    common = lcm(*(q.denominator for row in rows for q in row))
    num = {}
    for a in range(n):
        for b in range(n):
            if a != b:
                q = rows[b][a]
                num[a * n + b] = {a * n + b: common,
                                  b * n + a: -q.numerator * (common // q.denominator)}
    return _canonical(n, n, 2, num, 2 * common)


def twisted_antisymmetrizer(qhat) -> TensorOperator:
    """A~_qhat from the cross-relation-only presentation: the flip picks up
    a sign (-1)^{delta_ij} so the squares psi_i^2 stay free, that is
    A~_qhat = A_qhat + sum_i E_ii (x) E_ii."""
    base = parameterized_antisymmetrizer(qhat)
    n = base.row_dim
    squares = [flatten_index((i, i), n) for i in range(1, n + 1)]
    return base + TensorOperator(n, n, 2, {d: {d: ONE} for d in squares})


def hecke_r_matrix(n: int, q) -> TensorOperator:
    """R^(hat), the braid form of the standard gl_n R-matrix."""
    q = rat(q)
    if q in (0, 1, -1):
        raise InvalidParameter("q must avoid {0, 1, -1}")
    qi = 1 / q
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # the flip e_j (x) e_i -> e_i (x) e_j, scaled by q^{-1} when i == j
            row = out[flatten_index((i, j), n)] = {flatten_index((j, i), n): qi if i == j else ONE}
            if i < j:
                row[flatten_index((i, j), n)] = qi - q
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
    cols = [flatten_index((k, n + 1 - k), n) for k in range(1, n + 1)]
    return TensorOperator(n, n, 2, {row: dict.fromkeys(cols, ONE) for row in cols})


def twisted_rank_one_contraction(n: int) -> TensorOperator:
    """Q~_n, the symplectic variant weighted by eps_i eps_k."""
    if n % 2:
        raise InvalidParameter("the symplectic contraction needs even n")
    eps = lambda i: 1 if i <= n // 2 else -1
    return TensorOperator(n, n, 2, {
        flatten_index((i, n + 1 - i), n): {flatten_index((k, n + 1 - k), n): eps(i) * eps(k)
                                           for k in range(1, n + 1)}
        for i in range(1, n + 1)})


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
    P = {}
    for i in range(1, 4):
        for j in range(1, 4):
            aji = amat[j - 1][i - 1]
            row = P[flatten_index((i, j), 3)] = {flatten_index((j, i), 3): aji * aji}
            for k in range(1, 4):
                # eps vanishes for i == j, so (k, k) is never the flip column (j, i)
                if (i, j, k) in eps:
                    row[flatten_index((k, k), 3)] = kappa * aji * eps[(i, j, k)]
    E = (TensorOperator.identity(3, 2) - TensorOperator(3, 3, 2, P)).scale(Fraction(1, 2))
    if not is_idempotent(E):
        raise InvalidParameter("parameters fail to square the flip to one")
    return E


def lie_structure_operator(brackets, dim: int) -> TensorOperator:
    """C_g on C^n (x) C^n, n = dim + 1, from structure constants C^{ij}_k.

    brackets maps (i, j) -> {k: C^{ij}_k}; antisymmetry in (i, j) is
    required.  Entries: (C_g)^{ij}_{kl} = C^{ij}_k d_{ln} + C^{ij}_l d_{kn}.
    """
    if dim < 1:
        raise InvalidParameter(f"a Lie algebra needs dim >= 1, got {dim}")
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
    out = {}
    for (i, j, k), v in table.items():
        # k <= dim < n, so the columns (k, n) and (n, k) differ
        row = out.setdefault(flatten_index((i, j), n), {})
        row[flatten_index((k, n), n)] = v
        row[flatten_index((n, k), n)] = v
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
    """E E = E, decided on integers: with E read as numerators num over its
    denominator d, every row n_i of num satisfies n_i num = d n_i."""
    if not E.square:
        raise ValueError("idempotency needs a square operator")
    return _fixes_rows(E.num.values(), E.num, E.den)


def make_idempotent(R: QMatrix) -> TensorOperator:
    """Echelon projector with the same row space as the relation rows R.

    Echelonize R; for pivot columns c_i with echelon rows r_i the operator
    E = sum e_{c_i} r_i is idempotent and rowspace(E) = rowspace(R), so it
    presents the same quadratic algebra as R.
    """
    size = R.cols
    rows = _lead_one(Subspace.from_matrix(R).rows)
    n = isqrt(size)
    if n * n == size:
        return TensorOperator(n, n, 2, rows)
    return TensorOperator(size, size, 1, rows)


def left_equivalent(E1: TensorOperator, E2: TensorOperator) -> bool:
    """Row spaces agree (same X- and Xi-algebra)."""
    _check_equiv_args(E1, E2)
    return E1.row_space() == E2.row_space()


def right_equivalent(E1: TensorOperator, E2: TensorOperator) -> bool:
    """Column spaces agree (same dual algebras)."""
    _check_equiv_args(E1, E2)
    return E1.transpose().row_space() == E2.transpose().row_space()


def _check_equiv_args(E1, E2):
    if not (is_idempotent(E1) and is_idempotent(E2)):
        raise ValueError("equivalence is defined for idempotents")
    if E1.row_dim ** E1.arity != E2.row_dim ** E2.arity:
        raise ValueError("idempotents live in different ambients")


def conjugate(E: TensorOperator, sigma) -> TensorOperator:
    """(sigma (x) sigma) E (sigma^{-1} (x) sigma^{-1}) for a Perm sigma:
    entry ((i, j), (k, l)) of E moves to ((sigma i, sigma j), (sigma k, sigma l))."""
    n = E.row_dim
    if E.arity != 2 or not E.square or sigma.size != n:
        raise ValueError("conjugation needs an arity-2 square operator and a "
                         "permutation of its local basis")
    moved = [flatten_index((sigma(i), sigma(j)), n) for i, j in multi_indices(n, 2)]
    # moving entries keeps them and den, so the form stays canonical
    return _make(n, n, 2, {moved[r]: {moved[c]: x for c, x in row.items()}
                           for r, row in E.num.items()}, E.den)


# --- named catalog ------------------------------------------------------------

class IdempotentSpec(Record):
    """A serializable handle for a catalog operator."""

    __slots__ = _fields = ("family", "n", "params")

    def __init__(self, family: str, n: int = 0, params: dict | None = None):
        super().__init__(family, n, {} if params is None else params)

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "params": _json_value(self.params)}

    @staticmethod
    def from_json(doc) -> "IdempotentSpec":
        if not isinstance(doc, dict):
            raise InvalidParameter("an idempotent spec must be a JSON object")
        family, n, params = doc.get("family"), doc.get("n", 0), doc.get("params", {})
        if not isinstance(family, str):
            raise InvalidParameter("an idempotent spec needs a string 'family'")
        if not isinstance(params, dict):
            raise InvalidParameter("spec 'params' must be a JSON object")
        return IdempotentSpec(family, parse_integer(n, "spec 'n'"), dict(params))

    def param(self, key: str):
        try:
            return self.params[key]
        except KeyError:
            raise InvalidParameter(
                f"family {self.family} needs the parameter {key!r}") from None


def _json_value(value):
    """value with every Fraction, at any depth of lists and dicts, written
    as a 'p' or 'p/q' string."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _custom(spec: IdempotentSpec) -> TensorOperator:
    m = QMatrix.from_rows(rational_grid(spec.param("matrix"), "custom 'matrix'"))
    if m.rows != m.cols:
        raise InvalidParameter("custom operator must be square")
    loc = isqrt(m.rows)
    if loc * loc != m.rows:
        raise InvalidParameter("custom operator must act on a tensor square")
    return TensorOperator(loc, loc, 2, m)


# family -> (the parameters it takes, whether the spec's n sizes it, its
# constructor on the spec); build() refuses any other parameter key
CATALOG = {
    "A_n": ((), True, lambda s: antisymmetrizer(s.n)),
    "S_n": ((), True, lambda s: symmetrizer(s.n)),
    "P_n": ((), True, lambda s: swap_operator(s.n)),
    "Aq": (("q",), True, lambda s: q_antisymmetrizer(s.n, s.param("q"))),
    "Pq": (("q",), True, lambda s: q_permutation_op(s.n, s.param("q"))),
    "Aqhat": (("qhat",), False, lambda s: parameterized_antisymmetrizer(s.param("qhat"))),
    "Atilde_qhat": (("qhat",), False, lambda s: twisted_antisymmetrizer(s.param("qhat"))),
    "RhatPlus": (("q",), True, lambda s: hecke_plus(s.n, s.param("q"))),
    "RhatMinus": (("q",), True, lambda s: hecke_minus(s.n, s.param("q"))),
    "B_n": ((), True, lambda s: orthogonal_idempotent(s.n)),
    "Btilde_n": ((), True, lambda s: symplectic_idempotent(s.n)),
    "FourParam": (("a", "b", "c", "kappa"), False, lambda s: fourparam_idempotent(
        s.param("a"), s.param("b"), s.param("c"), s.params.get("kappa", 0))),
    "Lie": (("brackets", "dim"), False, lambda s: lie_idempotent(
        parse_brackets(s.param("brackets")), parse_integer(s.param("dim"), "'dim'"))),
    "Custom": (("matrix",), False, _custom),
}

FAMILIES = tuple(CATALOG)


def build(spec: IdempotentSpec) -> TensorOperator:
    if spec.family not in CATALOG:
        raise InvalidParameter(f"unknown family {spec.family!r}")
    taken, sized, make = CATALOG[spec.family]
    for key in spec.params:
        if key not in taken:
            raise InvalidParameter(
                f"family {spec.family} takes no parameter {key!r} (it takes "
                f"{', '.join(map(repr, taken)) or 'none'})")
    if sized:
        if spec.n < 1:
            raise InvalidParameter(
                f"family {spec.family} needs a local dimension n >= 1, got {spec.n}")
        _check_power(spec.n, 2)
    return make(spec)
