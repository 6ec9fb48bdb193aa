"""Construction and verification of the higher pairing idempotents.

For an idempotent A the k-th S-operator is killed by every adjacent copy of
A and fixes the degree-k component of the algebra presented by A; the k-th
A-operator plays the dual role for S = 1 - A.  Both are unique when they
exist.  Four constructions are provided:

* ``generic_pairing``   dual bases of the intersection subspaces,
* ``group_average``     uniform average over the group generated by the
                        signed adjacent flips,
* ``hecke_pairing``     the q-symmetrizer of the R-matrix split,
* ``brauer_pairing``    Jucys-Murphy products for the orthogonal and
                        symplectic idempotents,

plus closed-form entries for the multi-parameter deformation and the
rank-one third operator of the 3-dimensional 4-parameter family.  The group
and Hecke routes share one kernel: both factor their (q-)symmetrizer over
the coset representatives of S_{j-1} in S_j through ``tensor.coset_sum``.
``build_pairing`` maps a catalog family and a method name to its route; the
``pairing`` command and the cross-validation suite both call it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm

from .idempotents import (InvalidParameter, check_parameter_matrix,
                          fourparam_idempotent, hecke_minus, hecke_r_matrix,
                          is_idempotent, orthogonal_idempotent,
                          parameterized_antisymmetrizer, rank_one_contraction,
                          symplectic_idempotent, twisted_rank_one_contraction,
                          uniform_parameter_matrix)
from .linalg import ONE, ZERO, Record, SparseEchelon, rat
from .permutations import _inversions, stabilizer_order, weighted_words
from .quadratic import component_subspaces
from .tensor import (TensorOperator, _canonical, _check_power, _fixes_rows, _row_times,
                     _transpose, coset_sum, embed, flatten_index, multi_indices,
                     swap_operator)


class BraidRelationFailed(ValueError):
    """1 - 2E does not satisfy the braid relation."""


class PairingOperator(Record):
    """The pairing operator of ``kind`` ("S" or "A") and ``arity`` that
    belongs to the idempotent ``source``, with the route that built it."""

    __slots__ = _fields = ("kind", "arity", "source", "operator", "provenance")

    def __init__(self, kind: str, arity: int, source: TensorOperator,
                 operator: TensorOperator, provenance: str):
        _check_kind(kind)
        super().__init__(kind, arity, source, operator, provenance)


def _check_kind(kind: str):
    if kind not in ("S", "A"):
        raise ValueError("kind must be 'S' or 'A'")


def _check_route(kind: str, k: int):
    """The entry check of every route that takes a kind, before any work."""
    _check_kind(kind)
    if k < 1:
        raise ValueError("arity starts at 1")


class NotExists(Record):
    """Report that no pairing operator of this kind/arity exists."""

    __slots__ = _fields = ("kind", "arity", "reason", "details")

    def __init__(self, kind: str, arity: int, reason: str, details: dict | None = None):
        super().__init__(kind, arity, reason, {} if details is None else details)

    def __bool__(self):
        return False


# --- generic construction (dual bases) ----------------------------------------

def generic_pairing(E: TensorOperator, k: int, kind: str):
    """Dual-basis construction from the intersection subspaces.

    With v_a the basis vectors of the right subspace and xi_b the basis
    covectors of the left one, both as integer rows, the operator is
    sum_a v_a w_a over the covectors w_a dual to the v_a (w_a v_c = 1 if
    a = c, else 0).  One integer echelon gives them: the rows
    [G_b | xi_b] with G_b = xi_b V^T (V having the rows v_a), fully
    reduced, have one lead in each of the first d columns exactly when the
    Gram matrix G is invertible, and the row with lead a < d is then
    c_a (e_a | w_a) for a positive integer c_a.  With den = lcm(c_a) the
    operator is V^T W over den, W having the rows (den / c_a) (c_a w_a).
    ``_row_times`` forms every row of G and of V^T W.  At k = 1 both
    subspaces are the whole space, which gives the identity, and a zero
    component gives the zero operator.  Returns NotExists naming the
    failing condition when the dimensions differ or the natural pairing is
    degenerate.  E must be an idempotent.
    """
    _check_route(kind, k)
    _check_idempotent(E)
    right, left = component_subspaces(E, k, kind)
    if right.dim != left.dim:
        return NotExists(kind, k, "dimension mismatch",
                         {"right_dim": right.dim, "left_dim": left.dim})
    d = right.dim
    # V^T: column i of V, the rows v_a, as {a: v_a[i]}
    columns = _transpose(enumerate(right.rows.values()))
    ech = SparseEchelon()
    for xi in left.rows.values():
        ech.insert({**_row_times(xi, columns), **{d + j: x for j, x in xi.items()}})
    duals = ech.reduced_integer_rows()
    gram_rank = sum(lead < d for lead in duals)
    if gram_rank < d:
        return NotExists(kind, k, "degenerate natural pairing",
                         {"dim": d, "gram_rank": gram_rank})
    den = lcm(*(row[a] for a, row in duals.items()))
    ws = {}
    for a, row in duals.items():
        m = den // row[a]
        ws[a] = {j - d: m * x for j, x in row.items() if j != a}
    num = {i: row for i, col in columns.items() if (row := _row_times(col, ws))}
    n = E.row_dim
    return PairingOperator(kind, k, E, _canonical(n, n, k, num, den), "generic")


def _check_idempotent(E: TensorOperator):
    if E.arity != 2 or not E.square or not is_idempotent(E):
        raise InvalidParameter("pairing operators are defined for arity-2 idempotents")


# --- group average -------------------------------------------------------------

def braid_relation_holds(P: TensorOperator) -> bool:
    b1, b2 = _placements(P, 3)
    return b1 * b2 * b1 == b2 * b1 * b2


def group_average(E: TensorOperator, k: int, kind: str) -> PairingOperator:
    """Uniform average over the group generated by the signed flips.

    P = 1 - 2E must satisfy the braid relation.  E must be an idempotent,
    so P is an involution and s_a -> (+P)^{(a,a+1)} (kind S) or
    (-P)^{(a,a+1)} (kind A) is a representation rho of S_k.  Every element
    of the image is hit |ker rho| times, so the average over the image is
    (1/k!) sum_{sigma in S_k} rho(sigma), which ``_coset_recursion`` builds
    with all weights 1 and op_j = (1/j) sum of the coset words times
    op_{j-1}.  No group element is enumerated; the tensor budget bounds the
    arity.
    """
    _check_route(kind, k)
    _check_idempotent(E)
    n = E.row_dim
    _check_power(n, k)
    P = TensorOperator.identity(n, 2) - E.scale(2)
    if not braid_relation_holds(P):
        raise BraidRelationFailed("1 - 2E fails the braid relation")
    signed = P if kind == "S" else -P
    avg = _coset_recursion(signed, k, lambda j: [1] * j, lambda j: Fraction(1, j))
    return PairingOperator(kind, k, E, avg, "group_average")


def _coset_recursion(g: TensorOperator, k: int, weights, scale) -> TensorOperator:
    """op_k from op_1 = 1 by op_j = coset_sum(op_{j-1} (x) 1, g, scale(j)
    weights(j)): the coset factorization of a (q-)symmetrizer over S_j into
    the words of ``tensor.coset_sum`` times the one over S_{j-1}.  The
    level's scale rides in the weights, so each level ends in the one gcd
    pass of ``coset_sum``."""
    op = TensorOperator.identity(g.row_dim, 1)
    for j in range(2, k + 1):
        op = coset_sum(embed(op, j, 1), g, [w * scale(j) for w in weights(j)])
    return op


# --- Hecke recursion -----------------------------------------------------------

def q_int(k: int, q: Fraction) -> Fraction:
    """k_q = q^{k-1} + q^{k-3} + ... + q^{1-k}."""
    return sum((q ** (k - 1 - 2 * t) for t in range(k)), ZERO)


def q_factorial(k: int, q: Fraction) -> Fraction:
    out = ONE
    for j in range(1, k + 1):
        out *= q_int(j, q)
    return out


def hecke_pairing(q, n: int, k: int, kind: str) -> PairingOperator:
    """S_(k) / A_(k) for the idempotent R^(hat)_- as the q-symmetrizer.

    [j]_q S_(j) = sum_{i<j} q^{j-1-i} R^(j-i) ... R^(j-1) (S_(j-1) (x) 1)
    over the minimal coset representatives of S_{j-1} in S_j (Gyoja 1986;
    Jimbo 1986), built by ``_coset_recursion``; A_(j) takes the weights
    (-1)^i q^{i+1-j}.  At k = 2 this is the R-matrix split itself.
    """
    _check_route(kind, k)
    _check_power(n, k)
    q = rat(q)
    source = hecke_minus(n, q)
    R = hecke_r_matrix(n, q)
    if kind == "S":
        weights = lambda j: [q ** (j - 1 - i) for i in range(j)]
    else:
        weights = lambda j: [(-1) ** i * q ** (i + 1 - j) for i in range(j)]
    op = _coset_recursion(R, k, weights, lambda j: 1 / q_int(j, q))
    return PairingOperator(kind, k, source, op, "hecke")


def hecke_basis_change(n: int, k: int, q) -> TensorOperator:
    """The diagonal change G_[k] with A'_(k) = G_[k] A_(k), where A'_(k) is
    the closed-form operator for the one-parameter antisymmetrizer and
    A_(k) the Hecke one.

    On a repetition-free multi-index that is sigma applied to its sorted
    tuple the entry is (k_q!/k!) q^{2 inv - k(k-1)/2}, inv counting its
    inverted digit pairs; indices with a repeated digit carry 1.
    """
    q = rat(q)
    _check_power(n, k)
    out = {}
    norm = q_factorial(k, q) / factorial(k)
    shift = Fraction(k * (k - 1), 2)
    for pos, index in enumerate(multi_indices(n, k)):
        if len(set(index)) < k:
            out[pos] = {pos: ONE}
        else:
            out[pos] = {pos: norm * q ** (2 * len(_inversions(index)) - shift)}
    return TensorOperator(n, n, k, out)


# --- Brauer products -----------------------------------------------------------

def jucys_murphy(n: int, k: int, b: int, twisted: bool) -> TensorOperator:
    """Y_b = sum_{a<b} (P - Q)^{(ab)} or its symplectic twin
    Y~_b = sum_{a<b} (Q~ - P)^{(ab)}."""
    P = swap_operator(n)
    diff = twisted_rank_one_contraction(n) - P if twisted else P - rank_one_contraction(n)
    return sum((embed(diff, k, (a, b)) for a in range(1, b)), TensorOperator.zero(n, k))


def brauer_pairing(family: str, n: int, k: int) -> PairingOperator:
    """S^{so_n}_(k) for B_n or A^{sp_n}_(k) for B~_n via Jucys-Murphy
    products; 'so' gives kind S, 'sp' gives kind A (n even, k <= n/2 + 1)."""
    if family not in ("so", "sp"):
        raise ValueError("family must be 'so' or 'sp'")
    kind = "S" if family == "so" else "A"
    _check_route(kind, k)
    if family == "so":
        source, omega, twisted = orthogonal_idempotent(n), n, False
    else:
        if n % 2:
            raise InvalidParameter("the symplectic family needs even n")
        if k > n // 2 + 1:
            raise InvalidParameter("symplectic arity is limited to n/2 + 1")
        source, omega, twisted = symplectic_idempotent(n), -n, True
    op = TensorOperator.identity(n, k)
    for b in range(2, k + 1):
        denom = rat(2 * b + omega - 4)
        if not denom:
            raise InvalidParameter("vanishing denominator in the product")
        y = jucys_murphy(n, k, b, twisted)
        shifted = y + TensorOperator.identity(n, k).scale(rat(omega + b - 3))
        op = op * (y + TensorOperator.identity(n, k)) * shifted.scale(1 / denom)
    op = op.scale(Fraction(1, factorial(k)))
    return PairingOperator(kind, k, source, op, "brauer")


# --- closed-form multi-parameter entries ---------------------------------------

def closed_form_multiparam(qhat, k: int, kind: str) -> PairingOperator:
    """Entrywise S- and A-operators for the multi-parameter antisymmetrizer.

    A-entries are supported on repetition-free tuples sharing a sorted
    tuple I: (1/k!) sgn(sigma) sgn(tau) mu(q_II, sigma) / mu(q_II, tau).
    S-entries on rearrangements of a weakly increasing I:
    (nu_I / k!) mu(q_II, sigma) / mu(q_II, tau).

    Each distinct word w of each sorted I gets one weight from
    ``weighted_words``, sign and mu read off w's own inverted letter pairs,
    so the work follows the nonzero rows, at most n^k, and not the k!
    permutations of each I.
    """
    _check_route(kind, k)
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    source = parameterized_antisymmetrizer(rows)
    _check_power(n, k)
    tuples = itertools.combinations if kind == "A" else itertools.combinations_with_replacement
    blocks = []
    for I in tuples(range(1, n + 1), k):
        weights = {flatten_index(word, n): (sign if kind == "A" else 1, mu)
                   for word, sign, mu in weighted_words(rows, I)}
        blocks.append((stabilizer_order(I), weights))
    return PairingOperator(kind, k, source, _rank_one_blocks(n, k, blocks), "closed_form")


def _rank_one_blocks(n: int, k: int, blocks) -> TensorOperator:
    """The arity-k operator on C^n that is (c / k!) u v^T on the positions
    of each block (c, {position: (sign, mu)}), with u = sign * mu and
    v = sign / mu, written as integer numerators over one denominator.

    A block writes u as integers U over the lcm du of the denominators of
    its mu, and v as integers V over the lcm dv of their numerators, so its
    entries are c U_s V_t over k! du dv; every block is brought to the lcm
    of those denominators.
    """
    kfact = factorial(k)
    parts, den = [], 1
    for c, weights in blocks:
        du = lcm(*(mu.denominator for _, mu in weights.values()))
        dv = lcm(*(mu.numerator for _, mu in weights.values()))
        u = {pos: sign * mu.numerator * (du // mu.denominator)
             for pos, (sign, mu) in weights.items()}
        v = {pos: sign * mu.denominator * (dv // mu.numerator)
             for pos, (sign, mu) in weights.items()}
        block_den = kfact * du * dv
        parts.append((c, u, v, block_den))
        den = lcm(den, block_den)
    num = {}
    for c, u, v, block_den in parts:
        scale = c * (den // block_den)
        for s, us in u.items():
            a = scale * us
            num[s] = {t: a * vt for t, vt in v.items()}
    return _canonical(n, n, k, num, den)


# --- 4-parameter third operator -------------------------------------------------

def fourparam_conditions(a, b, c, kappa) -> dict:
    """The three coupled conditions of the 3-dimensional classification."""
    a, b, c, kappa = rat(a), rat(b), rat(c), rat(kappa)
    cond_i = a * a == b * b == c * c
    cond_ii = (a ** 4 * b ** 2 == -1 and b ** 4 * c ** 2 == -1
               and c ** 4 * a ** 2 == -1 and kappa ** 3 == -(a ** 3) * c / b)
    cond_iii = (a ** 4 * c ** 2 == -1 and b ** 4 * a ** 2 == -1
                and c ** 4 * b ** 2 == -1 and kappa ** 3 == c / (a ** 3 * b))
    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii}


def fourparam_xi3_dimension(a, b, c, kappa) -> int:
    """Predicted dim of the degree-3 dual-Grassmann component.

    For kappa != 0 the condition logic applies: 3 if all three conditions
    hold, 1 if exactly one does, else 0.  At kappa = 0 the family
    degenerates to the multi-parameter antisymmetrizer, whose component is
    always one-dimensional.
    """
    if not rat(kappa):
        return 1
    conds = fourparam_conditions(a, b, c, kappa)
    count = sum(conds.values())
    if count == 3:
        return 3
    if count == 1:
        return 1
    return 0


def fourparam_A3(a, b, c, kappa):
    """The rank-one third A-operator w_1 w^1, existing iff condition (i)
    holds alone; kappa = 0 degenerates to the multi-parameter case."""
    a, b, c, kappa = rat(a), rat(b), rat(c), rat(kappa)
    if not (a and b and c):
        raise InvalidParameter("a, b, c must be nonzero")
    if not kappa:
        qhat = [[ONE, a * a, 1 / (c * c)],
                [1 / (a * a), ONE, b * b],
                [c * c, 1 / (b * b), ONE]]
        return closed_form_multiparam(qhat, 3, "A")
    conds = fourparam_conditions(a, b, c, kappa)
    if not (conds["i"] and not conds["ii"] and not conds["iii"]):
        return NotExists("A", 3, "the single-condition branch does not hold",
                         {"conditions": conds})
    source = fourparam_idempotent(a, b, c, kappa)
    w1 = [ZERO] * 27
    sixth = Fraction(1, 6)
    for cyc in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        w1[flatten_index(cyc, 3)] = sixth
    for acyc in ((1, 3, 2), (2, 1, 3), (3, 2, 1)):
        w1[flatten_index(acyc, 3)] = -(a * a) * sixth
    w1cov = [ZERO] * 27
    for cyc in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        w1cov[flatten_index(cyc, 3)] = ONE
    for acyc in ((1, 3, 2), (2, 1, 3), (3, 2, 1)):
        w1cov[flatten_index(acyc, 3)] = -1 / (a * a)
    w1cov[flatten_index((1, 1, 1), 3)] = -kappa / b
    w1cov[flatten_index((2, 2, 2), 3)] = -kappa / c
    w1cov[flatten_index((3, 3, 3), 3)] = -kappa / a
    op = {r: {s: x * y for s, y in enumerate(w1cov) if y}
          for r, x in enumerate(w1) if x}
    return PairingOperator("A", 3, source, TensorOperator(3, 3, 3, op),
                           "closed_form")


# --- the route of each family and method ---------------------------------------

METHODS = ("generic", "group", "hecke", "brauer", "closed")
BRAUER_FAMILIES = {"B_n": ("so", "S"), "Btilde_n": ("sp", "A")}  # group, kind given


def build_pairing(spec, E: TensorOperator, k: int, kind: str, method: str):
    """The ``kind`` operator of arity k of the catalog idempotent E that
    ``spec`` names, built by ``method``: 'generic' and 'group' take any E
    (the group route needs 1 - 2E to satisfy the braid relation), 'hecke'
    serves RhatMinus, 'brauer' B_n (kind S) and Btilde_n (kind A), 'closed'
    A_n, Aq, Aqhat and FourParam (its third A-operator); else ValueError."""
    if method == "generic":
        return generic_pairing(E, k, kind)
    if method == "group":
        return group_average(E, k, kind)
    if method == "hecke":
        if spec.family not in ("RhatMinus",):
            raise ValueError("the Hecke recursion serves the RhatMinus family")
        return hecke_pairing(rat(spec.params["q"]), spec.n, k, kind)
    if method == "brauer":
        if spec.family not in BRAUER_FAMILIES:
            raise ValueError("the Brauer products serve the B_n / Btilde_n families")
        group, given = BRAUER_FAMILIES[spec.family]
        if kind != given:
            raise ValueError(f"the Brauer products give {spec.family} kind {given}, not {kind}")
        return brauer_pairing(group, spec.n, k)
    if method == "closed":
        if spec.family == "Aqhat":
            return closed_form_multiparam(spec.params["qhat"], k, kind)
        if spec.family in ("A_n", "Aq"):   # A_n is Aq at q = 1
            return closed_form_multiparam(
                uniform_parameter_matrix(spec.n, spec.params.get("q", 1)), k, kind)
        if spec.family == "FourParam":
            if k != 3 or kind != "A":
                raise ValueError("the 4-parameter closed form is the third A-operator")
            p = spec.params
            return fourparam_A3(p["a"], p["b"], p["c"], p.get("kappa", 0))
        raise ValueError("no closed form for this family")
    raise ValueError(f"method must be one of {METHODS}")


# --- axiom verification ----------------------------------------------------------

def verify_axioms(p: PairingOperator, partner: PairingOperator | None = None,
                  lower=()) -> dict:
    """Check the defining conditions of a pairing operator.

    Reported axioms: adjacent annihilation, the fixed-vector conditions in
    their intersection-subspace form, idempotency, orthogonality against the
    partner of the other kind (if given), and the nesting identities against
    lower-arity operators (if given).  Values are True/False, or None when a
    check was not applicable.

    No operator product is formed: every identity is decided row by row
    through ``tensor._fixes_rows``.  An identity X op = op is checked as
    (1 - X) op = 0, so every check but the fixed vectors and idempotency is
    an annihilation.
    """
    E = p.source
    n = E.row_dim
    k = p.arity
    op = p.operator
    killer = E if p.kind == "S" else TensorOperator.identity(n, 2) - E
    report = {"annihilation": _kills(killer, op)}

    right, left = component_subspaces(E, k, p.kind)
    report["fixed_vectors"] = fixes_subspaces(op, right, left)

    # annihilation puts every column of op in right and the fixed vectors
    # make op the identity there, which together give op op = op
    report["idempotent"] = ((report["annihilation"] and report["fixed_vectors"])
                            or is_idempotent(op))

    if partner is not None and k >= 2:
        if partner.kind == p.kind or partner.arity != k:
            raise ValueError("orthogonality needs the other kind at the same arity")
        report["orthogonality"] = _annihilates(partner.operator, op)
    else:
        report["orthogonality"] = None

    # op is killed by the windows of a lower operator of the other kind
    # (skipped at arity 1) and absorbs those of the same kind, that is, is
    # killed by the windows of 1 - q, since embed(1 - q) = 1 - embed(q)
    report["nesting"] = all(
        _kills(TensorOperator.identity(n, q.arity) - q.operator if q.kind == p.kind
               else q.operator, op)
        for q in lower if q.arity < k and (q.kind == p.kind or q.arity >= 2)
    ) if lower else None

    report["pass"] = all(v for v in report.values() if v is not None)
    return report


def _placements(q: TensorOperator, k: int):
    """q embedded at every window of adjacent legs of the k-th power."""
    return (embed(q, k, a) for a in range(1, k - q.arity + 2))


def _kills(q: TensorOperator, op: TensorOperator) -> bool:
    """Every window of q annihilates op from both sides."""
    return all(_annihilates(e, op) for e in _placements(q, op.arity))


def _annihilates(e: TensorOperator, op: TensorOperator) -> bool:
    """e op = 0 and op e = 0: each row of e times op and each row of op
    times e is zero (``_fixes_rows`` at den = 0), so neither product is
    formed."""
    return _fixes_rows(e.num.values(), op.num, 0) and _fixes_rows(op.num.values(), e.num, 0)


def fixes_subspaces(op: TensorOperator, right, left) -> bool:
    """op pi = pi for every basis vector pi of the Subspace right, and
    xi op = xi for every basis covector xi of left: xi num = den xi on the
    integer basis rows, and the same for the transpose."""
    return (_fixes_rows(right.rows.values(), op.transpose().num, op.den)
            and _fixes_rows(left.rows.values(), op.num, op.den))


def corrupt(p: PairingOperator, row: int = 0, col: int = 0) -> PairingOperator:
    """Perturb one entry by +1; a negative control for verify_axioms."""
    op = p.operator
    bump = TensorOperator(op.row_dim, op.col_dim, p.arity, {row: {col: 1}})
    return PairingOperator(p.kind, p.arity, p.source, op + bump, p.provenance)
