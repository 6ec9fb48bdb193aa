"""Construction and verification of the higher pairing idempotents.

For an idempotent A the k-th S-operator is killed by every adjacent copy of
A and fixes the degree-k component of the algebra presented by A; the k-th
A-operator plays the dual role for S = 1 - A.  Both are unique when they
exist.  Four constructions are provided:

* ``generic_pairing``   dual bases of the intersection subspaces,
* ``group_average``     uniform average over the group generated by the
                        signed adjacent flips (finite groups only),
* ``hecke_pairing``     the q-symmetrizer recursion for the R-matrix split,
* ``brauer_pairing``    Jucys-Murphy products for the orthogonal and
                        symplectic idempotents,

plus closed-form entries for the multi-parameter deformation and the
rank-one third operator of the 3-dimensional 4-parameter family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm

from .idempotents import (InvalidParameter, check_parameter_matrix,
                          fourparam_idempotent, hecke_minus, hecke_r_matrix,
                          is_idempotent, orthogonal_idempotent,
                          parameterized_antisymmetrizer, rank_one_contraction,
                          symplectic_idempotent, twisted_rank_one_contraction)
from .linalg import ONE, ZERO, SparseEchelon, rat
from .permutations import Perm, all_perms, inv, mu_of_rows, stabilizer_order
from .quadratic import component_subspaces
from .tensor import (TensorOperator, _canonical, _fixes_rows, _row_times, check_budget,
                     embed, embed_pair, flatten_index, multi_indices, swap_operator)

DEFAULT_GROUP_CAP = 100000


class BraidRelationFailed(ValueError):
    """1 - 2E does not satisfy the braid relation."""


class GroupEnumerationExceeded(ValueError):
    """The group generated by the signed flips did not close under the cap."""


@dataclass(frozen=True)
class PairingOperator:
    kind: str                 # "S" | "A"
    arity: int
    source: TensorOperator    # the idempotent the operator belongs to
    operator: TensorOperator
    provenance: str

    def __post_init__(self):
        if self.kind not in ("S", "A"):
            raise ValueError("kind must be 'S' or 'A'")


@dataclass(frozen=True)
class NotExists:
    """Report that no pairing operator of this kind/arity exists."""

    kind: str
    arity: int
    reason: str
    details: dict = field(default_factory=dict)

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
    ``_row_times`` forms every row of G and of V^T W.  Returns NotExists
    naming the failing condition when the dimensions differ or the natural
    pairing is degenerate.  E must be an idempotent.
    """
    n = E.row_dim
    if k < 1:
        raise ValueError("arity starts at 1")
    _check_idempotent(E)
    if k == 1:
        return PairingOperator(kind, 1, E, TensorOperator.identity(n, 1), "generic")
    right, left = component_subspaces(E, k, kind)
    if right.dim != left.dim:
        return NotExists(kind, k, "dimension mismatch",
                         {"right_dim": right.dim, "left_dim": left.dim})
    d = right.dim
    if d == 0:
        return PairingOperator(kind, k, E, TensorOperator.zero(n, k), "generic")
    # V^T: column i of V, the rows v_a, as {a: v_a[i]}
    columns = {}
    for a, v in enumerate(right.rows.values()):
        for i, x in v.items():
            columns.setdefault(i, {})[a] = x
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
    return PairingOperator(kind, k, E, _canonical(n, n, k, num, den), "generic")


def _check_idempotent(E: TensorOperator):
    if E.arity != 2 or not E.square or not is_idempotent(E):
        raise InvalidParameter("pairing operators are defined for arity-2 idempotents")


# --- group average -------------------------------------------------------------

def braid_relation_holds(P: TensorOperator) -> bool:
    b1 = embed(P, 3, 1)
    b2 = embed(P, 3, 2)
    return b1 * b2 * b1 == b2 * b1 * b2


def group_average(E: TensorOperator, k: int, kind: str,
                  cap: int = DEFAULT_GROUP_CAP) -> PairingOperator:
    """Uniform average over the group generated by the signed flips.

    P = 1 - 2E must satisfy the braid relation; the closure of the group
    generated by (+P)^{(a,a+1)} (kind S) or (-P)^{(a,a+1)} (kind A) is
    enumerated with a cap and averaged.  E must be an idempotent; then P is
    an involution, so the group is a quotient of S_k and the cap binds only
    when k! exceeds it.
    """
    if k < 1:
        raise ValueError("arity starts at 1")
    _check_idempotent(E)
    n = E.row_dim
    P = TensorOperator.identity(n, 2) - E.scale(2)
    if not braid_relation_holds(P):
        raise BraidRelationFailed("1 - 2E fails the braid relation")
    if k == 1:
        return PairingOperator(kind, 1, E, TensorOperator.identity(n, 1),
                               "group_average")
    signed = P if kind == "S" else -P
    gens = [embed(signed, k, a) for a in range(1, k)]
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
                        raise GroupEnumerationExceeded(
                            f"group did not close within {cap} elements")
                    seen[h] = None
                    new_frontier.append(h)
        frontier = new_frontier
    total = TensorOperator.zero(n, k)
    for g in seen:
        total = total + g
    avg = total.scale(Fraction(1, len(seen)))
    return PairingOperator(kind, k, E, avg, "group_average")


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
    """S_(k) / A_(k) for the idempotent R^(hat)_- via the q-symmetrizer
    recursion; the base case k = 2 returns the R-matrix split itself."""
    if k < 1:
        raise ValueError("arity starts at 1")
    q = rat(q)
    if q in (0, 1, -1):
        raise InvalidParameter("q must avoid {0, 1, -1}")
    source = hecke_minus(n, q)
    R = hecke_r_matrix(n, q)
    sign = 1 if kind == "S" else -1
    op = TensorOperator.identity(n, 1)
    for j in range(2, k + 1):
        prev = embed(op, j, 1)
        kq = q_int(j, q)
        head = prev.scale(q ** (sign * (j - 1)) / kq)
        tail = (prev * embed(R, j, j - 1) * prev).scale(q_int(j - 1, q) / kq)
        op = head + tail if sign > 0 else head - tail
    return PairingOperator(kind, k, source, op, "hecke")


def hecke_basis_change(n: int, k: int, q) -> TensorOperator:
    """The diagonal change G_[k] with A'_(k) = G_[k] A_(k), where A'_(k) is
    the closed-form operator for the one-parameter antisymmetrizer and
    A_(k) the Hecke one.

    On a repetition-free multi-index that is sigma applied to its sorted
    tuple the entry is (k_q!/k!) q^{2 inv(sigma) - k(k-1)/2}; indices with a
    repeated digit carry 1.
    """
    q = rat(q)
    check_budget(n ** k)
    out = {}
    norm = q_factorial(k, q) / factorial(k)
    shift = Fraction(k * (k - 1), 2)
    for pos, index in enumerate(multi_indices(n, k)):
        if len(set(index)) < k:
            out[pos] = {pos: ONE}
        else:
            ranks = sorted(range(k), key=lambda t: index[t])
            sigma = Perm(tuple(t + 1 for t in ranks)).inverse()
            # index[t] = sorted(index)[sigma(t+1)-1]
            out[pos] = {pos: norm * q ** (2 * inv(sigma) - shift)}
    return TensorOperator(n, n, k, out)


# --- Brauer products -----------------------------------------------------------

def jucys_murphy(n: int, k: int, b: int, twisted: bool) -> TensorOperator:
    """Y_b = sum_{a<b} (P^{(ab)} - Q^{(ab)}) or its symplectic twin
    Y~_b = -sum_{a<b} (P^{(ab)} - Q~^{(ab)})."""
    P = swap_operator(n)
    Q = twisted_rank_one_contraction(n) if twisted else rank_one_contraction(n)
    total = TensorOperator.zero(n, k)
    for a in range(1, b):
        total = total + embed_pair(P, k, a, b) - embed_pair(Q, k, a, b)
    return -total if twisted else total


def brauer_pairing(family: str, n: int, k: int) -> PairingOperator:
    """S^{so_n}_(k) for B_n or A^{sp_n}_(k) for B~_n via Jucys-Murphy
    products; 'so' gives kind S, 'sp' gives kind A (n even, k <= n/2 + 1)."""
    if family not in ("so", "sp"):
        raise ValueError("family must be 'so' or 'sp'")
    if k < 1:
        raise ValueError("arity starts at 1")
    if family == "so":
        source, omega, twisted, kind = orthogonal_idempotent(n), n, False, "S"
    else:
        if n % 2:
            raise InvalidParameter("the symplectic family needs even n")
        if k > n // 2 + 1:
            raise InvalidParameter("symplectic arity is limited to n/2 + 1")
        source, omega, twisted, kind = symplectic_idempotent(n), -n, True, "A"
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
    """
    if k < 1:
        raise ValueError("arity starts at 1")
    rows = check_parameter_matrix(qhat)
    n = len(rows)
    source = parameterized_antisymmetrizer(rows)
    check_budget(n ** k)
    blocks = []
    if kind == "A":
        for I in itertools.combinations(range(1, n + 1), k):
            qII = [[rows[a - 1][b - 1] for b in I] for a in I]
            weights = {}
            for sigma in all_perms(k):
                tup = tuple(I[sigma(t) - 1] for t in range(1, k + 1))
                weights[flatten_index(tup, n)] = (sigma.sign(), mu_of_rows(qII, sigma))
            blocks.append((1, weights))
    elif kind == "S":
        for I in itertools.combinations_with_replacement(range(1, n + 1), k):
            qII = [[rows[a - 1][b - 1] for b in I] for a in I]
            weights = {}
            for sigma in all_perms(k):
                pos = flatten_index(tuple(I[sigma(t) - 1] for t in range(1, k + 1)), n)
                if pos not in weights:
                    weights[pos] = (1, mu_of_rows(qII, sigma))
            blocks.append((stabilizer_order(I), weights))
    else:
        raise ValueError("kind must be 'S' or 'A'")
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


# --- axiom verification ----------------------------------------------------------

def verify_axioms(p: PairingOperator, partner: PairingOperator | None = None,
                  lower=()) -> dict:
    """Check the defining conditions of a pairing operator.

    Reported axioms: adjacent annihilation, the fixed-vector conditions in
    their intersection-subspace form, idempotency, orthogonality against the
    partner of the other kind (if given), and the nesting identities against
    lower-arity operators (if given).  Values are True/False, or None when a
    check was not applicable.
    """
    E = p.source
    n = E.row_dim
    k = p.arity
    op = p.operator
    killer = E if p.kind == "S" else TensorOperator.identity(n, 2) - E
    report = {}
    ann = True
    for a in range(1, k):
        emb = embed(killer, k, a)
        if not (emb * op).is_zero() or not (op * emb).is_zero():
            ann = False
            break
    report["annihilation"] = ann

    right, left = component_subspaces(E, k, p.kind)
    report["fixed_vectors"] = fixes_subspaces(op, right, left)

    # annihilation puts every column of op in right and the fixed vectors
    # make op the identity there, which together give op op = op
    report["idempotent"] = (ann and report["fixed_vectors"]) or (op * op) == op

    if partner is not None and k >= 2:
        if partner.kind == p.kind or partner.arity != k:
            raise ValueError("orthogonality needs the other kind at the same arity")
        prod1 = op * partner.operator
        prod2 = partner.operator * op
        report["orthogonality"] = prod1.is_zero() and prod2.is_zero()
    else:
        report["orthogonality"] = None

    if lower:
        nest = True
        for q in lower:
            ell = q.arity
            if ell >= k:
                continue
            for a in range(1, k - ell + 2):
                emb = embed(q.operator, k, a)
                if q.kind == p.kind:
                    if emb * op != op or op * emb != op:
                        nest = False
                elif ell >= 2:
                    if not (emb * op).is_zero() or not (op * emb).is_zero():
                        nest = False
        report["nesting"] = nest
    else:
        report["nesting"] = None

    report["pass"] = all(v for v in report.values() if v is not None)
    return report


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
