"""Named verification suites.

One manifest drives both the command line (``verify-suite``) and the
acceptance test module, so they cannot drift apart.  Every item is a
callable returning (ok, detail); items are deterministic and exact.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb

from . import idempotents as idem
from .freealg import Gen, NCPoly, generator_matrix, poly_grid_product, poly_mat_mul
from .ideals import PresentedAlgebra, free_presentation
from .manin import (ManinPair, cross_commutators, is_manin, product_is_manin,
                    double_manin_matches_commutators, rll_matches_double_qmanin,
                    submatrix, universal_relations)
from .minors import (a_minor, col_permuted, det_qhat, inversion_parameter_product,
                     perm_qhat, row_permuted, verify_identity,
                     verify_matrix_identity)
from .pairing import (BraidRelationFailed, NotExists, PairingOperator,
                      braid_relation_holds, brauer_pairing, build_pairing,
                      closed_form_multiparam, corrupt, fourparam_A3, group_average,
                      hecke_basis_change, hecke_pairing, q_factorial, verify_axioms)
from .permutations import (NonReducedWord, all_perms, inv,
                           inversion_set_from_reduced_word, stabilizer_order)
from .quadratic import QuadAlgebra, dimension_table
from .scenarios import (bcd_report, fourparam_report, lie_seed,
                        orthogonal_dim_formula, symplectic_dim_formula)
from .tensor import TensorOperator, embed, flatten_index, swap_operator

Q = Fraction
GENERIC_VALUES = (Q(2), Q(3), Q(1, 2), Q(1, 3))


def generic_parameter_matrix(n: int, offset: int = 0):
    """A deterministic parameter matrix with entries cycling through
    {2, 3, 1/2, 1/3} above the diagonal."""
    rows = [[Q(1)] * n for _ in range(n)]
    pos = offset
    for i in range(n):
        for j in range(i + 1, n):
            v = GENERIC_VALUES[pos % len(GENERIC_VALUES)]
            pos += 1
            rows[i][j] = v
            rows[j][i] = 1 / v
    return rows


# ---------------------------------------------------------------------------
# criterion 1: idempotent catalog
# ---------------------------------------------------------------------------

def catalog_instances():
    out = []
    for n in (2, 3, 4):
        out.append((f"A_{n}", idem.antisymmetrizer(n)))
        out.append((f"S_{n}", idem.symmetrizer(n)))
        out.append((f"Aq_{n}", idem.q_antisymmetrizer(n, 2)))
        out.append((f"Aqhat_{n}", idem.parameterized_antisymmetrizer(
            generic_parameter_matrix(n))))
        out.append((f"Atilde_qhat_{n}", idem.twisted_antisymmetrizer(
            generic_parameter_matrix(n, offset=1))))
        out.append((f"RhatPlus_{n}", idem.hecke_plus(n, 2)))
        out.append((f"RhatMinus_{n}", idem.hecke_minus(n, 2)))
        out.append((f"B_{n}", idem.orthogonal_idempotent(n)))
        if n % 2 == 0:
            out.append((f"Btilde_{n}", idem.symplectic_idempotent(n)))
    out.append(("FourParam", idem.fourparam_idempotent(2, 3, Q(1, 2), 1)))
    out.append(("Lie_sl2", idem.lie_idempotent(idem.sl2_brackets(), 3)))
    return out


def check_catalog():
    bad = []
    catalog = catalog_instances()
    for name, E in catalog:
        if not idem.is_idempotent(E):
            bad.append(f"{name}: not idempotent")
        if E.row_space().dim != E.trace():
            bad.append(f"{name}: rank != trace")
    return not bad, "; ".join(bad) or f"{len(catalog)} instances"


# ---------------------------------------------------------------------------
# criterion 2: Hecke structure
# ---------------------------------------------------------------------------

def check_hecke_braid(n: int):
    return braid_relation_holds(idem.hecke_r_matrix(n, Q(2))), f"n={n}"


def check_hecke_relation(n: int):
    q = Q(2)
    R = idem.hecke_r_matrix(n, q)
    one = TensorOperator.identity(n, 2)
    ok = ((R - one.scale(1 / q)) * (R + one.scale(q))).is_zero()
    return ok, f"n={n}"


def check_hecke_split(n: int):
    Rp, Rm = idem.hecke_plus(n, Q(2)), idem.hecke_minus(n, Q(2))
    one = TensorOperator.identity(n, 2)
    ok = (Rp + Rm == one and idem.is_idempotent(Rp) and idem.is_idempotent(Rm)
          and (Rp * Rm).is_zero() and (Rm * Rp).is_zero())
    return ok, f"n={n}"


def check_hecke_equivalences(n: int):
    q = Q(2)
    Rm = idem.hecke_minus(n, q)
    P = swap_operator(n)
    Aq = idem.q_antisymmetrizer(n, q)
    Aqi = idem.q_antisymmetrizer(n, 1 / q)
    two_q = q + 1 / q
    checks = [
        Rm == (P * idem.q_permutation_op(n, q) - P).scale(1 / two_q),
        Rm == (Aqi * P).scale(-2 / two_q),
        idem.left_equivalent(Aq, Rm),
        idem.right_equivalent(Rm, Aqi),
        Aq * Aqi == (Aq * P).scale(-two_q / 2),
        Aqi * Aq == (P * Aq).scale(-two_q / 2),
    ]
    return all(checks), f"n={n}, failed={[i for i, c in enumerate(checks) if not c]}"


# ---------------------------------------------------------------------------
# criterion 3: graded dimensions
# ---------------------------------------------------------------------------

def check_multiparam_dims():
    bad = []
    for n in (2, 3):
        E = idem.parameterized_antisymmetrizer(generic_parameter_matrix(n))
        x_dims = dimension_table(QuadAlgebra(E, "X"), 4)
        xi_dims = dimension_table(QuadAlgebra(E, "Xi"), 4)
        for k, (dx, dxi) in enumerate(zip(x_dims, xi_dims)):
            if dx != comb(k + n - 1, k):
                bad.append(f"X n={n} k={k}: {dx}")
            if dxi != comb(n, k):
                bad.append(f"Xi n={n} k={k}: {dxi}")
    return not bad, "; ".join(bad) or "binomial tables match"


def check_bcd_dims():
    bad = []
    for n in (3, 4):
        E = idem.orthogonal_idempotent(n)
        for k, d in enumerate(dimension_table(QuadAlgebra(E, "X"), 3)):
            if d != orthogonal_dim_formula(n, k):
                bad.append(f"X_B n={n} k={k}: {d}")
    E = idem.symplectic_idempotent(4)
    xi_dims = dimension_table(QuadAlgebra(E, "Xi"), 3)
    for k, d in enumerate(xi_dims):
        if d != symplectic_dim_formula(4, k):
            bad.append(f"Xi_Btilde n=4 k={k}: {d}")
    if xi_dims[3] != 0:
        bad.append("Xi_Btilde4 degree 3 nonzero")
    return not bad, "; ".join(bad) or "orthogonal/symplectic tables match"


# ---------------------------------------------------------------------------
# criterion 4: pairing-operator cross-validation
# ---------------------------------------------------------------------------

def pairing_constructions(tag: str, n: int, k: int, kind: str):
    """All applicable constructions for one idempotent instance, each built
    by ``pairing.build_pairing``, the dispatch of the ``pairing`` command."""
    params = {"A_n": {}, "Aqhat": {"qhat": generic_parameter_matrix(n)},
              "RhatMinus": {"q": Q(2)}}[tag]
    spec = idem.IdempotentSpec(tag, n, params)
    E = idem.build(spec)
    methods = ("generic", "hecke") if tag == "RhatMinus" else ("generic", "group", "closed")
    return {method: build_pairing(spec, E, k, kind, method) for method in methods}


def check_pairing_cross_validation():
    bad = []
    for tag in ("A_n", "Aqhat", "RhatMinus"):
        for n in (2, 3):
            built = {}
            for kind in ("S", "A"):
                for k in (2, 3):
                    ops = pairing_constructions(tag, n, k, kind)
                    mats = {name: op.operator for name, op in ops.items()
                            if isinstance(op, PairingOperator)}
                    names = sorted(mats)
                    for a, b in itertools.combinations(names, 2):
                        if mats[a] != mats[b]:
                            bad.append(f"{tag} n={n} k={k} {kind}: {a} != {b}")
                    built[(kind, k)] = ops
            # axiom sweep with orthogonality partner and nesting operators
            for kind in ("S", "A"):
                other = "A" if kind == "S" else "S"
                for k in (2, 3):
                    for name, op in built[(kind, k)].items():
                        if not isinstance(op, PairingOperator):
                            continue
                        partner = built[(other, k)].get(name)
                        lower = [built[(kd, 2)][name] for kd in ("S", "A")
                                 if k == 3 and name in built[(kd, 2)]]
                        rep = verify_axioms(op, partner=partner, lower=lower)
                        if not rep["pass"]:
                            bad.append(f"{tag} n={n} k={k} {kind} {name}: {rep}")
    return not bad, "; ".join(bad[:4]) or "all constructions agree and pass axioms"


# ---------------------------------------------------------------------------
# criterion 5: Brauer operators
# ---------------------------------------------------------------------------

def check_brauer_base_cases():
    bad = []
    for n in (3, 4):
        s2 = brauer_pairing("so", n, 2)
        expected = TensorOperator.identity(n, 2) - idem.orthogonal_idempotent(n)
        if s2.operator != expected:
            bad.append(f"so n={n}: S_(2) != 1 - B_n")
    for n in (2, 4):
        a2 = brauer_pairing("sp", n, 2)
        if a2.operator != idem.symplectic_idempotent(n):
            bad.append(f"sp n={n}: A_(2) != Btilde_n")
    if not brauer_pairing("sp", 4, 3).operator.is_zero():
        bad.append("sp n=4: A_(3) nonzero")
    return not bad, "; ".join(bad) or "base cases match"


def check_brauer_traces():
    bad = []
    for n in (3, 4):
        for k in (1, 2, 3):
            tr = brauer_pairing("so", n, k).operator.trace()
            expect = Q(n + 2 * k - 2, n + k - 2) * comb(n + k - 2, k) if k else Q(1)
            if tr != expect:
                bad.append(f"so n={n} k={k}: {tr} != {expect}")
    for k in (1, 2, 3):
        tr = brauer_pairing("sp", 4, k).operator.trace()
        expect = Q(4 - 2 * k + 2, k) * comb(5, k - 1)
        if tr != expect:
            bad.append(f"sp n=4 k={k}: {tr} != {expect}")
    return not bad, "; ".join(bad) or "traces match the closed formulas"


def check_brauer_defining_relations():
    """The diagram-algebra relations hold under both representations."""
    bad = []
    for n in (3, 4):
        P = swap_operator(n)
        for twisted in (False, True):
            if twisted and n % 2:
                continue
            Qop = (idem.twisted_rank_one_contraction(n) if twisted
                   else idem.rank_one_contraction(n))
            sgn = -1 if twisted else 1
            omega = -n if twisted else n
            k = 3
            s = [None] + [embed(P, k, a).scale(sgn) for a in (1, 2)]
            e = [None] + [embed(Qop, k, a).scale(sgn) for a in (1, 2)]
            one = TensorOperator.identity(n, k)
            checks = [
                s[1] * s[1] == one,
                e[1] * e[1] == e[1].scale(omega),
                s[1] * e[1] == e[1] and e[1] * s[1] == e[1],
                s[1] * s[2] * s[1] == s[2] * s[1] * s[2],
                e[1] * e[2] * e[1] == e[1],
                e[2] * e[1] * e[2] == e[2],
                s[1] * e[2] * e[1] == s[2] * e[1],
                e[2] * e[1] * s[2] == e[2] * s[1],
            ]
            if not all(checks):
                bad.append(f"n={n} twisted={twisted}: "
                           f"{[i for i, c in enumerate(checks) if not c]}")
    return not bad, "; ".join(bad) or "relations hold under both representations"


# ---------------------------------------------------------------------------
# criterion 6: universal identity battery
# ---------------------------------------------------------------------------

def check_rll_relation_spaces():
    bad = [f"n={n}" for n in (2, 3)
           if not rll_matches_double_qmanin(n, n, Q(2))]
    return not bad, "; ".join(bad) or "relation spaces coincide"


def check_commutator_span():
    bad = [f"n={n}" for n in (2, 3) if not double_manin_matches_commutators(n, n)]
    return not bad, "; ".join(bad) or "commutator spans coincide"


def check_row_law():
    bad = []
    for k in (2, 3):
        qhat = generic_parameter_matrix(k)
        M = generator_matrix("M", k, k)
        for tau in all_perms(k):
            lhs = det_qhat(idem.conjugate_parameter_matrix(qhat, tau),
                           row_permuted(M, tau))
            rhs = det_qhat(qhat, M).scale(
                tau.sign() * inversion_parameter_product(qhat, tau))
            if lhs != rhs:
                bad.append(f"k={k} tau={tau.images}")
    return not bad, "; ".join(bad) or "free-algebra identity holds"


def _universal_multiparam(k: int):
    qhat = generic_parameter_matrix(k)
    phat = generic_parameter_matrix(k, offset=2)
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(phat))
    return qhat, phat, universal_relations(pair)


def check_column_law():
    bad = []
    for k in (2, 3):
        qhat, phat, uni = _universal_multiparam(k)
        alg = uni.algebra()
        M = generator_matrix("M", k, k)
        for tau in all_perms(k):
            lhs = det_qhat(qhat, col_permuted(M, tau))
            rhs = det_qhat(qhat, M).scale(
                Q(tau.sign()) / inversion_parameter_product(phat, tau))
            if not verify_identity(lhs, rhs, alg):
                bad.append(f"k={k} tau={tau.images}")
    return not bad, "; ".join(bad) or "column law holds modulo the ideal"


def check_repeated_column():
    qhat, phat, uni = _universal_multiparam(3)
    alg = uni.algebra()
    M = generator_matrix("M", 3, 3)
    bad = []
    for I in itertools.permutations((1, 2, 3), 2):
        for j in (1, 2, 3):
            d = det_qhat(idem.restrict_parameter_matrix(qhat, I),
                         submatrix(M, I, (j, j)))
            if not verify_identity(d, NCPoly.zero(), alg):
                bad.append(f"I={I} j={j}")
    return not bad, "; ".join(bad) or "repeated-column determinants vanish"


def check_conjugation_laws():
    qhat, phat, uni = _universal_multiparam(2)
    alg = uni.algebra()
    M = generator_matrix("M", 2, 2)
    bad = []
    for sigma in all_perms(2):
        for tau in all_perms(2):
            smt = row_permuted(col_permuted(M, tau), sigma)
            factor = (inversion_parameter_product(qhat, sigma)
                      / inversion_parameter_product(phat, tau))
            dl = det_qhat(idem.conjugate_parameter_matrix(qhat, sigma), smt)
            dr = det_qhat(qhat, M).scale(
                Q(sigma.sign() * tau.sign()) * factor)
            pl = perm_qhat(idem.conjugate_parameter_matrix(phat, tau), smt)
            pr = perm_qhat(phat, M).scale(factor)
            if not verify_identity(dl, dr, alg):
                bad.append(f"det {sigma.images} {tau.images}")
            if not verify_identity(pl, pr, alg):
                bad.append(f"perm {sigma.images} {tau.images}")
    return not bad, "; ".join(bad) or "scaled det/perm conjugation laws hold"


def check_submatrix_closure():
    qhat, phat, uni = _universal_multiparam(3)
    alg = uni.algebra()
    M = generator_matrix("M", 3, 3)
    bad = []
    tuples = list(itertools.product((1, 2, 3), repeat=2))
    for I in tuples:
        for J in tuples:
            pair = ManinPair(
                idem.parameterized_antisymmetrizer(
                    idem.restrict_parameter_matrix(qhat, I)),
                idem.parameterized_antisymmetrizer(
                    idem.restrict_parameter_matrix(phat, J)))
            if not is_manin(pair, submatrix(M, I, J), alg):
                bad.append(f"I={I} J={J}")
    return not bad, "; ".join(bad[:3]) or "submatrices inherit the Manin property"


def _tensor_product_setup():
    """Universal M, N over U_{qhat,phat} (x) U_{phat,rhat} at (2, 3, 5)."""
    qhat = idem.uniform_parameter_matrix(2, 2)
    phat = idem.uniform_parameter_matrix(2, 3)
    rhat = idem.uniform_parameter_matrix(2, 5)
    pair_mn = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                        idem.parameterized_antisymmetrizer(phat))
    pair_nl = ManinPair(idem.parameterized_antisymmetrizer(phat),
                        idem.parameterized_antisymmetrizer(rhat))
    return (qhat, phat, rhat, pair_mn, pair_nl) + _product_ambient(pair_mn, pair_nl)


def _product_ambient(pair_mn, pair_nl):
    """The generator matrices M of U_{pair_mn} and N of U_{pair_nl}, and the
    algebra that their relations present together with every entry of M
    commuting with every entry of N: the ambient of the product M N."""
    M = generator_matrix("M", pair_mn.n, pair_mn.m)
    N = generator_matrix("N", pair_nl.n, pair_nl.m)
    gens, polys = (), []
    for pair, symbol in ((pair_mn, "M"), (pair_nl, "N")):
        uni = universal_relations(pair, symbol)
        g = len(uni.gens)
        gens += uni.gens
        polys += [NCPoly({(uni.gens[pos // g], uni.gens[pos % g]): c for pos, c in row.items()})
                  for row in uni.space.rows.values()]
    return M, N, PresentedAlgebra.from_polys(gens, polys + cross_commutators(M, N))


def check_cauchy_binet_det():
    qhat, phat, rhat, _, _, Mg, Ng, ambient = _tensor_product_setup()
    K = poly_mat_mul(Mg, Ng)
    I = L = (1, 2)
    lhs = det_qhat(idem.restrict_parameter_matrix(qhat, I), submatrix(K, I, L))
    rhs = (det_qhat(idem.restrict_parameter_matrix(qhat, I), submatrix(Mg, I, (1, 2)))
           * det_qhat(idem.restrict_parameter_matrix(phat, (1, 2)),
                      submatrix(Ng, (1, 2), L)))
    ok = verify_identity(lhs, rhs, ambient)
    return ok, "k=2, parameters (2, 3, 5)"


def check_cauchy_binet_perm():
    qhat, phat, rhat, _, _, Mg, Ng, ambient = _tensor_product_setup()
    K = poly_mat_mul(Mg, Ng)
    weak = [(1, 1), (1, 2), (2, 2)]
    bad = []
    for I in weak:
        for L in weak:
            lhs = perm_qhat(idem.restrict_parameter_matrix(rhat, L),
                            submatrix(K, I, L))
            rhs = NCPoly.zero()
            for J in weak:
                term = (perm_qhat(idem.restrict_parameter_matrix(phat, J),
                                  submatrix(Mg, I, J))
                        * perm_qhat(idem.restrict_parameter_matrix(rhat, L),
                                    submatrix(Ng, J, L)))
                rhs = rhs + term.scale(Q(1, stabilizer_order(J)))
            if not verify_identity(lhs, rhs, ambient):
                bad.append(f"I={I} L={L}")
    return not bad, "; ".join(bad) or "9 index pairs verified"


def check_product_of_manin_matrices():
    _, _, _, pair_mn, pair_nl, Mg, Ng, ambient = _tensor_product_setup()
    ok = product_is_manin(pair_mn, pair_nl, Mg, Ng, ambient)
    return ok, "universal (2,3,5) product passes at degree 4"


def check_product_plain():
    p = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    return product_is_manin(p, p, *_product_ambient(p, p)), "universal (A_2, A_2, A_2)"


# ---------------------------------------------------------------------------
# criterion 7: Hecke/q minor transport
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _hecke_antisymmetrizers(n: int, k: int) -> tuple:
    """A_(k) at q = 2 from the Hecke route and from the closed form at the
    uniform parameter matrix.  The three heckeminor items share them, and
    ``run_suite`` clears the memo, so each is built once per run."""
    q = Q(2)
    return (hecke_pairing(q, n, k, "A").operator,
            closed_form_multiparam(idem.uniform_parameter_matrix(n, q), k, "A").operator)


def check_g_transport():
    bad = []
    q = Q(2)
    for n in (2, 3):
        for k in (1, 2, 3):
            Ah, Acf = _hecke_antisymmetrizers(n, k)
            G = hecke_basis_change(n, k, q)
            if G * Ah != Acf:
                bad.append(f"n={n} k={k}")
    return not bad, "; ".join(bad) or "A'_(k) = G_[k] A_(k) entrywise"


def check_minor_transport():
    bad = []
    q = Q(2)
    for n in (2, 3):
        phat = generic_parameter_matrix(n, offset=2)
        pair = ManinPair(idem.hecke_minus(n, q),
                         idem.parameterized_antisymmetrizer(phat))
        alg = universal_relations(pair).algebra()
        M = generator_matrix("M", n, n)
        Ah, Acf = _hecke_antisymmetrizers(n, 2)
        G = hecke_basis_change(n, 2, q)
        lhs = a_minor(M, Acf, 2)
        rhs = poly_grid_product(a_minor(M, Ah, 2), left=G)
        if not verify_matrix_identity(lhs, rhs, alg):
            bad.append(f"n={n}")
    return not bad, "; ".join(bad) or "minor operators transport through G_[2]"


def check_minor_entry_agreement():
    """Shared-basis entries of the two A-minor operators coincide."""
    bad = []
    for n in (2, 3):
        phat = generic_parameter_matrix(n, offset=2)
        M = generator_matrix("M", n, n)
        Ah, Acf = _hecke_antisymmetrizers(n, 2)
        Atld = closed_form_multiparam(phat, 2, "A").operator
        # entry (I, J) of (2 A') Min Atilde contracts a minor grid with row I
        # of 2 A' and column J of Atilde
        two_acf = Acf.scale(2)
        min_h = poly_grid_product(a_minor(M, Ah, 2), two_acf, Atld)
        min_c = poly_grid_product(a_minor(M, Acf, 2), two_acf, Atld)
        for I in itertools.combinations(range(1, n + 1), 2):
            for J in itertools.combinations(range(1, n + 1), 2):
                i, j = flatten_index(I, n), flatten_index(J, n)
                if min_h[i][j] != min_c[i][j]:
                    bad.append(f"n={n} I={I} J={J}")
    return not bad, "; ".join(bad) or "basis entries coincide"


def check_inversion_generating_function():
    q = Q(2)
    bad = []
    for k in range(1, 6):
        lhs = sum(q ** (-2 * inv(s)) for s in all_perms(k))
        rhs = q ** (-(k * (k - 1) // 2)) * q_factorial(k, q)
        if lhs != rhs:
            bad.append(f"k={k}")
    return not bad, "; ".join(bad) or "holds for k <= 5 at q = 2"


# ---------------------------------------------------------------------------
# criterion 8: 4-parametric classification
# ---------------------------------------------------------------------------

FOURPARAM_GRID = [
    (1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 3, Q(1, 2)), (Q(1, 2), Q(1, 2), Q(1, 2), 1),
    (2, -2, 2, 1), (-1, 1, -1, 2), (1, 1, -1, 1), (5, 5, 5, 3),
    (1, 2, 3, 1), (2, 3, 5, 1), (1, 1, 2, 1), (2, 1, 1, Q(1, 2)),
    (1, 2, 1, 1), (3, 1, 1, 2), (1, 3, 1, 1), (1, 1, 3, 1),
    (Q(1, 3), 2, 1, 1), (2, 3, Q(1, 2), 5), (1, 2, 2, 3), (2, 2, 1, 1),
    (2, 2, 2, 0), (1, 2, 3, 0), (1, 1, 1, Q(2, 3)), (4, 4, 4, 7),
]


def check_fourparam_grid():
    bad = []
    for a, b, c, kappa in FOURPARAM_GRID:
        rep = fourparam_report(a, b, c, kappa)
        if not rep.passed:
            failing = [k for k, v in rep.checks.items() if not v]
            bad.append(f"({a},{b},{c},{kappa}): {failing}")
    return not bad, "; ".join(bad[:3]) or f"{len(FOURPARAM_GRID)} grid points"


def check_fourparam_a3_branch():
    bad = []
    for a, b, c, kappa in FOURPARAM_GRID:
        op = fourparam_A3(a, b, c, kappa)
        if isinstance(op, NotExists):
            continue
        rep = verify_axioms(op)
        if not rep["pass"]:
            bad.append(f"({a},{b},{c},{kappa}): {rep}")
    return not bad, "; ".join(bad) or "all constructed third operators pass"


# ---------------------------------------------------------------------------
# criterion 9: BCD predicates
# ---------------------------------------------------------------------------

def check_bcd_reports():
    bad = []
    for family, n in (("D", 2), ("B", 3), ("C", 2), ("C", 4), ("D", 4)):
        rep = bcd_report(family, n)
        if not rep.passed:
            failing = [k for k, v in rep.checks.items() if not v]
            bad.append(f"{family}{n}: {failing}")
    return not bad, "; ".join(bad) or "type B/C/D reports pass"


def check_lie_seed():
    _, rep = lie_seed(idem.sl2_brackets(), 3)
    dims_ok = rep.data["X_dims"] == [1, 4, 10]
    return rep.passed and dims_ok and rep.data["jacobi_holds"], str(rep.data)


def check_lie_jacobi_blind():
    """Degree-2 construction accepts non-Lie antisymmetric constants."""
    brackets = {(1, 2): {1: 1}, (2, 1): {1: -1},
                (1, 3): {2: 1}, (3, 1): {2: -1}}
    _, rep = lie_seed(brackets, 3)
    return rep.passed and not rep.data["jacobi_holds"], str(rep.data)


# ---------------------------------------------------------------------------
# criterion 10: negative controls
# ---------------------------------------------------------------------------

def check_free_matrix_fails():
    gens = (Gen("a"), Gen("b"), Gen("c"), Gen("d"))
    M = [[NCPoly.generator(gens[0]), NCPoly.generator(gens[1])],
         [NCPoly.generator(gens[2]), NCPoly.generator(gens[3])]]
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    return not is_manin(pair, M, free_presentation(gens)), \
        "free 2x2 rejected by the (A_2, A_2) check"


def check_corrupted_operator_fails():
    op = hecke_pairing(Q(2), 2, 2, "S")
    rep = verify_axioms(corrupt(op))
    return not rep["idempotent"], "perturbed entry breaks idempotency"


def check_nonreduced_word_rejected():
    try:
        inversion_set_from_reduced_word((1, 1), 2)
    except NonReducedWord:
        return True, "word (1, 1) rejected"
    return False, "non-reduced word accepted"


def check_group_cap_detected():
    try:
        group_average(idem.hecke_minus(2, Q(2)), 3, "A")
    except BraidRelationFailed as exc:
        return True, f"non-closing generators reported: {type(exc).__name__}"
    return False, "group average accepted a non-braid idempotent"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

SUITES = {
    "catalog": [
        ("catalog.idempotency_and_rank", check_catalog),
    ],
    "hecke": [
        ("hecke.braid_n2", lambda: check_hecke_braid(2)),
        ("hecke.braid_n3", lambda: check_hecke_braid(3)),
        ("hecke.relation_n2", lambda: check_hecke_relation(2)),
        ("hecke.relation_n3", lambda: check_hecke_relation(3)),
        ("hecke.split_n2", lambda: check_hecke_split(2)),
        ("hecke.split_n3", lambda: check_hecke_split(3)),
        ("hecke.equivalences_n2", lambda: check_hecke_equivalences(2)),
        ("hecke.equivalences_n3", lambda: check_hecke_equivalences(3)),
    ],
    "dims": [
        ("dims.multiparam_binomials", check_multiparam_dims),
        ("dims.bcd_formulas", check_bcd_dims),
    ],
    "pairing": [
        ("pairing.cross_validation", check_pairing_cross_validation),
    ],
    "brauer": [
        ("brauer.base_cases", check_brauer_base_cases),
        ("brauer.traces", check_brauer_traces),
        ("brauer.defining_relations", check_brauer_defining_relations),
    ],
    "determinants": [
        ("determinants.rll_relation_spaces", check_rll_relation_spaces),
        ("determinants.commutator_span", check_commutator_span),
        ("determinants.row_law", check_row_law),
        ("determinants.column_law", check_column_law),
        ("determinants.repeated_column", check_repeated_column),
        ("determinants.conjugation_laws", check_conjugation_laws),
        ("determinants.submatrix_closure", check_submatrix_closure),
    ],
    "cauchybinet": [
        ("cauchybinet.det", check_cauchy_binet_det),
        ("cauchybinet.perm", check_cauchy_binet_perm),
        ("cauchybinet.product_manin", check_product_of_manin_matrices),
        ("cauchybinet.product_plain", check_product_plain),
    ],
    "heckeminor": [
        ("heckeminor.g_transport", check_g_transport),
        ("heckeminor.minor_transport", check_minor_transport),
        ("heckeminor.entry_agreement", check_minor_entry_agreement),
        ("heckeminor.inversion_gf", check_inversion_generating_function),
    ],
    "fourparam": [
        ("fourparam.grid_classification", check_fourparam_grid),
        ("fourparam.a3_axioms", check_fourparam_a3_branch),
    ],
    "bcd": [
        ("bcd.reports", check_bcd_reports),
        ("bcd.lie_sl2", check_lie_seed),
        ("bcd.lie_jacobi_blind", check_lie_jacobi_blind),
    ],
    "negative": [
        ("negative.free_matrix", check_free_matrix_fails),
        ("negative.corrupted_operator", check_corrupted_operator_fails),
        ("negative.nonreduced_word", check_nonreduced_word_rejected),
        ("negative.group_cap", check_group_cap_detected),
    ],
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(name: str):
    """Run a named suite; returns a list of (item_id, ok, detail)."""
    if name == "all":
        items = [item for suite in SUITES.values() for item in suite]
    elif name in SUITES:
        items = SUITES[name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    _hecke_antisymmetrizers.cache_clear()
    results = []
    for item_id, fn in items:
        ok, detail = fn()
        results.append((item_id, bool(ok), detail))
    return sorted(results)
