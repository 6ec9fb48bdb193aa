"""Named scenario builders tying the catalog together.

Each report re-runs the underlying operations and records every number and
verdict it prints, so reports are reproducible by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .freealg import NCPoly
from .idempotents import (antisymmetrizer, is_idempotent,
                          lie_idempotent, lie_structure_operator,
                          orthogonal_idempotent, rank_one_contraction,
                          symplectic_idempotent, twisted_rank_one_contraction,
                          fourparam_idempotent)
from .ideals import span_of_polys
from .linalg import Record, rat
from .manin import (ManinPair, orthogonal_pair_relations,
                    symplectic_pair_relations, universal_relations)
from .pairing import (NotExists, fourparam_A3, fourparam_conditions,
                      fourparam_xi3_dimension, verify_axioms)
from .quadratic import QuadAlgebra, dimension_table, graded_dimension
from .tensor import embed, flatten_index, swap_operator


class ScenarioReport(Record):
    """The numbers (``data``) and verdicts (``checks``) one scenario
    records; unlike the other records it is filled in after construction."""

    __slots__ = _fields = ("scenario", "data", "checks")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, scenario: str, data: dict | None = None, checks: dict | None = None):
        super().__init__(scenario, {} if data is None else data,
                         {} if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {"scenario": self.scenario, "data": self.data,
                "checks": self.checks, "pass": self.passed}


def orthogonal_dim_formula(n: int, k: int) -> int:
    """((n + 2k - 2) / k) C(n + k - 3, k - 1); n^k for k < 2, where the
    binomial is 1 but n = 1 would give it a negative top."""
    if k < 2:
        return n ** k
    value = Fraction(n + 2 * k - 2, k) * comb(n + k - 3, k - 1)
    return int(value)


def symplectic_dim_formula(n: int, k: int) -> int:
    """((n - 2k + 2) / k) C(n + 1, k - 1), zero past n/2."""
    if k == 0:
        return 1
    value = Fraction(n - 2 * k + 2, k) * comb(n + 1, k - 1)
    return max(int(value), 0)


def bcd_report(family: str, n: int) -> ScenarioReport:
    """Quadratic-algebra report for the orthogonal/symplectic idempotents.

    * Q-operator identities (squares, flip absorption, the triple products),
    * the eliminated-central-element form of the universal relations,
    * the inclusion lattice against the plain (anti)symmetrizer pairs,
    * graded dimensions against the closed formulas.
    """
    if family not in ("B", "C", "D"):
        raise ValueError("family must be 'B', 'C' or 'D'")
    if n < 1:
        raise ValueError(f"type {family} needs n >= 1, got n = {n}")
    if family == "B" and n % 2 == 0:
        raise ValueError("type B needs odd n")
    if family in ("C", "D") and n % 2:
        raise ValueError(f"type {family} needs even n")
    report = ScenarioReport(f"bcd-{family}{n}")
    A = antisymmetrizer(n)
    P = swap_operator(n)
    if family in ("B", "D"):
        Q, E, sign, variant = rank_one_contraction(n), orthogonal_idempotent(n), 1, "X"
        pair = ManinPair(A, E)
        relations, formula = orthogonal_pair_relations, orthogonal_dim_formula
    else:
        Q, E, sign, variant = (twisted_rank_one_contraction(n), symplectic_idempotent(n),
                               -1, "Xi")
        pair = ManinPair(E, A)
        relations, formula = symplectic_pair_relations, symplectic_dim_formula
    report.checks["Q_squares_to_nQ"] = (Q * Q) == Q.scale(n)
    report.checks["PQ_eq_QP_eq_Q" if sign > 0 else "PQ_eq_QP_eq_minusQ"] = \
        (P * Q) == Q.scale(sign) and (Q * P) == Q.scale(sign)
    q12, q23, p12, p23 = (embed(Q, 3, 1), embed(Q, 3, 2),
                          embed(P, 3, 1), embed(P, 3, 2))
    report.checks["QQQ_eq_Q"] = q12 * q23 * q12 == q12
    report.checks["PQQ_transport"] = p12 * q23 * q12 == (p23 * q12).scale(sign)
    uni = universal_relations(pair)
    elim = span_of_polys(relations(n, n), uni.gens, 2)
    report.checks["eliminated_form_matches"] = uni.space == elim
    plain = universal_relations(ManinPair(A, A))
    both = universal_relations(ManinPair(E, E))
    report.checks["plain_pair_implies"] = plain.space.contains_space(uni.space)
    report.checks["full_pair_implies"] = both.space.contains_space(uni.space)
    dims = dimension_table(QuadAlgebra(E, variant), 3)
    report.data[f"{variant}_dims"] = dims
    report.checks[f"{variant}_dims_formula"] = dims == [formula(n, k) for k in range(4)]
    if n == 2 and sign > 0:
        m11, m12, m21, m22 = uni.gens
        d_crit = span_of_polys(
            [NCPoly({(m11, m21): 1, (m21, m11): -1}),
             NCPoly({(m12, m22): 1, (m22, m12): -1})],
            uni.gens, 2)
        report.checks["two_by_two_criterion"] = uni.space == d_crit
    elif n == 2:
        report.checks["relations_vanish"] = uni.dim == 0
        report.data["relation_dim"] = uni.dim
    report.data["rank"] = int(E.trace())
    report.checks["idempotent"] = is_idempotent(E)
    return report


def fourparam_report(a, b, c, kappa) -> ScenarioReport:
    """Classification report for the 3-dimensional 4-parameter idempotent."""
    a, b, c, kappa = rat(a), rat(b), rat(c), rat(kappa)
    report = ScenarioReport("fourparam")
    report.data["params"] = [str(a), str(b), str(c), str(kappa)]
    conds = fourparam_conditions(a, b, c, kappa)
    report.data["conditions"] = conds
    predicted = fourparam_xi3_dimension(a, b, c, kappa)
    report.data["predicted_xi3"] = predicted
    if predicted == 3:
        # needs a sixth root of -1; unreachable over the rationals
        report.data["note"] = "three-dimensional branch is out of field"
    E = fourparam_idempotent(a, b, c, kappa)
    report.checks["idempotent"] = is_idempotent(E)
    # one presentation of Xi serves the dimension and the psi product table
    xi = QuadAlgebra(E, "Xi").presentation()
    xi3 = xi.dimensions(3)[3]
    x3 = graded_dimension(QuadAlgebra(E, "X"), 3)
    report.data["xi3"] = xi3
    report.data["x3"] = x3
    report.checks["xi3_matches_conditions"] = xi3 == predicted
    report.checks["difference_is_nine"] = x3 - xi3 == 9
    op = fourparam_A3(a, b, c, kappa)
    if isinstance(op, NotExists):
        report.data["A3"] = "absent"
        report.checks["A3_existence_matches"] = (kappa != 0) and not (
            conds["i"] and not conds["ii"] and not conds["iii"])
    else:
        report.data["A3"] = "present"
        report.checks["A3_axioms"] = verify_axioms(op)["pass"]
        if kappa:
            report.checks["A3_existence_matches"] = (
                conds["i"] and not conds["ii"] and not conds["iii"])
            report.checks["psi_products"] = _psi_product_table_holds(xi, op, a, b, c, kappa)
    return report


def _psi_product_table_holds(algebra, op, a, b, c, kappa) -> bool:
    """The degree-3 product table of the dual Grassmann generators.

    The rank-one A-operator predicts psi_i psi_j psi_k = w^1_{ijk} psi_1
    psi_2 psi_3 where w^1 is its covector factor.  Each predicted identity
    is verified in the quotient: the difference must lie in the degree-3
    slice of the ideal generated by the degree-2 relations of ``algebra``,
    the presentation of Xi.
    """
    gens = algebra.gens
    lead = flatten_index((1, 2, 3), 3)
    row, den = op.operator.num.get(lead, {}), op.operator.den
    inv_a2 = 1 / (a * a)
    expected = {
        (1, 2, 3): rat(1), (2, 3, 1): rat(1), (3, 1, 2): rat(1),
        (1, 3, 2): -inv_a2, (2, 1, 3): -inv_a2, (3, 2, 1): -inv_a2,
        (1, 1, 1): -kappa / b, (2, 2, 2): -kappa / c, (3, 3, 3): -kappa / a,
    }
    base = NCPoly({(gens[0], gens[1], gens[2]): 1})
    for idx in ((i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)):
        # the w^1 entry (w_1 has 1/6 there)
        coeff = 6 * Fraction(row.get(flatten_index(idx, 3), 0), den)
        if coeff != expected.get(idx, rat(0)):
            return False
        word = NCPoly({tuple(gens[t - 1] for t in idx): 1})
        if not algebra.congruent(word, base.scale(coeff)):
            return False
    return True


def lie_seed(brackets, dim: int) -> ScenarioReport:
    """The report on the idempotent of Lie structure constants.

    The construction only sees the degree-2 data, so constants violating
    the Jacobi identity still give an idempotent; the report flags whether
    Jacobi holds.
    """
    report = ScenarioReport(f"lie-dim{dim}")
    C = lie_structure_operator(brackets, dim)
    A = antisymmetrizer(dim + 1)
    E = lie_idempotent(brackets, dim)
    report.checks["C_squares_to_zero"] = (C * C).is_zero()
    report.checks["C_kills_antisymmetrizer"] = (C * A).is_zero()
    report.checks["antisymmetrizer_fixes_C"] = (A * C) == C
    report.checks["idempotent"] = is_idempotent(E)
    dims = dimension_table(QuadAlgebra(E, "X"), 2)
    report.data["X_dims"] = dims
    report.data["jacobi_holds"] = _jacobi_holds(brackets, dim)
    return report


def _jacobi_holds(brackets, dim: int) -> bool:
    def c(i, j, k):
        return rat(brackets.get((i, j), {}).get(k, 0))

    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                for m in range(1, dim + 1):
                    total = sum(
                        c(i, j, l) * c(l, k, m) + c(j, k, l) * c(l, i, m)
                        + c(k, i, l) * c(l, j, m)
                        for l in range(1, dim + 1))
                    if total:
                        return False
    return True
