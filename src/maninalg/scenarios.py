"""Named scenario builders tying the catalog together.

Each report re-runs the underlying operations and records every number and
verdict it prints, so reports are reproducible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .freealg import NCPoly, matrix_gen
from .idempotents import (IdempotentSpec, antisymmetrizer, is_idempotent,
                          lie_idempotent, lie_structure_operator,
                          orthogonal_idempotent, rank_one_contraction,
                          swap_operator, symplectic_idempotent,
                          twisted_rank_one_contraction, fourparam_idempotent)
from .ideals import span_of_polys
from .linalg import rat
from .manin import (ManinPair, orthogonal_pair_relations,
                    symplectic_pair_relations, universal_relations)
from .pairing import (NotExists, fourparam_A3, fourparam_conditions,
                      fourparam_xi3_dimension, verify_axioms)
from .quadratic import QuadAlgebra, dimension_table, graded_dimension
from .tensor import TensorOperator, embed, flatten_index


@dataclass
class ScenarioReport:
    scenario: str
    data: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

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
    one = TensorOperator.identity(n, 2)
    if family in ("B", "D"):
        Q = rank_one_contraction(n)
        E = orthogonal_idempotent(n)
        report.checks["Q_squares_to_nQ"] = (Q * Q) == Q.scale(n)
        report.checks["PQ_eq_QP_eq_Q"] = (P * Q) == Q and (Q * P) == Q
        q12, q23, p12, p23 = (embed(Q, 3, 1), embed(Q, 3, 2),
                              embed(P, 3, 1), embed(P, 3, 2))
        report.checks["QQQ_eq_Q"] = q12 * q23 * q12 == q12
        report.checks["PQQ_transport"] = p12 * q23 * q12 == p23 * q12
        uni = universal_relations(ManinPair(A, E))
        elim = span_of_polys(orthogonal_pair_relations(n, n), uni.gens, 2)
        report.checks["eliminated_form_matches"] = uni.space == elim
        plain = universal_relations(ManinPair(A, A))
        both = universal_relations(ManinPair(E, E))
        report.checks["plain_pair_implies"] = plain.space.contains_space(uni.space)
        report.checks["full_pair_implies"] = both.space.contains_space(uni.space)
        dims = dimension_table(QuadAlgebra(E, "X"), 3)
        report.data["X_dims"] = dims
        report.checks["X_dims_formula"] = dims == [
            orthogonal_dim_formula(n, k) for k in range(4)]
        if n == 2:
            d_crit = span_of_polys(
                [NCPoly({(matrix_gen("M", 1, 1), matrix_gen("M", 2, 1)): 1,
                         (matrix_gen("M", 2, 1), matrix_gen("M", 1, 1)): -1}),
                 NCPoly({(matrix_gen("M", 1, 2), matrix_gen("M", 2, 2)): 1,
                         (matrix_gen("M", 2, 2), matrix_gen("M", 1, 2)): -1})],
                uni.gens, 2)
            report.checks["two_by_two_criterion"] = uni.space == d_crit
    else:
        Qt = twisted_rank_one_contraction(n)
        E = symplectic_idempotent(n)
        report.checks["Q_squares_to_nQ"] = (Qt * Qt) == Qt.scale(n)
        report.checks["PQ_eq_QP_eq_minusQ"] = (P * Qt) == -Qt and (Qt * P) == -Qt
        q12, q23, p12, p23 = (embed(Qt, 3, 1), embed(Qt, 3, 2),
                              embed(P, 3, 1), embed(P, 3, 2))
        report.checks["QQQ_eq_Q"] = q12 * q23 * q12 == q12
        report.checks["PQQ_transport"] = p12 * q23 * q12 == -(p23 * q12)
        uni = universal_relations(ManinPair(E, A))
        elim = span_of_polys(symplectic_pair_relations(n, n), uni.gens, 2)
        report.checks["eliminated_form_matches"] = uni.space == elim
        plain = universal_relations(ManinPair(A, A))
        both = universal_relations(ManinPair(E, E))
        report.checks["plain_pair_implies"] = plain.space.contains_space(uni.space)
        report.checks["full_pair_implies"] = both.space.contains_space(uni.space)
        dims = dimension_table(QuadAlgebra(E, "Xi"), 3)
        report.data["Xi_dims"] = dims
        report.checks["Xi_dims_formula"] = dims == [
            symplectic_dim_formula(n, k) for k in range(4)]
        if n == 2:
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
    xi3 = E.row_dim ** 3 - xi.slice(3).dim
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


def lie_seed(brackets, dim: int) -> tuple:
    """Idempotent and report from Lie structure constants.

    The construction only sees the degree-2 data, so constants violating
    the Jacobi identity still give an idempotent; the report flags whether
    Jacobi holds.
    """
    spec_params = {"dim": dim,
                   "brackets": [[i, j, k, str(v)]
                                for (i, j), comps in sorted(brackets.items())
                                for k, v in sorted(comps.items())]}
    spec = IdempotentSpec("Lie", dim + 1, spec_params)
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
    return spec, report


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
