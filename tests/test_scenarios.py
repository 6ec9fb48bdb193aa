from fractions import Fraction

import pytest

from maninalg.idempotents import orthogonal_idempotent, sl2_brackets
from maninalg.quadratic import QuadAlgebra, dimension_table
from maninalg.scenarios import (bcd_report, fourparam_report, lie_seed,
                                orthogonal_dim_formula, symplectic_dim_formula)

F = Fraction


def test_type_d_two_by_two_criterion():
    report = bcd_report("D", 2)
    assert report.passed
    assert report.checks["two_by_two_criterion"]
    assert report.data["X_dims"] == [1, 2, 2, 2]


def test_type_c_two_by_two_relations_vanish():
    report = bcd_report("C", 2)
    assert report.passed
    assert report.data["relation_dim"] == 0


def test_type_b_three():
    report = bcd_report("B", 3)
    assert report.passed
    assert report.data["X_dims"] == [1, 3, 5, 7]
    assert report.data["rank"] == 4  # trace of B_3, so dim X_2 = 9 - 4 = 5


def test_type_c_four():
    report = bcd_report("C", 4)
    assert report.passed
    assert report.data["Xi_dims"] == [1, 4, 5, 0]


def test_parities_enforced():
    with pytest.raises(ValueError):
        bcd_report("B", 4)
    with pytest.raises(ValueError):
        bcd_report("C", 3)
    with pytest.raises(ValueError):
        bcd_report("D", 3)


def test_dim_formulas():
    assert [orthogonal_dim_formula(3, k) for k in range(4)] == [1, 3, 5, 7]
    assert [symplectic_dim_formula(4, k) for k in range(4)] == [1, 4, 5, 0]


@pytest.mark.parametrize("n", range(1, 6))
def test_orthogonal_dim_formula_matches_dimension_table(n):
    alg = QuadAlgebra(orthogonal_idempotent(n), "X")
    assert [orthogonal_dim_formula(n, k) for k in range(4)] == dimension_table(alg, 3)


def test_fourparam_single_condition_branch():
    report = fourparam_report(1, 1, 1, 1)
    assert report.passed
    assert report.data["xi3"] == 1
    assert report.data["x3"] == 10
    assert report.data["A3"] == "present"
    assert report.checks["psi_products"]


def test_fourparam_no_condition_branch():
    report = fourparam_report(1, 2, 1, 1)
    assert report.passed
    assert report.data["xi3"] == 0
    assert report.data["x3"] == 9
    assert report.data["A3"] == "absent"


def test_fourparam_kappa_zero_is_multiparametric():
    report = fourparam_report("2", "2", "2", "0")
    assert report.passed
    assert report.data["xi3"] == 1  # C(3, 3)


def test_lie_seed_sl2():
    report = lie_seed(sl2_brackets(), 3)
    assert report.passed
    assert report.data["X_dims"] == [1, 4, 10]
    assert report.data["jacobi_holds"]


def test_lie_seed_abelian():
    from maninalg import idempotents as idem
    report = lie_seed({}, 3)
    assert report.passed
    spec = idem.IdempotentSpec("Lie", 4, {"dim": 3, "brackets": []})
    assert idem.build(spec) == idem.antisymmetrizer(4)


def test_lie_seed_jacobi_violating_still_idempotent():
    brackets = {(1, 2): {1: 1}, (2, 1): {1: -1},
                (1, 3): {2: 1}, (3, 1): {2: -1}}
    report = lie_seed(brackets, 3)
    assert report.passed
    assert report.checks["idempotent"]
    assert not report.data["jacobi_holds"]


def test_report_json_shape():
    report = bcd_report("D", 2)
    doc = report.to_json()
    assert set(doc) == {"scenario", "data", "checks", "pass"}
    assert doc["pass"] is True
