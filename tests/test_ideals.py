from fractions import Fraction
from math import comb

import pytest

from maninalg import idempotents as idem
from maninalg.freealg import Gen, NCPoly, NonHomogeneous
from maninalg.ideals import (PresentedAlgebra, build_slice_from_subspace,
                             commutator_relations, free_presentation, span_of_polys)
from maninalg.linalg import SparseEchelon, Subspace
from maninalg.manin import ManinPair, universal_relations
from maninalg.quadratic import VARIANTS, QuadAlgebra
from maninalg.tensor import BudgetExceeded

import dense_reference as dense

A, B, C = Gen("a"), Gen("b"), Gen("c")
F = Fraction


def commutator(x, y):
    return NCPoly({(x, y): 1, (y, x): -1})


def test_degree_two_slice_is_the_relation_space():
    alg = commutator_relations([A, B])
    assert alg.slice(2).subspace() == alg.relations


def test_zero_relations_give_zero_slice():
    alg = free_presentation([A, B])
    assert alg.slice(3).dim == 0


def test_single_commutator_degree_three_slice():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    # {x r, r x : x in {a, b}} are independent
    assert alg.slice(3).dim == 4


def test_membership_basics():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    assert alg.reduces_to_zero(NCPoly.zero())
    assert alg.reduces_to_zero(commutator(A, B))
    anti = PresentedAlgebra.from_polys([A, B], [NCPoly({(A, B): 1, (B, A): 1})])
    assert not anti.reduces_to_zero(commutator(A, B))


def test_commutative_quotient_dimensions():
    for g, gens in ((1, [A]), (2, [A, B]), (3, [A, B, C])):
        alg = commutator_relations(gens)
        for d in (2, 3):
            assert g ** d - alg.slice(d).dim == comb(d + g - 1, d)


def test_membership_stable_under_generator_multiplication():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    member = commutator(A, B)
    for g in (A, B):
        assert alg.reduces_to_zero(NCPoly.generator(g) * member)
        assert alg.reduces_to_zero(member * NCPoly.generator(g))
    stranger = NCPoly({(A, B): 1, (B, A): 1})
    assert not alg.reduces_to_zero(NCPoly.generator(A) * stranger)


def test_presentation_of_a_relation_subspace():
    rel = Subspace.from_rows([[0, 1, -1, 0]], 4)  # ab - ba on two letters
    alg = PresentedAlgebra([A, B], rel)
    assert alg.slice(3).dim == 4
    assert alg.slice(2).subspace() == rel


def test_non_homogeneous_rejected():
    alg = commutator_relations([A, B])
    with pytest.raises(NonHomogeneous):
        alg.reduces_to_zero(NCPoly({(A,): 1, (A, B): 1}))
    with pytest.raises(NonHomogeneous):
        alg.reduces_to_zero(NCPoly({(A, B): 1, (B, A, B): 1}))
    with pytest.raises(NonHomogeneous):
        PresentedAlgebra.from_polys([A, B], [NCPoly({(A,): 1, (A, B): 1})])
    with pytest.raises(NonHomogeneous):
        PresentedAlgebra.from_polys([A, B], [NCPoly({(A, B, A): 1})])


def test_from_polys_is_the_span_of_the_polynomials():
    polys = [commutator(A, B), NCPoly.zero(), commutator(A, B).scale(F(-2, 3)),
             NCPoly({(A, A): 1, (B, C): F(1, 2)})]
    alg = PresentedAlgebra.from_polys([A, B, C], polys)
    assert alg.relations == span_of_polys(polys, [A, B, C], 2)
    assert alg.relations == Subspace.from_rows(
        [[0, 1, 0, -1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, F(1, 2), 0, 0, 0]], 9)
    # degree 3: the span of the shifted commutator {x r, r x}
    words3 = span_of_polys([NCPoly.generator(x) * commutator(A, B) for x in (A, B)]
                           + [commutator(A, B) * NCPoly.generator(x) for x in (A, B)],
                           [A, B], 3)
    assert words3 == PresentedAlgebra.from_polys([A, B], [commutator(A, B)]).slice(3).subspace()


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "8")
    alg = commutator_relations([A, B])
    with pytest.raises(BudgetExceeded):
        alg.slice(4)


def test_slice_cache_reused():
    alg = commutator_relations([A, B])
    assert alg.slice(3) is alg.slice(3)


def _presentations() -> dict:
    """Name -> factory of the presentations whose slices are compared."""
    families = {
        "antisymmetrizer3": idem.antisymmetrizer(3),
        "hecke_minus3_q2": idem.hecke_minus(3, F(2)),
        "hecke_minus3_q_minus_half": idem.hecke_minus(3, F(-1, 2)),
        "orthogonal3": idem.orthogonal_idempotent(3),
        "symplectic4": idem.symplectic_idempotent(4),
        "fourparam_2_2_2_1": idem.fourparam_idempotent(2, 2, 2, 1),
    }
    out = {f"{name}.{v}": lambda E=E, v=v: QuadAlgebra(E, v).presentation()
           for name, E in families.items() for v in VARIANTS}
    qhat = [[1, F(2)], [F(1, 2), 1]]
    phat = [[1, F(-1, 3)], [-3, 1]]
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(phat))
    out["manin_universal_2x2"] = lambda: universal_relations(pair, "M").algebra()
    return out


PRESENTATIONS = _presentations()


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_grown_slices_match_slices_from_scratch(name):
    # each degree three ways: grown from the cached slice below, grown from
    # degree 1, and every w1 * r * w2 echelonized by the Fraction oracle
    alg = PRESENTATIONS[name]()
    g = len(alg.gens)
    for d in range(2, 6):
        chained = alg.slice(d).echelon
        fresh = build_slice_from_subspace(alg.gens, alg.relations, d).echelon
        oracle = dense.slice_from_scratch(g, alg.relations, d)
        assert chained.rank == fresh.rank == oracle.rank, d
        assert set(chained.pivots) == set(fresh.pivots) == set(oracle.pivots), d
        assert chained.reduced_rows() == fresh.reduced_rows() == oracle.reduced_rows(), d


def test_a_slice_grows_from_the_cached_one_below_and_caches_only_its_degree():
    alg = commutator_relations([A, B, C])
    below = alg.slice(3)
    pivots = {lead: dict(row) for lead, row in below.echelon.pivots.items()}
    alg.slice(5)
    assert list(alg._slices) == [3, 5]
    assert alg.slice(3) is below and below.echelon.pivots == pivots
    assert alg.slice(5).subspace() == build_slice_from_subspace(
        alg.gens, alg.relations, 5).subspace()


def test_over_budget_slice_is_refused_before_any_lower_degree_is_built(monkeypatch):
    alg = commutator_relations([A, B, C])
    inserted = []
    insert = SparseEchelon.insert
    monkeypatch.setattr(SparseEchelon, "insert",
                        lambda self, row: inserted.append(row) or insert(self, row))
    monkeypatch.setenv("MANIN_BUDGET", "100")  # 3^4 = 81 fits, 3^5 = 243 does not
    with pytest.raises(BudgetExceeded):
        alg.slice(5)
    assert alg._slices == {}
    assert inserted == []
    alg.slice(4)
    assert inserted and list(alg._slices) == [4]


def test_a_slice_grows_only_from_a_lower_degree_of_the_same_generators():
    alg = commutator_relations([A, B])
    with pytest.raises(ValueError):
        build_slice_from_subspace(alg.gens, alg.relations, 3, below=alg.slice(3))
    with pytest.raises(ValueError):
        build_slice_from_subspace((B, A), alg.relations, 4, below=alg.slice(3))
