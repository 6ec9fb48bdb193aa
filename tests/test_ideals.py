from fractions import Fraction
from math import comb

import pytest

from maninalg.freealg import Gen, NCPoly, NonHomogeneous
from maninalg.ideals import (PresentedAlgebra, commutator_relations,
                             free_presentation, span_of_polys)
from maninalg.linalg import Subspace
from maninalg.tensor import BudgetExceeded

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
