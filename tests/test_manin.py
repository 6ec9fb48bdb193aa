from fractions import Fraction

import pytest

from maninalg import idempotents as idem
from maninalg.freealg import (Gen, NCPoly, generator_matrix, matrix_gen,
                              poly_matrix)
from maninalg.ideals import (PresentedAlgebra, commutator_relations,
                             free_presentation, span_of_polys)
from maninalg.manin import (ManinPair, cross_commutators, is_manin,
                            manin_defect, product_is_manin,
                            double_manin_matches_commutators,
                            rll_matches_double_qmanin,
                            submatrix, transport, universal_relations)
from maninalg.permutations import Perm
from maninalg.tensor import TensorOperator

F = Fraction


def quantum_plane(q):
    """x2 x1 = q x1 x2."""
    gens = (Gen("x", (1,)), Gen("x", (2,)))
    rel = NCPoly({(gens[1], gens[0]): 1, (gens[0], gens[1]): -F(q)})
    return gens, PresentedAlgebra.from_polys(gens, [rel])


def letters_2x2():
    gens = (Gen("a"), Gen("b"), Gen("c"), Gen("d"))
    M = [[NCPoly.generator(gens[0]), NCPoly.generator(gens[1])],
         [NCPoly.generator(gens[2]), NCPoly.generator(gens[3])]]
    return gens, M


def test_universal_relations_plain_pair():
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    uni = universal_relations(pair)
    assert uni.dim == 3
    gens = uni.gens
    a, b, c, d = (NCPoly.generator(g) for g in gens)  # M11 M12 M21 M22
    column = a * c - c * a
    cross = a * d - d * a + b * c - c * b
    for p in (column, cross):
        assert uni.algebra().reduces_to_zero(p)


def test_universal_relations_zero_left_idempotent():
    pair = ManinPair(TensorOperator.zero(2, 2), idem.antisymmetrizer(2))
    assert universal_relations(pair).dim == 0


def test_universal_relations_zero_right_idempotent():
    # relations M^i_k M^j_l = M^j_k M^i_l: four independent vectors,
    # containing the column commutators and both rank-one determinants
    pair = ManinPair(idem.antisymmetrizer(2), TensorOperator.zero(2, 2))
    uni = universal_relations(pair)
    assert uni.dim == 4
    alg = uni.algebra()
    a, b, c, d = (NCPoly.generator(g) for g in uni.gens)
    for p in (a * c - c * a, b * d - d * b, a * d - c * b, b * c - d * a):
        assert alg.reduces_to_zero(p)


def test_commutative_matrix_is_manin():
    gens, M = letters_2x2()
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    assert is_manin(pair, M, commutator_relations(gens))


def test_free_matrix_is_not_manin():
    gens, M = letters_2x2()
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    assert not is_manin(pair, M, free_presentation(gens))


def test_quantum_plane_diagonal_matrix():
    gens, alg = quantum_plane(2)
    M = [[NCPoly.generator(gens[0]), NCPoly.zero()],
         [NCPoly.zero(), NCPoly.generator(gens[1])]]
    pair = ManinPair(idem.q_antisymmetrizer(2, 2), idem.antisymmetrizer(2))
    assert is_manin(pair, M, alg)
    # replacing by a left-equivalent idempotent does not change the verdict
    pair2 = ManinPair(idem.hecke_minus(2, 2), idem.antisymmetrizer(2))
    assert is_manin(pair2, M, alg)
    # but the wrong deformation parameter does
    pair3 = ManinPair(idem.q_antisymmetrizer(2, 3), idem.antisymmetrizer(2))
    assert not is_manin(pair3, M, alg)


def test_generator_matrix_passes_its_own_relations():
    for A, B in ((idem.antisymmetrizer(2), idem.antisymmetrizer(3)),
                 (idem.q_antisymmetrizer(2, 2), idem.orthogonal_idempotent(3))):
        pair = ManinPair(A, B)
        uni = universal_relations(pair)
        M = generator_matrix(uni.symbol, pair.n, pair.m)
        assert is_manin(pair, M, uni.algebra())


def test_non_homogeneous_entries_rejected():
    gens, M = letters_2x2()
    M[0][0] = M[0][0] + NCPoly.one()
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    with pytest.raises(ValueError):
        is_manin(pair, M, commutator_relations(gens))


def test_product_with_identity_reduces_to_single_check():
    gens, M = letters_2x2()
    alg = commutator_relations(gens)
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    N = poly_matrix([[1, 0], [0, 1]])
    assert product_is_manin(pair, pair, M, N, alg) == is_manin(pair, M, alg)


def test_product_of_universal_generators():
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    uM = universal_relations(pair, "M")
    uN = universal_relations(pair, "N")
    Mg = generator_matrix("M", 2, 2)
    Ng = generator_matrix("N", 2, 2)
    polys = []
    for uni in (uM, uN):
        g = len(uni.gens)
        for row in uni.space.basis.data:
            polys.append(NCPoly({(uni.gens[pos // g], uni.gens[pos % g]): c
                                 for pos, c in enumerate(row) if c}))
    ambient = PresentedAlgebra.from_polys(
        uM.gens + uN.gens, polys + cross_commutators(Mg, Ng))
    assert product_is_manin(pair, pair, Mg, Ng, ambient)


def test_product_requires_commuting_factors():
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    Mg = generator_matrix("M", 2, 2)
    Ng = generator_matrix("N", 2, 2)
    gens = tuple(matrix_gen("M", i, j) for i in (1, 2) for j in (1, 2)) + \
        tuple(matrix_gen("N", i, j) for i in (1, 2) for j in (1, 2))
    with pytest.raises(ValueError):
        product_is_manin(pair, pair, Mg, Ng, free_presentation(gens))


def test_rll_relation_spaces():
    assert rll_matches_double_qmanin(2, 2, 2)
    assert rll_matches_double_qmanin(3, 3, 2)
    assert rll_matches_double_qmanin(2, 3, 2)
    with pytest.raises(idem.InvalidParameter):
        rll_matches_double_qmanin(2, 2, 1)


def test_double_manin_commutator_spans():
    assert double_manin_matches_commutators(2, 2)
    assert double_manin_matches_commutators(3, 3)


def test_manin_relations_are_proper_subspace_of_commutators():
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    uni = universal_relations(pair)
    M = generator_matrix("M", 2, 2)
    entries = [e for row in M for e in row]
    commutators = [x * y - y * x for x in entries for y in entries]
    comm_span = span_of_polys(commutators, uni.gens, 2)
    assert uni.dim == 3 and comm_span.dim == 6
    assert comm_span.contains_space(uni.space)
    assert not uni.space.contains_space(comm_span)


def test_transport_identity_and_flip():
    pair = ManinPair(idem.antisymmetrizer(2), idem.q_antisymmetrizer(2, 2))
    M = generator_matrix("M", 2, 2)
    ident = Perm.identity(2)
    assert transport(pair, M, ident, ident) == pair
    swap = Perm((2, 1))
    moved = transport(pair, M, swap, swap)
    assert moved.A == pair.A  # the plain antisymmetrizer is conjugation-fixed
    expected = idem.parameterized_antisymmetrizer(
        idem.conjugate_parameter_matrix(idem.uniform_parameter_matrix(2, 2), swap))
    assert moved.B == expected


def test_submatrix_with_repeats():
    M = generator_matrix("M", 3, 3)
    sub = submatrix(M, (1, 1), (2, 3))
    assert sub[0][0] == sub[1][0] == NCPoly.generator(matrix_gen("M", 1, 2))


def test_defect_vanishes_only_modulo_relations():
    gens, M = letters_2x2()
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    defect = manin_defect(pair, M)
    assert any(not e.is_zero() for row in defect for e in row)
