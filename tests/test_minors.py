from fractions import Fraction

import pytest

from maninalg import idempotents as idem
from maninalg.freealg import Gen, NCPoly, generator_matrix, poly_matrix
from maninalg.manin import ManinPair, universal_relations
from maninalg.minors import (a_minor, col_permuted, column_det, det_qhat,
                             inversion_parameter_product, minor_operator,
                             perm_qhat, row_perm, row_permuted, s_minor,
                             verify_identity, verify_matrix_identity)
from maninalg.pairing import closed_form_multiparam
from maninalg.permutations import Perm
from maninalg.tensor import TensorOperator, compose_chain, flatten_index

F = Fraction
A_, B_, C_, D_ = Gen("a"), Gen("b"), Gen("c"), Gen("d")


def abcd():
    return [[NCPoly.generator(A_), NCPoly.generator(B_)],
            [NCPoly.generator(C_), NCPoly.generator(D_)]]


def word(*gens):
    return NCPoly({tuple(gens): 1})


def test_minor_operator_identity_k1():
    M = abcd()
    one = TensorOperator.identity(2, 1)
    assert minor_operator(one, one, M, 1).entries == tuple(tuple(r) for r in M)


def test_a_minor_entry_is_half_determinant():
    M = abcd()
    A2 = idem.antisymmetrizer(2)
    grid = a_minor(M, A2, 2)
    pos = flatten_index((1, 2), 2)
    assert grid[pos][pos] == (word(A_, D_) - word(C_, B_)).scale(F(1, 2))


def test_s_minor_entry_is_half_symmetrized_product():
    M = abcd()
    S2 = idem.symmetrizer(2)
    grid = s_minor(M, S2, 2)
    row = flatten_index((1, 1), 2)
    col = flatten_index((1, 2), 2)
    assert grid[row][col] == (word(A_, B_) + word(B_, A_)).scale(F(1, 2))


def test_det_q_two_by_two():
    qhat = idem.uniform_parameter_matrix(2, 2)
    assert det_qhat(qhat, abcd()) == word(A_, D_) - word(C_, B_).scale(F(1, 2))


def test_det_of_identity():
    ident = poly_matrix([[1, 0], [0, 1]])
    qhat = idem.uniform_parameter_matrix(2, 3)
    assert det_qhat(qhat, ident) == NCPoly.one()


def test_column_det_specialization():
    assert column_det(abcd()) == word(A_, D_) - word(C_, B_)


def test_perm_two_by_two():
    phat = idem.uniform_parameter_matrix(2, 3)
    assert perm_qhat(phat, abcd()) == word(A_, D_) + word(B_, C_).scale(3)
    assert row_perm(abcd()) == word(A_, D_) + word(B_, C_)


def test_perm_one_by_one():
    assert perm_qhat([[1]], [[NCPoly.generator(A_)]]) == word(A_)


def test_verify_identity_reflexive():
    from maninalg.ideals import free_presentation
    p = word(A_, B_)
    alg = free_presentation((A_, B_))
    assert verify_identity(p, p, alg)


def test_verify_identity_rejects_non_members():
    from maninalg.ideals import commutator_relations, free_presentation
    ab, ba = word(A_, B_), word(B_, A_)
    assert not verify_identity(ab, ba, free_presentation((A_, B_)))
    assert verify_identity(ab, ba, commutator_relations((A_, B_)))
    # the universal 2x2 relations at q = 2, p = 3 fix the sign of the swap law
    qhat, _, uni = qp_universal(2, 3)
    M = generator_matrix("M", 2, 2)
    lhs = det_qhat(qhat, col_permuted(M, Perm((2, 1))))
    assert not verify_identity(lhs, det_qhat(qhat, M).scale(F(1, 3)), uni.algebra())


def qp_universal(q, p):
    qhat = idem.uniform_parameter_matrix(2, q)
    phat = idem.uniform_parameter_matrix(2, p)
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(phat))
    return qhat, phat, universal_relations(pair)


def test_column_swap_determinant_identity():
    # det_q(M tau^{-1}) = bc - q^{-1} da = -p^{-1} det_q(M) for the
    # universal 2x2 generators at q = 2, p = 3
    qhat, phat, uni = qp_universal(2, 3)
    alg = uni.algebra()
    M = generator_matrix("M", 2, 2)
    swapped = col_permuted(M, Perm((2, 1)))
    lhs = det_qhat(qhat, swapped)
    direct = (M[0][1] * M[1][0]) - (M[1][1] * M[0][0]).scale(F(1, 2))
    assert lhs == direct  # b c - q^{-1} d a in column order
    assert verify_identity(lhs, det_qhat(qhat, M).scale(F(-1, 3)), alg)


def test_row_form_of_q_determinant():
    # det_q(M) = da - q bc modulo the q-Manin relations at q = 2
    qhat = idem.uniform_parameter_matrix(2, 2)
    pair = ManinPair(idem.q_antisymmetrizer(2, 2), idem.q_antisymmetrizer(2, 2))
    alg = universal_relations(pair).algebra()
    M = generator_matrix("M", 2, 2)
    lhs = det_qhat(qhat, M)
    rhs = M[1][1] * M[0][0] - (M[0][1] * M[1][0]).scale(2)
    assert verify_identity(lhs, rhs, alg)


def test_row_permutation_law_is_a_free_identity():
    qhat, phat, _ = qp_universal(2, 3)
    M = abcd()
    tau = Perm((2, 1))
    lhs = det_qhat(idem.conjugate_parameter_matrix(qhat, tau),
                   row_permuted(M, tau))
    rhs = det_qhat(qhat, M).scale(
        tau.sign() * inversion_parameter_product(qhat, tau))
    assert lhs == rhs  # no ideal reduction needed


def test_minor_absorption_modulo_relations():
    qhat, phat, uni = qp_universal(2, 3)
    alg = uni.algebra()
    M = generator_matrix("M", 2, 2)
    chain = compose_chain(M, 2)
    from maninalg.freealg import poly_mat_times_scalar, scalar_times_poly_mat
    S = TensorOperator.identity(2, 2) - uni.pair.A
    St = TensorOperator.identity(2, 2) - uni.pair.B
    lhs = poly_mat_times_scalar(chain, St.matrix)
    rhs = scalar_times_poly_mat(S.matrix, lhs)
    assert verify_matrix_identity(lhs, rhs, alg)
    lhs2 = scalar_times_poly_mat(uni.pair.A.matrix, chain)
    rhs2 = poly_mat_times_scalar(lhs2, uni.pair.B.matrix)
    assert verify_matrix_identity(lhs2, rhs2, alg)


def test_minor_concatenation():
    qhat, phat, uni = qp_universal(2, 3)
    alg = uni.algebra()
    M = generator_matrix("M", 2, 2)
    st2 = closed_form_multiparam(phat, 2, "S").operator
    single = s_minor(M, TensorOperator.identity(2, 1), 1)
    tensor_sq = [[single[i1][j1] * single[i2][j2]
                  for j1 in range(2) for j2 in range(2)]
                 for i1 in range(2) for i2 in range(2)]
    from maninalg.freealg import poly_mat_times_scalar
    lhs = poly_mat_times_scalar(tensor_sq, st2.matrix)
    assert verify_matrix_identity(lhs, s_minor(M, st2, 2), alg)


def test_minor_shape_validation():
    M = abcd()
    with pytest.raises(ValueError):
        minor_operator(TensorOperator.identity(3, 2),
                       TensorOperator.identity(2, 2), M, 2)
    with pytest.raises(ValueError):
        det_qhat(idem.uniform_parameter_matrix(2, 2), [M[0]])


def test_a_minor_entries_are_normalized_determinants():
    # for the multi-parameter A-operator the minor entries at increasing
    # row tuples are (1/k!) det_{q_II}(M_IJ) for every column tuple
    import itertools
    from maninalg.suites import generic_parameter_matrix
    from maninalg.manin import submatrix
    qhat = generic_parameter_matrix(3)
    M = generator_matrix("M", 3, 3)
    a2 = closed_form_multiparam(qhat, 2, "A").operator
    grid = a_minor(M, a2, 2)
    for I in itertools.combinations((1, 2, 3), 2):
        qII = idem.restrict_parameter_matrix(qhat, I)
        for J in itertools.product((1, 2, 3), repeat=2):
            entry = grid[flatten_index(I, 3)][flatten_index(J, 3)]
            assert entry == det_qhat(qII, submatrix(M, I, J)).scale(F(1, 2))


def test_s_minor_entries_are_normalized_permanents():
    import itertools
    from maninalg.suites import generic_parameter_matrix
    from maninalg.manin import submatrix
    phat = generic_parameter_matrix(3, offset=1)
    M = generator_matrix("M", 3, 3)
    s2 = closed_form_multiparam(phat, 2, "S").operator
    grid = s_minor(M, s2, 2)
    for I in itertools.product((1, 2, 3), repeat=2):
        for J in itertools.combinations_with_replacement((1, 2, 3), 2):
            pJJ = idem.restrict_parameter_matrix(phat, J)
            entry = grid[flatten_index(I, 3)][flatten_index(J, 3)]
            assert entry == perm_qhat(pJJ, submatrix(M, I, J)).scale(F(1, 2))
