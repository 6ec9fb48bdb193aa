import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg.idempotents import uniform_parameter_matrix
from maninalg.pairing import q_factorial
from maninalg.permutations import (NonReducedWord, Perm, all_perms, from_word, inv,
                                   inversion_set_from_reduced_word, mu, stabilizer_order,
                                   weighted_perms)


def test_inv_examples():
    assert inv(Perm((1, 2, 3))) == 0
    assert inv(Perm((2, 1, 3))) == 1
    assert inv(Perm((3, 2, 1))) == 3  # every pair of the longest element


def test_inv_equals_inv_of_inverse():
    for k in range(1, 6):
        for p in all_perms(k):
            assert inv(p) == inv(p.inverse())


def test_reduced_word_is_reduced_and_multiplies_back():
    for k in range(1, 5):
        for p in all_perms(k):
            word = dense.reduced_word(p)
            assert len(word) == inv(p)
            assert from_word(word, k) == p


def test_inversion_set_examples():
    assert inversion_set_from_reduced_word((), 3) == frozenset()
    assert inversion_set_from_reduced_word((1,), 2) == frozenset({(1, 2)})
    assert inversion_set_from_reduced_word((1, 2), 3) == \
        frozenset({(1, 3), (2, 3)})


def all_reduced_words(p, k):
    """Every word of length inv(p) multiplying to p (brute force)."""
    target = inv(p)
    for word in itertools.product(range(1, k), repeat=target):
        if from_word(word, k) == p:
            yield word


def test_inversion_set_agrees_with_brute_force_on_all_words_s4():
    for p in all_perms(4):
        expected = dense.inversion_set(p)
        for word in all_reduced_words(p, 4):
            assert inversion_set_from_reduced_word(word, 4) == expected


def test_non_reduced_word_rejected():
    with pytest.raises(NonReducedWord):
        inversion_set_from_reduced_word((1, 1), 2)
    with pytest.raises(NonReducedWord):
        inversion_set_from_reduced_word((1, 2, 1, 2), 3)


def test_mu_examples():
    q2 = uniform_parameter_matrix(2, 2)
    q3 = uniform_parameter_matrix(3, 2)
    assert mu(q2, Perm((1, 2))) == 1
    assert mu(q2, Perm((2, 1))) == 2
    assert mu(q3, Perm((3, 2, 1))) == 8  # three inversions, each worth q


def test_stabilizer_orders():
    assert stabilizer_order((1, 2, 3)) == 1
    assert stabilizer_order((1, 1)) == 2
    assert stabilizer_order((1, 1, 2, 2, 2)) == 12


def test_inversion_generating_function():
    q = Fraction(2)
    for k in range(1, 6):
        total = sum(q ** (-2 * inv(p)) for p in all_perms(k))
        assert total == q ** (-(k * (k - 1) // 2)) * q_factorial(k, q)


def test_perm_algebra():
    p = Perm((2, 3, 1))
    assert p * p.inverse() == Perm.identity(3)
    assert p.sign() == 1
    assert Perm((2, 1, 3)).sign() == -1


@st.composite
def parameter_matrices(draw):
    """k x k parameter matrices, k <= 5, with entries of either sign."""
    k = draw(st.integers(1, 5))
    q = [[Fraction(1)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            q[i][j] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5)
                           .filter(bool))
            q[j][i] = 1 / q[i][j]
    return q


@settings(max_examples=40, deadline=None)
@given(parameter_matrices())
def test_weighted_perms_read_each_sign_and_mu_off_the_one_inversion_pass(qhat):
    """The enumeration lists S_k in the order of all_perms, and each sign,
    length and mu matches the brute-force inversion set and the inversion
    product read off qhat directly."""
    k = len(qhat)
    perms = list(all_perms(k))
    weighted = list(weighted_perms(qhat, k))
    assert [images for images, _, _ in weighted] == [p.images for p in perms]
    for p, (_, sign, weight) in zip(perms, weighted):
        length = len(dense.inversion_set(p))
        assert inv(p) == length
        assert sign == p.sign() == (-1) ** length
        assert weight == mu(qhat, p) == dense.inversion_parameter_product(qhat, p.inverse())
