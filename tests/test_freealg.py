from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maninalg.freealg import (Gen, NCPoly, NonHomogeneous,
                              degree_component_vector, gen, matrix_gen,
                              parse_poly, parse_poly_matrix, word_basis)

A, B = Gen("a"), Gen("b")
M11, M12, M21, M22 = (matrix_gen("M", i, j)
                      for i in (1, 2) for j in (1, 2))


def test_one_is_neutral():
    p = NCPoly({(A, B): Fraction(2), (B,): Fraction(-1, 3)})
    assert NCPoly.one() * p == p
    assert p * NCPoly.one() == p


def test_generator_product_is_a_word():
    p = NCPoly.generator(M11) * NCPoly.generator(M22)
    assert p == NCPoly({(M11, M22): 1})


def test_noncommutative_binomial():
    a, b = NCPoly.generator(A), NCPoly.generator(B)
    prod = (a + b) * (a - b)
    assert prod == NCPoly({(A, A): 1, (A, B): -1, (B, A): 1, (B, B): -1})


simple_polys = st.builds(
    lambda terms: NCPoly({tuple(w): c for w, c in terms}),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([A, B]), max_size=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=2)),
        max_size=4))


@settings(max_examples=50, deadline=None)
@given(simple_polys, simple_polys, simple_polys)
def test_associativity_and_distributivity(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


def test_degree_component_vector_zero_and_unit():
    gens = [A, B]
    assert degree_component_vector(NCPoly.zero(), 2, gens) == [0] * 4
    v = degree_component_vector(NCPoly({(A, B): 1}), 2, gens)
    assert v == [0, 1, 0, 0]  # basis order: aa, ab, ba, bb


def test_degree_component_vector_two_terms():
    gens = [matrix_gen("M", 1, 1), matrix_gen("M", 1, 2)]
    p = NCPoly({(gens[0], gens[1]): 2, (gens[1], gens[0]): -3})
    v = degree_component_vector(p, 2, gens)
    assert sorted(x for x in v if x) == [-3, 2]
    assert v[1] == 2 and v[2] == -3


def test_degree_component_vector_linear_injective():
    gens = [A, B]
    basis = word_basis(gens, 2)
    vecs = [degree_component_vector(NCPoly({w: 1}), 2, gens) for w in basis]
    assert vecs == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_non_homogeneous_raises():
    p = NCPoly({(A,): 1, (A, B): 1})
    with pytest.raises(NonHomogeneous):
        degree_component_vector(p, 2, [A, B])


def test_parse_roundtrip():
    text = "2*M[1,1]*M[2,2] - 1/3*M[1,2]*M[2,1]"
    p = parse_poly(text)
    assert p == NCPoly({(M11, M22): 2, (M12, M21): Fraction(-1, 3)})
    assert parse_poly(repr(p)) == p


def test_parse_bare_names_powers_constants():
    assert parse_poly("a*b") == NCPoly({(A, B): 1})
    assert parse_poly("a^3") == NCPoly({(A, A, A): 1})
    assert parse_poly("-x[1] + 2") == NCPoly({(gen("x", 1),): -1, (): 2})
    assert parse_poly("0*a") == NCPoly.zero()


def test_parse_errors_carry_position():
    with pytest.raises(ValueError, match="position"):
        parse_poly("a *")
    with pytest.raises(ValueError, match="position"):
        parse_poly("a[1")
    with pytest.raises(ValueError):
        parse_poly("+")


def test_parse_matrix():
    grid = parse_poly_matrix("x[1]; 0\n0; x[2]\n")
    assert grid[0][0] == NCPoly.generator(gen("x", 1))
    assert grid[0][1].is_zero()
    with pytest.raises(ValueError):
        parse_poly_matrix("x[1]; 0\nx[2]\n")
