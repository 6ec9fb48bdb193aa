import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg.freealg import (Gen, NCPoly, NonHomogeneous, gen, generator_matrix,
                              matrix_gen, parse_poly, parse_poly_matrix,
                              poly_grid_product, poly_mat_times_scalar,
                              scalar_times_poly_mat, sparse_coords)
from maninalg.idempotents import antisymmetrizer, q_symmetrizer
from maninalg.linalg import ZERO, InvalidRational, QMatrix
from maninalg.tensor import TensorOperator, compose_chain

A, B = Gen("a"), Gen("b")
M11, M12, M21, M22 = (matrix_gen("M", i, j)
                      for i in (1, 2) for j in (1, 2))


def test_generator_is_the_pair_of_symbol_and_index():
    g = Gen("M", (1, 2))
    assert (g.sym, g.idx) == ("M", (1, 2)) == tuple(g)
    assert Gen(sym="M", idx=(1, 2)) == g == gen("M", 1, 2)
    assert A.idx == () and repr(A) == "a" and repr(g) == "M[1,2]"
    assert hash(g) == hash(("M", (1, 2))) and g == ("M", (1, 2))
    assert sorted([Gen("b"), Gen("a", (2,)), Gen("a", (1,)), A]) == \
        [A, Gen("a", (1,)), Gen("a", (2,)), Gen("b")]
    for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert other == g and type(other) is Gen and other.idx == (1, 2)


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


AB_POS = {A: 0, B: 1}


def test_sparse_coords_zero_and_unit():
    assert sparse_coords(NCPoly.zero(), 2, AB_POS, 2) == {}
    # basis order: aa, ab, ba, bb
    assert sparse_coords(NCPoly({(A, B): 1}), 2, AB_POS, 2) == {1: 1}


def test_sparse_coords_two_terms():
    gens = [matrix_gen("M", 1, 1), matrix_gen("M", 1, 2)]
    pos = {g: i for i, g in enumerate(gens)}
    p = NCPoly({(gens[0], gens[1]): 2, (gens[1], gens[0]): -3})
    assert sparse_coords(p, 2, pos, 2) == {1: 2, 2: -3}


def test_sparse_coords_lex_word_order():
    words = [(A, A), (A, B), (B, A), (B, B)]
    assert [sparse_coords(NCPoly({w: 1}), 2, AB_POS, 2) for w in words] == \
        [{i: 1} for i in range(4)]
    # the leftmost letter is the most significant digit
    assert sparse_coords(NCPoly({(B, A, A): 1}), 3, AB_POS, 2) == {4: 1}


def test_non_homogeneous_raises():
    p = NCPoly({(A,): 1, (A, B): 1})
    with pytest.raises(NonHomogeneous):
        sparse_coords(p, 2, AB_POS, 2)
    with pytest.raises(NonHomogeneous):
        sparse_coords(NCPoly({(A, B, A): 1}), 2, AB_POS, 2)


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


def test_parse_refuses_zero_denominator_and_long_words(monkeypatch):
    with pytest.raises(InvalidRational, match="zero denominator"):
        parse_poly("1/0*a")
    monkeypatch.setenv("MANIN_BUDGET", "8")
    assert parse_poly("a^4*b^4") == NCPoly({(A,) * 4 + (B,) * 4: 1})
    for text in ("a^9", "a^5*b^4", "a*a*a*a*a*a*a*a*a"):
        with pytest.raises(ValueError, match="word budget 8"):
            parse_poly(text)


def test_parse_matrix():
    grid = parse_poly_matrix("x[1]; 0\n0; x[2]\n")
    assert grid[0][0] == NCPoly.generator(gen("x", 1))
    assert grid[0][1].is_zero()
    with pytest.raises(ValueError):
        parse_poly_matrix("x[1]; 0\nx[2]\n")


# Words of length 1-2 over two letters collide often, so sums cancel often.
grid_polys = st.builds(
    lambda terms: NCPoly({tuple(w): c for w, c in terms}),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([A, B]), min_size=1, max_size=2),
            st.fractions(min_value=-2, max_value=2, max_denominator=3)),
        max_size=3))
scalars = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
                           Fraction(1, 2), Fraction(-2, 3), Fraction(3)])


@st.composite
def grid_product_cases(draw):
    """An r x c NCPoly grid with an R x r left and a c x C right QMatrix."""
    r, c, R, C = (draw(st.integers(1, 4)) for _ in range(4))
    grid = [[draw(grid_polys) for _ in range(c)] for _ in range(r)]
    left = [[draw(scalars) for _ in range(r)] for _ in range(R)]
    right = [[draw(scalars) for _ in range(C)] for _ in range(c)]
    if r > 1 and draw(st.booleans()):
        # a repeated grid row, and a left row that takes their difference
        grid[-1] = list(grid[0])
        left[0] = [Fraction(1)] + [ZERO] * (r - 2) + [Fraction(-1)]
    if draw(st.booleans()):
        left[-1] = [ZERO] * r
        right[-1] = [ZERO] * C
    return grid, QMatrix(R, r, left), QMatrix(c, C, right)


@settings(max_examples=80, deadline=None)
@given(grid_product_cases())
def test_grid_product_matches_dense_loops(case):
    grid, left, right = case
    want_left = dense.scalar_times_poly_mat(left, grid)
    want_right = dense.poly_mat_times_scalar(grid, right)
    want_both = dense.poly_mat_times_scalar(want_left, right)
    # arity-1 operators may be rectangular: R x r and c x C
    left_op = TensorOperator(left.rows, left.cols, 1, left)
    right_op = TensorOperator(right.rows, right.cols, 1, right)
    assert poly_grid_product(grid, left=left) == want_left
    assert poly_grid_product(grid, left=left_op) == want_left
    assert scalar_times_poly_mat(left, grid) == want_left
    assert poly_grid_product(grid, right=right) == want_right
    assert poly_grid_product(grid, right=right_op) == want_right
    assert poly_mat_times_scalar(grid, right) == want_right
    assert poly_grid_product(grid, left, right) == want_both
    assert poly_grid_product(grid, left_op, right_op) == want_both
    # equality above already rules out stored zero coefficients; say it
    for row in poly_grid_product(grid, left_op, right_op):
        assert all(all(p.terms.values()) for p in row)


def test_grid_product_cancels_to_zero_entries():
    a = NCPoly.generator(A)
    grid = [[a, a.scale(2)], [a, a.scale(2)]]
    diff = QMatrix(1, 2, [[1, -1]])
    assert poly_grid_product(grid, left=diff) == [[NCPoly.zero(), NCPoly.zero()]]
    assert poly_grid_product(grid, right=QMatrix(2, 1, [[2], [-1]])) == [[NCPoly.zero()]] * 2


def test_grid_product_with_rectangular_arity_two_operators():
    # the 2 x 3 chain M^(1) M^(2) is a 4 x 9 grid: a 2-operator on the left,
    # a 3-operator on the right
    chain = compose_chain(generator_matrix("M", 2, 3), 2)
    A2, S3 = antisymmetrizer(2), q_symmetrizer(3, Fraction(2, 3))
    want = dense.poly_mat_times_scalar(dense.scalar_times_poly_mat(A2.matrix, chain),
                                       S3.matrix)
    assert poly_grid_product(chain, A2, S3) == want
    assert poly_grid_product(chain, A2.matrix, S3.matrix) == want
    with pytest.raises(ValueError):
        poly_grid_product(chain, S3)
    with pytest.raises(ValueError):
        poly_grid_product(chain, right=A2)
