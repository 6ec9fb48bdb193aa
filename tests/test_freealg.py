import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg.freealg import (Gen, NCPoly, NonHomogeneous, _entry_product, gen,
                              generator_matrix, matrix_gen, parse_poly, parse_poly_matrix,
                              poly_grid_product, poly_mat_times_scalar,
                              scalar_times_poly_mat, sparse_coords)
from maninalg.ideals import PresentedAlgebra
from maninalg.idempotents import antisymmetrizer, q_symmetrizer
from maninalg.linalg import ONE, ZERO, InvalidRational, QMatrix
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


# Fragments of polynomial text, valid and broken, joined at random: the
# parsers meet dangling signs and '*', unclosed and misplaced index lists,
# rational powers, zero denominators, factors side by side, names with a
# non-ASCII letter and spaces between the pieces of a factor.
TEXT_FRAGMENTS = ["0", "1", "2", "12", "1/0", "3/4", "/", "a", "b", "x1", "_y", "x\u00e9",
                  "\u00e9", "[", "]", ",", "*", "^", "+", "-", " ", "\t",
                  "x[1,2]", "M [ 1 2 ] ^2", "a ^ 2", "b^0", "x[1]^3", " * ", " - "]


def parse_outcome(parse, text):
    """The polynomial parsed from text, or ValueError when it is refused;
    any other exception propagates."""
    try:
        return parse(text)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("budget", [None, "8"])
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=16).map("".join))
def test_parse_poly_matches_the_token_parser(budget, text, monkeypatch):
    if budget is None:
        monkeypatch.delenv("MANIN_BUDGET", raising=False)
    else:
        monkeypatch.setenv("MANIN_BUDGET", budget)
    assert parse_outcome(parse_poly, text) == parse_outcome(dense.parse_poly, text)


text_gens = st.builds(Gen, st.sampled_from(["a", "M", "x1", "_y", "x\u00e9"]),
                      st.lists(st.integers(0, 12), max_size=3).map(tuple))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.lists(text_gens, max_size=4).map(tuple),
                       st.fractions(min_value=-5, max_value=5, max_denominator=7),
                       max_size=5).map(NCPoly))
def test_parse_reads_back_every_repr(p):
    assert parse_poly(repr(p)) == p


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


# --- integer numerators over one denominator ----------------------------------
#
# NCPoly keeps num (word -> nonzero int) over den (int > 0, no factor common
# to den and every numerator).  Each operation is compared with the
# word -> Fraction dict arithmetic of dense_reference, which builds no NCPoly.

def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1


# coefficients with denominators 1-6, so sums over lcm(den) cancel factors
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.builds(
    lambda terms: NCPoly({tuple(w): c for w, c in terms}),
    st.lists(st.tuples(st.lists(st.sampled_from([A, B]), max_size=3), coefficients),
             max_size=5))


@settings(max_examples=80, deadline=None)
@given(polys, polys, coefficients)
def test_arithmetic_matches_the_fraction_dict_oracle(p, q, c):
    a, b = p.terms, q.terms
    for got, want in ((p + q, dense.poly_add(a, b)), (p - q, dense.poly_sub(a, b)),
                      (p * q, dense.poly_mul(a, b)), (p.scale(c), dense.poly_scale(a, c)),
                      (c * p, dense.poly_scale(a, c)), (-p, dense.poly_scale(a, -1))):
        assert got.terms == want
        assert got == NCPoly(want) and hash(got) == hash(NCPoly(want))
        assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(st.lists(polys, max_size=4), st.integers(-6, 6).filter(bool),
       st.integers(-6, 6).filter(bool))
def test_entry_product_matches_the_fraction_dict_oracle(factors, num, den):
    got = _entry_product(factors, num, den)
    assert got.terms == dense.entry_product([f.terms for f in factors], Fraction(num, den))
    assert_canonical(got)


def _side(draw, rows, cols, arity):
    """A rows x cols side: a QMatrix, or the TensorOperator of arity ``arity``
    on local dims whose powers are rows and cols."""
    m = QMatrix(rows, cols, [[draw(scalars) for _ in range(cols)] for _ in range(rows)])
    if not draw(st.booleans()):
        return m
    local = {1: 1, 2: 2, 4: 2}
    return TensorOperator(local[rows] if arity == 2 else rows,
                          local[cols] if arity == 2 else cols, arity, m)


@st.composite
def grid_cases(draw):
    """A grid with a left and a right side, either one possibly None."""
    arity = draw(st.sampled_from([1, 2]))
    sizes = st.sampled_from([1, 4]) if arity == 2 else st.integers(1, 3)
    r, c, R, C = (draw(sizes) for _ in range(4))
    grid = [[draw(grid_polys) for _ in range(c)] for _ in range(r)]
    left = _side(draw, R, r, arity) if draw(st.booleans()) else None
    right = _side(draw, c, C, arity) if draw(st.booleans()) else None
    return grid, left, right


@settings(max_examples=80, deadline=None)
@given(grid_cases())
def test_grid_product_matches_the_fraction_dict_oracle(case):
    grid, left, right = case
    got = poly_grid_product(grid, left, right)
    want = dense.grid_product([[p.terms for p in row] for row in grid], left, right)
    assert [[p.terms for p in row] for row in got] == want
    for row in got:
        for p in row:
            assert_canonical(p)


homogeneous_polys = st.integers(2, 3).flatmap(lambda d: st.builds(
    lambda terms: NCPoly({tuple(w): c for w, c in terms}),
    st.lists(st.tuples(st.lists(st.sampled_from([A, B]), min_size=d, max_size=d),
                       coefficients), max_size=4)))


@settings(max_examples=60, deadline=None)
@given(homogeneous_polys, st.lists(st.tuples(st.lists(st.sampled_from([A, B]), max_size=1),
                                             st.lists(st.sampled_from([A, B]), max_size=1),
                                             coefficients), max_size=3),
       st.booleans(), polys)
def test_congruent_matches_the_fraction_dict_oracle(lhs, shifts, related, other):
    """lhs against lhs plus multiples of w1 * r * w2 (always congruent),
    and against an unrelated polynomial; r = ab - 1/2 ba."""
    rel = NCPoly({(A, B): 1, (B, A): Fraction(-1, 2)})
    alg = PresentedAlgebra.from_polys((A, B), [rel])
    rhs = lhs
    for w1, w2, c in shifts:
        rhs = rhs + NCPoly({tuple(w1): 1}) * rel * NCPoly({tuple(w2): c})
    if not related:
        rhs = other
    try:
        want = dense.congruent(lhs.terms, rhs.terms, alg)
    except NonHomogeneous:
        with pytest.raises(NonHomogeneous):
            alg.congruent(lhs, rhs)
        return
    assert alg.congruent(lhs, rhs) is want
    if related and lhs.degree() == rhs.degree():
        assert want


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_equal_polynomials_from_different_routes_are_equal_and_hash_equal(p, q):
    pq = p * q
    routes = [_entry_product([p, q]), NCPoly(pq.terms), (pq + p) - p, -(-pq),
              pq.scale(3).scale(Fraction(1, 3)), NCPoly({w: str(c) for w, c in pq.terms.items()}),
              poly_grid_product([[pq]], left=QMatrix.identity(1))[0][0],
              poly_grid_product([[pq, pq.scale(2)]], right=QMatrix(2, 1, [[3], [-1]]))[0][0]]
    for other in routes:
        assert other == pq and hash(other) == hash(pq)
        assert other.num == pq.num and other.den == pq.den


def test_constructor_reads_ints_fractions_and_text():
    p = NCPoly({(A,): 2, (B,): Fraction(-1, 6), (A, B): "3/4", (): 0, (B, B): "0/5"})
    assert p.num == {(A,): 24, (B,): -2, (A, B): 9} and p.den == 12
    assert p.terms == {(A,): 2, (B,): Fraction(-1, 6), (A, B): Fraction(3, 4)}
    assert NCPoly.zero().num == {} and NCPoly.zero().den == 1
    assert NCPoly.scalar(Fraction(-2, 4)).num == {(): -1} and NCPoly.scalar("-1/2").den == 2
    # sums that cancel the denominator leave den 1
    half = NCPoly({(A,): Fraction(1, 2)})
    assert (half + half).den == 1 and (half + half).num == {(A,): 1}
    assert (half - half).den == 1 and not (half - half).num


def test_copy_and_pickle_round_trip():
    p = NCPoly({(A, B): Fraction(-3, 4), (B,): 2})
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert other == p and hash(other) == hash(p) and type(other) is NCPoly
        assert other.num == p.num and other.den == p.den and other.terms == p.terms


def test_terms_is_a_read_only_view():
    p = NCPoly({(A,): Fraction(1, 3)})
    with pytest.raises(AttributeError):
        p.terms = {(B,): ONE}
    view = p.terms
    view[(B,)] = ONE
    assert p.terms == {(A,): Fraction(1, 3)} and p == NCPoly({(A,): Fraction(1, 3)})
