from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.freealg import (Gen, NCPoly, NonHomogeneous, generator_matrix,
                              poly_grid_product, poly_matrix)
from maninalg.ideals import commutator_relations, free_presentation
from maninalg.manin import ManinPair, rll_matches_double_qmanin, universal_relations
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
    p = word(A_, B_)
    alg = free_presentation((A_, B_))
    assert verify_identity(p, p, alg)


def test_verify_identity_rejects_non_members():
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


# --- shape and parameter checks -----------------------------------------------

def test_one_sided_minors_check_arity_and_local_dims():
    M4 = generator_matrix("M", 4, 4)
    a4 = closed_form_multiparam(idem.uniform_parameter_matrix(2, 2), 4, "A").operator
    s4 = closed_form_multiparam(idem.uniform_parameter_matrix(2, 2), 4, "S").operator
    # A_(4) on C^2 is a 16 x 16 operator, as is the chain of a 4 x 4 M at k = 2
    with pytest.raises(ValueError, match="arities must equal k"):
        a_minor(M4, a4, 2)
    with pytest.raises(ValueError, match="arities must equal k"):
        s_minor(M4, s4, 2)
    a2, s2 = idem.antisymmetrizer(2), idem.symmetrizer(2)
    M3 = generator_matrix("M", 3, 2)
    with pytest.raises(ValueError, match="local dims do not match"):
        a_minor(M3, a2, 2)        # A acts on the 3 rows
    assert len(s_minor(M3, s2, 2)) == 9
    with pytest.raises(ValueError, match="local dims do not match"):
        s_minor(generator_matrix("M", 2, 3), s2, 2)   # S acts on the 3 columns
    assert len(a_minor(generator_matrix("M", 2, 3), a2, 2)[0]) == 9


def test_determinants_validate_the_parameter_matrix():
    M3 = generator_matrix("M", 3, 3)
    for f in (det_qhat, perm_qhat):
        with pytest.raises(ValueError, match="does not fit"):
            f(idem.uniform_parameter_matrix(2, 2), M3)
        with pytest.raises(ValueError, match="does not fit"):
            f(idem.uniform_parameter_matrix(4, 2), M3)
        with pytest.raises(idem.InvalidParameter, match="q_ij \\* q_ji = 1"):
            f([[1, 2], [2, 1]], abcd())
        with pytest.raises(idem.InvalidParameter, match="unit diagonal"):
            f([[2, 1], [1, 1]], abcd())


# --- the integer paths against the NCPoly oracles -----------------------------

coefficients = st.sampled_from([1, -1, F(1, 2), F(-2, 3), F(3, 5), 2, F(-7, 4)])
parameters = st.sampled_from([2, -2, F(1, 2), F(-1, 3), 3])
LETTERS = (A_, B_, C_, D_)


@st.composite
def entries(draw):
    """Zero, a scalar, a scaled letter, or a sum of words of mixed lengths."""
    kind = draw(st.sampled_from(["zero", "scalar", "letter", "sum"]))
    if kind == "zero":
        return NCPoly.zero()
    if kind == "scalar":
        return NCPoly.scalar(draw(coefficients))
    if kind == "letter":
        return NCPoly({(draw(st.sampled_from(LETTERS)),): draw(coefficients)})
    words = draw(st.lists(st.lists(st.sampled_from(LETTERS), max_size=2), min_size=2,
                          max_size=3))
    return NCPoly({tuple(w): draw(coefficients) for w in words})


@st.composite
def parameter_matrices(draw, n):
    q = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = F(draw(parameters))
            q[j][i] = 1 / q[i][j]
    return q


@st.composite
def operators(draw, n, k):
    """A catalog A- or S-operator of arity k on C^n, or a random sparse one,
    as a TensorOperator or as its dense QMatrix view."""
    kind = draw(st.sampled_from(["A", "S", "random"]))
    if kind == "random":
        size = n ** k
        cells = draw(st.dictionaries(st.tuples(st.integers(0, size - 1),
                                               st.integers(0, size - 1)),
                                     st.sampled_from([0, 1, -1, F(1, 2), F(-3, 4), F(5, 3)]),
                                     max_size=12))
        rows = {}
        for (i, j), x in cells.items():
            rows.setdefault(i, {})[j] = x
        op = TensorOperator(n, n, k, rows)
    else:
        op = closed_form_multiparam(draw(parameter_matrices(n)), k, kind).operator
    return op.matrix if draw(st.booleans()) else op


@st.composite
def minor_cases(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if max(n, m) <= 2 else 2))
    M = [[draw(entries()) for _ in range(m)] for _ in range(n)]
    return M, k, draw(operators(n, k)), draw(operators(m, k))


def as_tensor(op, n, k):
    return op if isinstance(op, TensorOperator) else TensorOperator(n, n, k, op)


@settings(max_examples=60, deadline=None)
@given(minor_cases())
def test_minors_match_the_ncpoly_oracle(case):
    M, k, left, right = case
    chain = dense.compose_chain(M, k)
    assert compose_chain(M, k) == chain
    assert poly_grid_product(chain, left=left) == dense.poly_grid_product(chain, left=left)
    assert poly_grid_product(chain, right=right) == dense.poly_grid_product(chain, right=right)
    both = dense.poly_grid_product(chain, left, right)
    assert poly_grid_product(chain, left, right) == both
    n, m = len(M), len(M[0])
    T, Tt = as_tensor(left, n, k), as_tensor(right, m, k)
    assert a_minor(M, T, k) == dense.poly_grid_product(chain, left=T)
    assert s_minor(M, Tt, k) == dense.poly_grid_product(chain, right=Tt)
    assert minor_operator(T, Tt, M, k).entries == tuple(map(tuple, both))
    # no zero coefficient is ever stored
    assert all(all(p.terms.values()) for row in both for p in row)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.data())
def test_determinants_match_the_ncpoly_oracle(k, data):
    M = [[data.draw(entries()) for _ in range(k)] for _ in range(k)]
    qhat = data.draw(parameter_matrices(k))
    assert det_qhat(qhat, M) == dense.det_qhat(qhat, M)
    assert perm_qhat(qhat, M) == dense.perm_qhat(qhat, M)


@pytest.mark.parametrize("n,m,q", [(2, 2, 2), (2, 3, F(1, 2)), (3, 2, -3)])
def test_rll_products_match_the_ncpoly_oracle(n, m, q):
    from maninalg.idempotents import hecke_r_matrix, q_antisymmetrizer, q_symmetrizer
    from maninalg.tensor import swap_operator
    # the operator pairs that rll_matches_double_qmanin applies to the chain
    chain = compose_chain(generator_matrix("L", n, m), 2)
    p_n, p_m = swap_operator(n), swap_operator(m)
    r_n, r_m = p_n * hecke_r_matrix(n, q), p_m * hecke_r_matrix(m, q)
    sides = [(r_n, None), (p_n, p_m * r_m),
             (q_antisymmetrizer(n, q), q_symmetrizer(m, q)),
             (q_symmetrizer(n, q) * p_n, p_m * q_antisymmetrizer(m, q))]
    for left, right in sides:
        assert poly_grid_product(chain, left, right) == \
            dense.poly_grid_product(chain, left, right)
    assert rll_matches_double_qmanin(n, m, q)


def free_and_commutative():
    return free_presentation(LETTERS), commutator_relations(LETTERS)


@st.composite
def homogeneous(draw, d):
    words = draw(st.lists(st.lists(st.sampled_from(LETTERS), min_size=d, max_size=d),
                          max_size=3))
    return NCPoly({tuple(w): draw(coefficients) for w in words})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.data())
def test_verify_identity_matches_the_ncpoly_oracle(d, data):
    """lhs and rhs share a non-homogeneous part c, so each is non-homogeneous
    while their difference is homogeneous of degree d, or zero."""
    c = data.draw(entries()) + data.draw(homogeneous(3)) + NCPoly.scalar(1)
    h1, h2 = data.draw(homogeneous(d)), data.draw(homogeneous(d))
    if data.draw(st.booleans()):
        h2 = h1
    lhs, rhs = c + h1, c + h2
    for alg in free_and_commutative():
        want = dense.verify_identity(lhs, rhs, alg)
        assert verify_identity(lhs, rhs, alg) == want
        assert verify_identity(rhs, lhs, alg) == want
        if h1 == h2:
            assert want
        if d < 2 and h1 != h2:
            assert not want
    alg = commutator_relations(LETTERS)
    assert alg.reduces_to_zero(lhs - rhs) == dense.verify_identity(lhs, rhs, alg)


def test_verify_identity_reaches_both_verdicts_on_shared_parts():
    free, comm = free_and_commutative()
    c = word(A_) + word(A_, B_, C_) + NCPoly.scalar(F(1, 3))
    lhs, rhs = c + word(A_, B_).scale(F(1, 2)), c + word(B_, A_).scale(F(1, 2))
    assert not verify_identity(lhs, rhs, free)
    assert verify_identity(lhs, rhs, comm)
    assert verify_identity(c, c, free)                      # zero difference
    assert not verify_identity(c + word(A_), c, comm)       # degree 1
    assert not verify_identity(c + NCPoly.scalar(2), c, comm)   # degree 0


def test_verify_identity_rejects_a_non_homogeneous_difference():
    free, comm = free_and_commutative()
    lhs = word(A_, B_) + word(C_)
    rhs = word(B_, A_) + word(A_, B_, C_)
    for alg in (free, comm):
        with pytest.raises(NonHomogeneous):
            verify_identity(lhs, rhs, alg)
        with pytest.raises(NonHomogeneous):
            dense.verify_identity(lhs, rhs, alg)
        with pytest.raises(NonHomogeneous):
            alg.reduces_to_zero(lhs - rhs)


def test_inversion_parameter_product_is_mu_of_the_inverse():
    from maninalg.linalg import QMatrix
    from maninalg.permutations import all_perms, mu
    from maninalg.suites import generic_parameter_matrix
    qhat = generic_parameter_matrix(4)
    as_strings = [[str(x) for x in row] for row in qhat]
    values = set()
    for tau in all_perms(4):
        want = dense.inversion_parameter_product(qhat, tau)
        for given_as in (qhat, as_strings, QMatrix.from_rows(qhat)):
            assert inversion_parameter_product(given_as, tau) == want, tau
        assert want == mu(qhat, tau.inverse())
        values.add(want)
    assert len(values) > 6
