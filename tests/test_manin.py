from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.freealg import (Gen, NCPoly, generator_matrix, matrix_gen,
                              poly_matrix, sparse_coords)
from maninalg.ideals import (PresentedAlgebra, commutator_relations,
                             free_presentation, span_of_polys)
from maninalg.manin import (ManinPair, cross_commutators, defect_rows, is_manin,
                            product_is_manin,
                            double_manin_matches_commutators,
                            rll_matches_double_qmanin,
                            submatrix, transport, universal_relations)
from maninalg.minors import minor_operator
from maninalg.permutations import Perm
from maninalg.suites import catalog_instances
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


def tensor_ambient_2x2():
    """Universal (A_2, A_2) relations in M and in N, plus [M, N] = 0."""
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    uM, uN = universal_relations(pair, "M"), universal_relations(pair, "N")
    polys = []
    for uni in (uM, uN):
        g = len(uni.gens)
        for row in uni.space.basis.data:
            polys.append(NCPoly({(uni.gens[pos // g], uni.gens[pos % g]): c
                                 for pos, c in enumerate(row) if c}))
    Mg, Ng = generator_matrix("M", 2, 2), generator_matrix("N", 2, 2)
    return PresentedAlgebra.from_polys(uM.gens + uN.gens,
                                       polys + cross_commutators(Mg, Ng))


def test_product_of_universal_generators():
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    Mg = generator_matrix("M", 2, 2)
    Ng = generator_matrix("N", 2, 2)
    assert product_is_manin(pair, pair, Mg, Ng, tensor_ambient_2x2())


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
    defect = dense.manin_defect(pair, M)
    assert any(not e.is_zero() for row in defect for e in row)


# --- the integer defect kernel against the NCPoly defect -----------------------

coefficients = st.sampled_from([0, 0, 1, -1, F(1, 2), F(-1, 2), 2, F(-3, 2)])
parameters = st.sampled_from([2, 3, F(1, 2), F(-1, 3), -1])


def defect_vanishes(pair, M, ambient) -> bool:
    """The oracle: every NCPoly defect entry reduces to zero."""
    return all(ambient.reduces_to_zero(e) for row in dense.manin_defect(pair, M) for e in row)


def up_to_scale(rows) -> list:
    """Each nonzero row divided by its lead entry, sorted."""
    out = []
    for row in rows:
        lead = row[min(row)]
        out.append(tuple(sorted((k, F(v) / lead) for k, v in row.items())))
    return sorted(out)


@st.composite
def idempotents(draw, n):
    family = draw(st.sampled_from(["A_n", "S_n", "Aqhat"]))
    if family == "A_n":
        return idem.antisymmetrizer(n)
    if family == "S_n":
        return idem.symmetrizer(n)
    qhat = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            qhat[i][j] = F(draw(parameters))
            qhat[j][i] = 1 / qhat[i][j]
    return idem.parameterized_antisymmetrizer(qhat)


@st.composite
def pairs(draw, n=None, m=None):
    n = draw(st.integers(1, 3)) if n is None else n
    m = draw(st.integers(1, 3)) if m is None else m
    return ManinPair(draw(idempotents(n)), draw(idempotents(m)))


@st.composite
def linear_forms(draw, gens, rows, cols):
    return [[NCPoly({(g,): c for g in gens if (c := draw(coefficients))})
             for _ in range(cols)] for _ in range(rows)]


@st.composite
def manin_cases(draw):
    """(pair, M, ambient): M of linear forms over a commutative ambient, the
    universal algebra of another pair, or that of the pair itself, where a
    scaled generator matrix always passes."""
    pair = draw(pairs())
    ambient = draw(st.sampled_from(["commutative", "universal", "own"]))
    if ambient == "commutative":
        gens = tuple(Gen("x", (i,)) for i in range(1, draw(st.integers(1, 3)) + 1))
        algebra = commutator_relations(gens)
    else:
        other = pair if ambient == "own" else draw(pairs(draw(st.integers(1, 2)),
                                                          draw(st.integers(1, 2))))
        algebra = universal_relations(other, "x").algebra()
        if ambient == "own" and draw(st.booleans()):
            c = draw(coefficients)
            return pair, [[e.scale(c) for e in row]
                          for row in generator_matrix("x", pair.n, pair.m)], algebra
    return pair, draw(linear_forms(algebra.gens, pair.n, pair.m)), algebra


def test_is_manin_matches_the_ncpoly_defect():
    verdicts = set()

    @settings(max_examples=80, deadline=None)
    @given(manin_cases())
    def check(case):
        pair, M, ambient = case
        verdict = is_manin(pair, M, ambient)
        assert verdict == defect_vanishes(pair, M, ambient)
        verdicts.add(verdict)
        # each kernel row is a nonzero multiple of its NCPoly defect entry
        g = len(ambient.gens)
        entries = [sparse_coords(e, 2, ambient.gen_pos, g)
                   for row in dense.manin_defect(pair, M) for e in row if e]
        assert up_to_scale(defect_rows(pair, M, 1, ambient.gen_pos)) == up_to_scale(entries)

    check()
    assert verdicts == {True, False}


def test_defect_rows_are_the_minor_operator_at_k2():
    """The defect is the k = 2 minor operator A M^(1) M^(2) (1 - B), so both
    go through one grid kernel: defect_rows lists its nonzero entries in
    row-major order as word-index rows, each times D^2 * d * e (D the common
    denominator of M, d and e those of A and 1 - B)."""
    @settings(max_examples=60, deadline=None)
    @given(manin_cases())
    def check(case):
        pair, M, ambient = case
        g = len(ambient.gens)
        D = lcm(*(c.denominator for row in M for e in row for c in e.terms.values()))
        scale = D * D * pair.A.den * pair.complement.den
        minor = minor_operator(pair.A, pair.complement, M, 2)
        want = [{w: c * scale for w, c in sparse_coords(e, 2, ambient.gen_pos, g).items()}
                for row in minor.entries for e in row if e]
        assert all(c.denominator == 1 for row in want for c in row.values())
        assert defect_rows(pair, M, 1, ambient.gen_pos) == want

    check()


def test_manin_pair_keeps_one_layout_of_the_complement():
    """1 - B is kept once, as an operator; its columns are not stored beside it."""
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(3))
    assert pair.complement == TensorOperator.identity(3, 2) - pair.B
    assert "complement_columns" not in ManinPair.__dataclass_fields__
    assert not hasattr(pair, "complement_columns")


def test_product_is_manin_matches_the_ncpoly_defect():
    ambient = tensor_ambient_2x2()
    m_gens, n_gens = ambient.gens[:4], ambient.gens[4:]
    plain = idem.antisymmetrizer(2)
    verdicts = set()

    @settings(max_examples=30, deadline=None)
    @given(pairs(2, 2), pairs(2, 2), st.sampled_from(["universal", "generators", "forms"]),
           st.data())
    def check(pair_ab, pair_bc, kind, data):
        if kind == "universal":
            # the universal generators pass for (A_2, A_2, A_2)
            pair_ab = pair_bc = ManinPair(plain, plain)
        if kind == "forms":
            M = data.draw(linear_forms(m_gens, 2, 2))
            N = data.draw(linear_forms(n_gens, 2, 2))
        else:
            M, N = generator_matrix("M", 2, 2), generator_matrix("N", 2, 2)
        verdict = product_is_manin(pair_ab, pair_bc, M, N, ambient)
        K = [[sum((x * y for x, y in zip(row, col)), NCPoly.zero()) for col in zip(*N)]
             for row in M]
        assert verdict == defect_vanishes(ManinPair(pair_ab.A, pair_bc.B), K, ambient)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}


def catalog_up_to_three():
    out = [E for _, E in catalog_instances() if E.row_dim <= 3]
    out.append(idem.lie_idempotent({(1, 2): {2: 1}, (2, 1): {2: -1}}, 2))
    out.append(idem.build(idem.IdempotentSpec("Custom", 2, {"matrix": [
        ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]})))
    return out


def test_universal_relations_match_the_ncpoly_span():
    plain = idem.antisymmetrizer(2)
    for E in catalog_up_to_three():
        for pair in (ManinPair(E, E), ManinPair(plain, E), ManinPair(E, plain)):
            uni = universal_relations(pair)
            M = generator_matrix(uni.symbol, pair.n, pair.m)
            polys = [e for row in dense.manin_defect(pair, M) for e in row]
            assert uni.space == span_of_polys(polys, uni.gens, 2)


def test_defect_errors_keep_their_order():
    gens, M = letters_2x2()
    pair = ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2))
    ragged = [M[0], M[1] + [NCPoly.one()]]
    with pytest.raises(ValueError, match="homogeneous of degree 1") as exc:
        is_manin(pair, ragged, commutator_relations(gens))
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match="shape does not match") as exc:
        is_manin(pair, [M[0]], commutator_relations(gens))
    assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match="not a generator") as exc:
        is_manin(pair, M, commutator_relations(gens[:3]))
    assert type(exc.value) is ValueError
