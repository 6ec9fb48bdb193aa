from fractions import Fraction

import pytest

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.linalg import QMatrix, Subspace
from maninalg.pairing import closed_form_multiparam, corrupt, generic_pairing
from maninalg.permutations import all_perms
from maninalg.suites import catalog_instances
from maninalg.tensor import TensorOperator

F = Fraction


def test_antisymmetrizer_rank_one_for_n2():
    A = idem.antisymmetrizer(2)
    assert idem.is_idempotent(A)
    assert A.trace() == 1
    assert A.matrix.rank() == 1


def test_permutation_is_not_idempotent():
    P = idem.permutation_op(3)
    assert not idem.is_idempotent(P)
    assert P * P == TensorOperator.identity(3, 2)
    assert idem.is_idempotent(idem.antisymmetrizer(3))


def test_fourparam_is_idempotent():
    E = idem.fourparam_idempotent(1, 1, 1, 1)
    assert idem.is_idempotent(E)
    E = idem.fourparam_idempotent(2, 3, F(1, 2), F(5, 7))
    assert idem.is_idempotent(E)


def test_hecke_minus_equals_scaled_flip_product():
    # Rhat_- = (P P^q - P) / (q + 1/q) = -(2/(q+1/q)) P A^q
    q = F(2)
    for n in (2, 3):
        Rm = idem.hecke_minus(n, q)
        P = idem.permutation_op(n)
        expected = (P * idem.q_permutation_op(n, q) - P).scale(1 / (q + 1 / q))
        assert Rm == expected
        assert Rm == (P * idem.q_antisymmetrizer(n, q)).scale(-2 / (q + 1 / q))


def test_symplectic_idempotent_vanishes_for_n2():
    assert idem.symplectic_idempotent(2).is_zero()


def test_make_idempotent_zero():
    E = idem.make_idempotent(QMatrix.zero(2, 4))
    assert E.matrix.is_zero()


def test_make_idempotent_toy_two_dim():
    E = idem.make_idempotent(QMatrix.from_rows([[0, 1], [0, 0]]))
    assert E.matrix.data == [[F(0), F(0)], [F(0), F(1)]]
    assert E.matrix * E.matrix == E.matrix


def test_make_idempotent_from_flip_relations():
    P = idem.permutation_op(2)
    R = P.matrix - QMatrix.identity(4)
    E = idem.make_idempotent(R)
    assert idem.is_idempotent(E)
    assert Subspace.from_matrix(E.matrix) == Subspace.from_matrix(R)
    assert idem.left_equivalent(E, idem.antisymmetrizer(2))


def test_left_right_equivalence_examples():
    q = F(2)
    assert idem.left_equivalent(idem.q_antisymmetrizer(2, q),
                                idem.hecke_minus(2, q))
    assert idem.right_equivalent(idem.hecke_minus(2, q),
                                 idem.q_antisymmetrizer(2, 1 / q))
    assert not idem.left_equivalent(idem.antisymmetrizer(2),
                                    idem.symmetrizer(2))


def test_equivalence_needs_idempotents():
    with pytest.raises(ValueError):
        idem.left_equivalent(idem.permutation_op(2), idem.antisymmetrizer(2))


def test_conjugation_transport():
    # (sigma x sigma) P_qhat (sigma^-1 x sigma^-1) = P_{sigma qhat sigma^-1}
    for n in (2, 3):
        qhat = idem.uniform_parameter_matrix(n, 3)
        qhat[0][n - 1] = F(1, 2)
        qhat[n - 1][0] = F(2)
        E = idem.parameterized_antisymmetrizer(qhat)
        for sigma in all_perms(n):
            lhs = idem.conjugate(E, sigma)
            rhs = idem.parameterized_antisymmetrizer(
                idem.conjugate_parameter_matrix(qhat, sigma))
            assert lhs == rhs


def test_antisymmetrizer_fixed_by_conjugation():
    for n in (2, 3):
        A = idem.antisymmetrizer(n)
        for sigma in all_perms(n):
            assert idem.conjugate(A, sigma) == A


def test_parameter_matrix_validation():
    with pytest.raises(idem.InvalidParameter):
        idem.check_parameter_matrix([[1, 2], [2, 1]])  # needs q21 = 1/2
    with pytest.raises(idem.InvalidParameter):
        idem.check_parameter_matrix([[2, 2], [F(1, 2), 1]])  # diagonal
    with pytest.raises(idem.InvalidParameter):
        idem.check_parameter_matrix([[1, 0], [0, 1]])  # zero entry


def test_degenerate_q_rejected():
    for q in (0, 1, -1):
        with pytest.raises(idem.InvalidParameter):
            idem.hecke_minus(2, q)


def test_odd_symplectic_rejected():
    with pytest.raises(idem.InvalidParameter):
        idem.symplectic_idempotent(3)


def test_lie_requires_antisymmetry():
    with pytest.raises(idem.InvalidParameter):
        idem.lie_structure_operator({(1, 2): {1: 1}}, 2)


def test_lie_identities():
    C = idem.lie_structure_operator(idem.sl2_brackets(), 3)
    A = idem.antisymmetrizer(4)
    assert (C * C).is_zero()
    assert (C * A).is_zero()
    assert A * C == C
    assert idem.is_idempotent(idem.lie_idempotent(idem.sl2_brackets(), 3))


def test_spec_json_roundtrip():
    spec = idem.IdempotentSpec("Aqhat", 2,
                               {"qhat": [[1, 2], [F(1, 2), 1]]})
    doc = spec.to_json()
    rebuilt = idem.IdempotentSpec.from_json(doc)
    assert idem.build(rebuilt) == idem.build(spec)
    custom = idem.IdempotentSpec(
        "Custom", 2, {"matrix": idem.antisymmetrizer(2).matrix.to_strings()})
    assert idem.build(custom) == idem.antisymmetrizer(2)


QHAT = [[1, F(2)], [F(1, 2), 1]]
SL2_ROWS = [[1, 2, 3, 1], [2, 1, 3, -1], [3, 1, 1, 2], [1, 3, 1, -2], [3, 2, 2, -2],
            [2, 3, 2, 2]]
CUSTOM = idem.hecke_minus(2, 3).matrix.to_strings()
# spec -> the direct constructor call that build(spec) must equal
DIRECT_BUILDS = [
    (idem.IdempotentSpec("A_n", 3), lambda: idem.antisymmetrizer(3)),
    (idem.IdempotentSpec("S_n", 3), lambda: idem.symmetrizer(3)),
    (idem.IdempotentSpec("P_n", 2), lambda: idem.permutation_op(2)),
    (idem.IdempotentSpec("Aq", 3, {"q": "2/3"}), lambda: idem.q_antisymmetrizer(3, F(2, 3))),
    (idem.IdempotentSpec("Pq", 2, {"q": "-2"}), lambda: idem.q_permutation_op(2, -2)),
    (idem.IdempotentSpec("Aqhat", 0, {"qhat": QHAT}),
     lambda: idem.parameterized_antisymmetrizer(QHAT)),
    (idem.IdempotentSpec("Atilde_qhat", 0, {"qhat": QHAT}),
     lambda: idem.twisted_antisymmetrizer(QHAT)),
    (idem.IdempotentSpec("RhatPlus", 2, {"q": "3"}), lambda: idem.hecke_plus(2, 3)),
    (idem.IdempotentSpec("RhatMinus", 3, {"q": "1/2"}), lambda: idem.hecke_minus(3, F(1, 2))),
    (idem.IdempotentSpec("B_n", 3), lambda: idem.orthogonal_idempotent(3)),
    (idem.IdempotentSpec("Btilde_n", 4), lambda: idem.symplectic_idempotent(4)),
    (idem.IdempotentSpec("FourParam", 0, {"a": "2", "b": "3", "c": "1/2", "kappa": "1"}),
     lambda: idem.fourparam_idempotent(2, 3, F(1, 2), 1)),
    (idem.IdempotentSpec("FourParam", 0, {"a": "2", "b": "3", "c": "1/2"}),
     lambda: idem.fourparam_idempotent(2, 3, F(1, 2), 0)),
    (idem.IdempotentSpec("Lie", 0, {"brackets": SL2_ROWS, "dim": "3"}),
     lambda: idem.lie_idempotent(idem.sl2_brackets(), 3)),
    (idem.IdempotentSpec("Custom", 0, {"matrix": CUSTOM}),
     lambda: TensorOperator(2, 2, 2, QMatrix.from_strings(CUSTOM))),
]


def test_every_family_has_a_direct_build():
    assert {spec.family for spec, _ in DIRECT_BUILDS} == set(idem.FAMILIES)


@pytest.mark.parametrize("spec, direct", DIRECT_BUILDS,
                         ids=[f"{spec.family}-{len(spec.params)}" for spec, _ in DIRECT_BUILDS])
def test_build_equals_the_direct_constructor(spec, direct):
    assert idem.build(spec) == direct()


@pytest.mark.parametrize("spec, message", [
    (idem.IdempotentSpec("A_m", 0, {"q": "2"}), "unknown family 'A_m'"),
    (idem.IdempotentSpec("Aq", 0, {"q": "2", "p": "1"}), "family Aq takes no parameter 'p'"),
    (idem.IdempotentSpec("A_n", 3, {"q": "2"}), "takes no parameter 'q' (it takes none)"),
    (idem.IdempotentSpec("Aq", 0, {"q": "2"}), "family Aq needs a local dimension n >= 1, got 0"),
    (idem.IdempotentSpec("Aq", 2), "family Aq needs the parameter 'q'"),
    (idem.IdempotentSpec("FourParam", 0, {"a": "2", "b": "3"}), "needs the parameter 'c'"),
    (idem.IdempotentSpec("Custom", 0, {"matrix": [[1, 0]]}), "custom operator must be square"),
    (idem.IdempotentSpec("Custom", 0, {"matrix": [[1, 0], [0, 1]]}),
     "custom operator must act on a tensor square"),
    (idem.IdempotentSpec("Custom", 0, {"matrix": "I"}), "custom 'matrix' must be a list of lists"),
], ids=["unknown-before-parameters", "extra-before-size", "extra-of-none", "size",
        "missing", "missing-fourparam", "custom-not-square", "custom-not-tensor-square",
        "custom-not-a-grid"])
def test_build_checks_family_then_parameters_then_size(spec, message):
    with pytest.raises(idem.InvalidParameter) as err:
        idem.build(spec)
    assert message in str(err.value)


def test_catalog_families_are_idempotent_with_rank_trace():
    specs = [
        idem.IdempotentSpec("A_n", 3),
        idem.IdempotentSpec("S_n", 3),
        idem.IdempotentSpec("Aq", 3, {"q": "2"}),
        idem.IdempotentSpec("RhatPlus", 3, {"q": "2"}),
        idem.IdempotentSpec("RhatMinus", 3, {"q": "2"}),
        idem.IdempotentSpec("B_n", 3),
        idem.IdempotentSpec("Btilde_n", 4),
        idem.IdempotentSpec("FourParam", 3,
                            {"a": "2", "b": "3", "c": "1/2", "kappa": "1"}),
        idem.IdempotentSpec("Atilde_qhat", 2, {"qhat": [["1", "3"], ["1/3", "1"]]}),
    ]
    for spec in specs:
        E = idem.build(spec)
        assert idem.is_idempotent(E), spec.family
        assert Fraction(E.matrix.rank()) == E.trace(), spec.family


from hypothesis import given, settings
from hypothesis import strategies as st

_coef = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(_coef, min_size=4, max_size=4), min_size=1, max_size=5))
def test_make_idempotent_always_projects_onto_the_row_space(rows):
    R = QMatrix.from_rows(rows)
    E = idem.make_idempotent(R)
    assert E.matrix * E.matrix == E.matrix
    assert Subspace.from_matrix(E.matrix) == Subspace.from_matrix(R)


# --- integer decisions against the Fraction oracles ----------------------------


def perturbed(E: TensorOperator) -> list:
    """Near misses of an operator: one entry bumped, a row dropped, scaled."""
    rows = dense.fraction_rows(E)
    first = min(rows, default=0)
    bumped = dict(rows)
    bumped[first] = dict(rows.get(first, {}))
    bumped[first][first] = bumped[first].get(first, 0) + F(1, 3)
    dropped = {i: r for i, r in rows.items() if i != first}
    return [TensorOperator(E.row_dim, E.col_dim, E.arity, bumped),
            TensorOperator(E.row_dim, E.col_dim, E.arity, dropped),
            E.scale(2), E.scale(F(1, 2))]


def test_is_idempotent_matches_the_dense_product():
    verdicts = set()
    for name, E in catalog_instances():
        for op in [E] + perturbed(E):
            verdicts.add(idem.is_idempotent(op))
            assert idem.is_idempotent(op) == dense.is_idempotent(op), name
    qhat = [[1, 2, F(-1, 3)], [F(1, 2), 1, 3], [-3, F(1, 3), 1]]
    for p in (closed_form_multiparam(qhat, 3, "A"), closed_form_multiparam(qhat, 3, "S"),
              generic_pairing(idem.hecke_minus(2, 3), 3, "A")):
        for bad in (p, corrupt(p), corrupt(p, 5, 2)):
            verdicts.add(idem.is_idempotent(bad.operator))
            assert idem.is_idempotent(bad.operator) == dense.is_idempotent(bad.operator)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_coef, min_size=4, max_size=4), min_size=1, max_size=5),
       st.booleans())
def test_is_idempotent_matches_the_dense_product_on_random_operators(rows, project):
    """Projections onto random row spaces, and random 4 x 4 operators."""
    if project:
        op = idem.make_idempotent(QMatrix.from_rows(rows))
    else:
        op = TensorOperator(4, 4, 1, QMatrix(4, 4, (rows + [[0] * 4] * 4)[:4]))
    assert idem.is_idempotent(op) == dense.is_idempotent(op)


_parameter = st.sampled_from([1, -1, 2, F(-1, 2), F(3, 5), F(-7, 4)])


@st.composite
def valid_parameter_matrices(draw):
    n = draw(st.integers(1, 4))
    q = [[F(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = F(draw(_parameter))
            q[j][i] = 1 / q[i][j]
    return q


@settings(max_examples=60, deadline=None)
@given(valid_parameter_matrices())
def test_antisymmetrizer_rows_match_the_flip_construction(qhat):
    A = idem.parameterized_antisymmetrizer(qhat)
    assert A == dense.parameterized_antisymmetrizer(qhat)
    assert idem.is_idempotent(A)


@settings(max_examples=80, deadline=None)
@given(valid_parameter_matrices(), st.data())
def test_parameter_checks_raise_what_the_fraction_check_raised(qhat, data):
    n = len(qhat)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bad = [row[:] for row in qhat]
    bad[i][j] = data.draw(st.sampled_from([0, 2, -1, F(1, 3), qhat[j][i]]))
    if data.draw(st.booleans()):
        bad = bad[:-1]                     # not square
    try:
        dense.check_parameter_matrix(bad)
    except idem.InvalidParameter as exc:
        want = str(exc)
    else:
        want = None
    for check in (idem.check_parameter_matrix, idem.parameterized_antisymmetrizer):
        if want is None:
            check(bad)
        else:
            with pytest.raises(idem.InvalidParameter) as got:
                check(bad)
            assert str(got.value) == want
