from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maninalg import idempotents as idem
from maninalg import linalg
from maninalg.freealg import Gen, NCPoly
from maninalg.ideals import PresentedAlgebra, commutator_relations, span_of_polys
from maninalg.linalg import (AmbientMismatch, InvalidRational, QMatrix, SparseEchelon,
                             Subspace, invert, rat)
from maninalg.manin import ManinPair, is_manin, universal_relations
from maninalg.pairing import generic_pairing
from maninalg.quadratic import QuadAlgebra, graded_dimension

import dense_reference as dense
from dense_reference import kernel, rref


def F(x):
    return Fraction(x)


def test_rref_already_echelon():
    e, rank = rref(QMatrix.from_rows([[0, 1], [0, 0]]))
    assert e.data == [[F(0), F(1)], [F(0), F(0)]]
    assert rank == 1


def test_rref_identity():
    e, rank = rref(QMatrix.identity(3))
    assert e == QMatrix.identity(3)
    assert rank == 3


def test_rref_hand_elimination():
    e, rank = rref(QMatrix.from_rows([[1, 2], [2, 4]]))
    assert e.data == [[F(1), F(2)], [F(0), F(0)]]
    assert rank == 1


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(
        st.lists(small_rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return QMatrix.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    once, rank1 = rref(m)
    twice, rank2 = rref(once)
    assert once == twice
    assert rank1 == rank2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_of_transpose(m):
    assert rref(m)[1] == rref(m.transpose())[1]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rref(m)[1] + kernel(m).rows == m.cols


def test_kernel_zero_matrix():
    assert kernel(QMatrix.zero(2, 2)).rows == 2


def test_kernel_identity():
    assert kernel(QMatrix.identity(3)).rows == 0


def test_kernel_hand_solved():
    k = kernel(QMatrix.from_rows([[1, 1]]))
    assert k.data == [[F(1), F(-1)]]
    assert Subspace.from_rows([[1, 1]], 2).annihilator().basis == k


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_annihilator_matches_dense_kernel(m):
    ann = Subspace.from_matrix(m).annihilator()
    assert ann.basis == kernel(m)
    assert ann.annihilator() == Subspace.from_matrix(m)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_invert_matches_dense_reference(m):
    size = min(m.rows, m.cols)
    m = QMatrix.from_rows([row[:size] for row in m.data[:size]])
    assert invert(m) == dense.invert(m)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(small_rationals, min_size=4, max_size=4))
def test_contains_matches_dense_rank(m, coeffs):
    sub = Subspace.from_matrix(m)
    v = coeffs[:m.cols]
    assert sub.contains(v) == (rref(QMatrix.from_rows(m.data + [v]))[1] == rref(m)[1])
    in_span = m.vecmat(coeffs[:m.rows])
    assert sub.contains(in_span)
    assert sub.contains_space(Subspace.from_rows([in_span], m.cols))


def test_subspace_equality_up_to_scaling():
    a = Subspace.from_rows([[1, 0]], 2)
    b = Subspace.from_rows([[2, 0]], 2)
    c = Subspace.from_rows([[0, 1]], 2)
    assert a == b
    assert not a == c
    assert hash(a) == hash(b)


def test_subspace_ambient_mismatch():
    a = Subspace.from_rows([[1, 0]], 2)
    b = Subspace.from_rows([[1, 0, 0]], 3)
    with pytest.raises(AmbientMismatch):
        a == b


def test_hecke_rowspace_matches_q_antisymmetrizer():
    # the Hecke minus idempotent and the q-antisymmetrizer present the same
    # quadratic algebra, so their row spaces coincide
    from maninalg.idempotents import hecke_minus, q_antisymmetrizer
    a = Subspace.from_matrix(q_antisymmetrizer(2, 2).matrix)
    b = Subspace.from_matrix(hecke_minus(2, 2).matrix)
    assert a == b


def test_invert():
    m = QMatrix.from_rows([[1, 2], [3, 5]])
    inv = invert(m)
    assert inv * m == QMatrix.identity(2)
    assert invert(QMatrix.from_rows([[1, 2], [2, 4]])) is None
    # singular although [m | 1] reduces to rank 2 with a lead in the right block
    assert invert(QMatrix.from_rows([[0, 0], [0, 1]])) is None


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_sparse_echelon_matches_dense_rank(m):
    ech = SparseEchelon()
    for row in m.data:
        ech.insert({j: x for j, x in enumerate(row) if x})
    assert len(ech.leads) == rref(m)[1] == m.rank()
    assert ech.dense_basis(m.cols).basis == dense.row_basis(m.data, m.cols)


def test_sparse_echelon_membership():
    ech = SparseEchelon()
    ech.insert({0: F(1), 1: F(2)})
    ech.insert({1: F(1), 2: F(1)})
    assert ech.contains({0: F(1), 2: F(-2)})  # row1 - 2*row2
    assert not ech.contains({0: F(1)})


def test_rational_substrate_invariants():
    # Fraction keeps gcd(|num|, den) = 1 and den > 0, the exact contract
    # the scalar substrate relies on
    x = Fraction(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    from maninalg.linalg import format_rat
    assert rat("-3/2") == x and format_rat(x) == "-3/2"
    assert format_rat(rat("7")) == "7"


@pytest.mark.parametrize("bad", ["1/0", " 3/0 ", 2.5, None, [1]])
def test_rat_rejects_non_rationals(bad):
    with pytest.raises(InvalidRational):
        rat(bad)


sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 7), st.one_of(
        st.integers(-3, 3).map(Fraction),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))), max_size=5),
    max_size=10)


@settings(max_examples=60, deadline=None)
@given(sparse_rows)
def test_subspace_rows_are_reduced_row_echelon(rows):
    # Subspace equality compares rows, which is sound only for a unique
    # basis: the reduced row-echelon rows scaled to primitive integers with
    # a positive lead; check that the engine always produces it
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    sub = ech.dense_basis(8)
    leads = list(sub.rows)
    assert leads == sorted(leads)
    for lead, row in sub.rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == lead and row[lead] > 0 and gcd(*row.values()) == 1
        assert all(x for x in row.values()), "stored zero"
        assert not any(j in sub.rows for j in row if j != lead), "lead column not cleared"


def test_subspace_has_no_integer_rows_view():
    """Subspace rows are the echelon's integer rows themselves, so the
    Fraction-to-integer conversion is gone."""
    assert not hasattr(Subspace, "integer_rows")
    sub = Subspace.from_rows([[Fraction(1, 2), Fraction(1, 3), 0]], 3)
    assert not hasattr(sub, "integer_rows")
    assert sub.rows == {0: {0: 3, 1: 2}}


coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def insert_sequences(draw):
    """Rows of ints and Fractions over a small width; about half of them are
    combinations of earlier rows, so they lie in the span and their entries
    cancel, exact zeros left in place."""
    width = draw(st.integers(1, 9))
    free_row = st.dictionaries(st.integers(0, width - 1), coefficients, max_size=width)

    def combination(rows):
        picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        row = {}
        for r in picks:
            c = draw(coefficients)
            for j, x in r.items():
                row[j] = row.get(j, 0) + c * x
        return row

    rows = []
    for _ in range(draw(st.integers(0, 12))):
        rows.append(combination(rows) if rows and draw(st.booleans()) else draw(free_row))
    probes = [draw(free_row) for _ in range(3)]
    if rows:
        probes += [combination(rows) for _ in range(3)]
    return rows, probes


@settings(max_examples=150, deadline=None)
@given(insert_sequences())
def test_integer_echelon_matches_fraction_oracle(case):
    rows, probes = case
    ech, oracle = SparseEchelon(), dense.FractionEchelon()
    for row in rows:
        before = dict(row)
        assert ech.insert(row) == oracle.insert(row)
        assert row == before, "insert changed its argument"
    assert len(ech.leads) == oracle.rank
    assert set(ech.pivots) == set(oracle.pivots)
    assert ech.reduced_rows() == oracle.reduced_rows()
    for probe in probes:
        assert ech.contains(probe) == oracle.contains(probe)
    for row in rows:
        assert ech.contains(row)
    for lead, row in ech.pivots.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(c) is int and c for c in row.values()), "not a row of nonzero ints"
        assert gcd(*row.values()) == 1, "pivot row not primitive"


class _RowsOnDemand(dict):
    """Starts with some rows of source and takes any other on lookup,
    recording which."""

    def __init__(self, source: dict, keep):
        super().__init__({lead: source[lead] for lead in keep})
        self.source, self.built = source, []

    def __missing__(self, lead):
        self.built.append(lead)
        row = self[lead] = self.source[lead]
        return row


@settings(max_examples=150, deadline=None)
@given(insert_sequences(), st.data())
def test_a_separate_lead_set_matches_the_plain_echelon(case, data):
    # _eliminate reads leads from one container and rows from another; the
    # rows may arrive on demand, as in an ideal slice's echelon
    rows, probes = case
    plain = SparseEchelon()
    for row in rows:
        plain.insert(row)
    leads = sorted(plain.pivots)
    keep = data.draw(st.sets(st.sampled_from(leads)) if leads else st.just(set()))
    on_demand = _RowsOnDemand(plain.pivots, keep)
    split = SparseEchelon(on_demand, set(leads))
    assert len(split.leads) == len(plain.leads)
    for probe in probes + rows:
        assert split.reduce(probe) == plain.reduce(probe)
        assert split.contains(probe) == plain.contains(probe)
    assert not set(on_demand.built) & keep
    assert split.reduced_rows() == plain.reduced_rows()
    assert split.pivots == plain.pivots and split.leads == set(plain.pivots)
    for probe in probes:
        assert split.insert(probe) == plain.insert(probe)
        assert len(split.leads) == len(plain.leads)
    assert split.leads == set(plain.pivots)
    assert split.reduced_rows() == plain.reduced_rows()


def test_integer_echelon_clears_denominators_and_content():
    ech = SparseEchelon()
    ech.insert({1: Fraction(-2, 3), 4: Fraction(4, 9)})
    assert ech.pivots == {1: {1: 3, 4: -2}}
    # 5 e_1 - 7 e_4 is reduced fraction-free: 3 (5, -7) - 5 (3, -2) = (0, -11)
    assert ech.reduce({1: 5, 4: -7}) == {4: -11}
    assert ech.insert({1: 5, 4: -7, 6: 0})
    assert ech.pivots[4] == {4: 1}
    assert ech.reduced_rows() == {1: {1: Fraction(1)}, 4: {4: Fraction(1)}}


# values of every type _integer_row accepts: ints near zero and beyond 2^64,
# bools, Fractions with denominator 1 and Fractions with larger ones
row_values = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80), st.booleans(),
                       st.integers(-5, 5).map(Fraction), small_rationals)
incoming_rows = st.one_of(
    st.dictionaries(st.integers(0, 30), st.integers(-2 ** 80, 2 ** 80), max_size=8),
    st.dictionaries(st.integers(0, 30), row_values, max_size=8))


@settings(max_examples=300, deadline=None)
@given(incoming_rows)
def test_integer_row_matches_the_lcm_scaling(row):
    before = list(row.items())
    before_types = [type(c) for c in row.values()]
    out = linalg._integer_row(row)
    assert out == dense.integer_row(row)
    assert list(out) == list(dense.integer_row(row)), "entries not in the row's order"
    assert all(type(c) is int and c for c in out.values()), "not a row of nonzero ints"
    assert out is not row
    assert list(row.items()) == before and [type(c) for c in row.values()] == before_types


def test_integer_row_copies_int_rows_and_scales_the_rest():
    row = {3: 2 ** 70, 5: -1}
    assert linalg._integer_row(row) == row
    assert linalg._integer_row({0: 0, 2: -4}) == {2: -4}
    for other in ({1: True, 2: 3}, {1: Fraction(2), 2: 3}):
        out = linalg._integer_row(other)
        assert out == {1: other[1], 2: 3} and type(out[1]) is int
    assert linalg._integer_row({1: Fraction(1, 2), 2: 0, 4: 1}) == {1: 1, 4: 2}


def test_dense_int_vectors_stay_ints():
    out = linalg._sparse([3, 0, -2], 3)
    assert out == {0: 3, 2: -2} and all(type(x) is int for x in out.values())
    assert linalg._sparse([Fraction(3, 2), 0, "1/3"], 3) == {0: Fraction(3, 2), 2: Fraction(1, 3)}
    with pytest.raises(InvalidRational, match="boolean"):
        linalg._sparse([1, True], 2)
    with pytest.raises(AmbientMismatch):
        linalg._sparse([1, 2], 3)
    ints = [[2, 0, -4, 6], [0, 3, 3, 0], [2, 3, -1, 6]]
    fracs = [[Fraction(x, d) for x in row] for row, d in zip(ints, (2, 3, 1))]
    span = Subspace.from_rows(ints, 4)
    assert span == Subspace.from_rows(fracs, 4) and span.dim == 2
    assert span.contains([4, 3, -5, 12]) and span.contains([Fraction(1), 0, -2, 3])
    assert not span.contains([1, 0, 0, 0])


def test_library_producers_hand_the_engine_rows_of_nonzero_ints(monkeypatch, cold_quadratic):
    # every row on these paths reaches the engine as nonzero ints, so it is
    # copied as it is; a producer that starts emitting Fractions fails here
    seen = []
    original = linalg._integer_row

    def spy(row):
        seen.append(row)
        return original(row)

    monkeypatch.setattr(linalg, "_integer_row", spy)
    for E, variant, k in [(idem.hecke_minus(3, Fraction(2, 3)), "X", 4),
                          (idem.hecke_minus(2, Fraction(5, 7)), "Xi", 5),
                          (idem.symplectic_idempotent(4), "Xistar", 3),
                          (idem.fourparam_idempotent(2, Fraction(1, 2), 3, Fraction(2, 5)),
                           "Xstar", 4)]:
        graded_dimension(QuadAlgebra(E, variant), k)
    x1, x2 = Gen("x", (1,)), Gen("x", (2,))
    plane = PresentedAlgebra((x1, x2), span_of_polys(
        [NCPoly({(x2, x1): 1, (x1, x2): Fraction(-2, 3)})], (x1, x2), 2))
    diagonal = [[NCPoly.generator(x1), NCPoly.zero()], [NCPoly.zero(), NCPoly.generator(x2)]]
    pair = ManinPair(idem.q_antisymmetrizer(2, Fraction(2, 3)), idem.antisymmetrizer(2))
    assert is_manin(pair, diagonal, plane)
    # a defect whose terms cancel: the zeros are dropped before the engine
    X1, X2 = NCPoly.generator(x1), NCPoly.generator(x2)
    assert is_manin(ManinPair(idem.antisymmetrizer(2), idem.antisymmetrizer(2)),
                    [[X1, X2], [X2, X1]], commutator_relations((x1, x2)))
    assert plane.congruent(NCPoly({(x2, x1, x2): Fraction(3, 4)}),
                           NCPoly({(x1, x2, x2): Fraction(1, 2)}))
    universal_relations(pair).algebra().slice(3)
    generic_pairing(idem.hecke_minus(2, Fraction(2, 3)), 3, "A")
    generic_pairing(idem.hecke_minus(3, Fraction(3, 2)), 3, "S")
    assert len(seen) > 100
    bad = [row for row in seen if not all(type(c) is int and c for c in row.values())]
    assert not bad, bad[:3]
