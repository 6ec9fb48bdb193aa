from fractions import Fraction
import functools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maninalg import idempotents as idem
from maninalg import ideals, suites
from maninalg.freealg import Gen, NCPoly, NonHomogeneous, sparse_coords, word_budget
from maninalg.ideals import (PresentedAlgebra, build_slice_from_subspace, commutator_relations,
                             free_presentation, span_of_polys)
from maninalg.linalg import SparseEchelon, Subspace
from maninalg.manin import ManinPair, universal_relations
from maninalg.quadratic import VARIANTS, QuadAlgebra, dimension_table, graded_dimension
from maninalg.tensor import BudgetExceeded

import dense_reference as dense

A, B, C = Gen("a"), Gen("b"), Gen("c")
F = Fraction


def commutator(x, y):
    return NCPoly({(x, y): 1, (y, x): -1})


def test_degree_two_slice_is_the_relation_space():
    alg = commutator_relations([A, B])
    assert alg.slice(2).subspace() == alg.relations


def test_zero_relations_give_zero_slice():
    alg = free_presentation([A, B])
    assert alg.slice(3).dim == 0


def test_single_commutator_degree_three_slice():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    # {x r, r x : x in {a, b}} are independent
    assert alg.slice(3).dim == 4


def test_membership_basics():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    assert alg.reduces_to_zero(NCPoly.zero())
    assert alg.reduces_to_zero(commutator(A, B))
    anti = PresentedAlgebra.from_polys([A, B], [NCPoly({(A, B): 1, (B, A): 1})])
    assert not anti.reduces_to_zero(commutator(A, B))


def test_commutative_quotient_dimensions():
    for g, gens in ((1, [A]), (2, [A, B]), (3, [A, B, C])):
        alg = commutator_relations(gens)
        for d in (2, 3):
            assert g ** d - alg.slice(d).dim == comb(d + g - 1, d)


def test_membership_stable_under_generator_multiplication():
    alg = PresentedAlgebra.from_polys([A, B], [commutator(A, B)])
    member = commutator(A, B)
    for g in (A, B):
        assert alg.reduces_to_zero(NCPoly.generator(g) * member)
        assert alg.reduces_to_zero(member * NCPoly.generator(g))
    stranger = NCPoly({(A, B): 1, (B, A): 1})
    assert not alg.reduces_to_zero(NCPoly.generator(A) * stranger)


def test_presentation_of_a_relation_subspace():
    rel = Subspace.from_rows([[0, 1, -1, 0]], 4)  # ab - ba on two letters
    alg = PresentedAlgebra([A, B], rel)
    assert alg.slice(3).dim == 4
    assert alg.slice(2).subspace() == rel


def test_non_homogeneous_rejected():
    alg = commutator_relations([A, B])
    with pytest.raises(NonHomogeneous):
        alg.reduces_to_zero(NCPoly({(A,): 1, (A, B): 1}))
    with pytest.raises(NonHomogeneous):
        alg.reduces_to_zero(NCPoly({(A, B): 1, (B, A, B): 1}))
    with pytest.raises(NonHomogeneous):
        PresentedAlgebra.from_polys([A, B], [NCPoly({(A,): 1, (A, B): 1})])
    with pytest.raises(NonHomogeneous):
        PresentedAlgebra.from_polys([A, B], [NCPoly({(A, B, A): 1})])


# homogeneous polynomials of one degree in A, B, C with denominators up to
# 6, zero included, as (degree, polys)
same_degree_polys = st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.dictionaries(st.lists(st.sampled_from([A, B, C]), min_size=d, max_size=d).map(tuple),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6),
                    max_size=4).map(NCPoly), max_size=5)))


@settings(max_examples=80, deadline=None)
@given(same_degree_polys)
def test_span_of_polys_is_the_span_of_the_fraction_rows(case):
    d, polys = case
    gens = [A, B, C]
    pos = {g: i for i, g in enumerate(gens)}
    fraction_rows = [sparse_coords(p, d, pos, 3) for p in polys if not p.is_zero()]
    assert span_of_polys(polys, gens, d) == Subspace.span(fraction_rows, 3 ** d)
    if d > 1:
        with pytest.raises(NonHomogeneous, match=f"degree {d - 1}"):
            span_of_polys(polys + [NCPoly({(A,) * d: 1})], gens, d - 1)


def test_from_polys_is_the_span_of_the_polynomials():
    polys = [commutator(A, B), NCPoly.zero(), commutator(A, B).scale(F(-2, 3)),
             NCPoly({(A, A): 1, (B, C): F(1, 2)})]
    alg = PresentedAlgebra.from_polys([A, B, C], polys)
    assert alg.relations == span_of_polys(polys, [A, B, C], 2)
    assert alg.relations == Subspace.from_rows(
        [[0, 1, 0, -1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, F(1, 2), 0, 0, 0]], 9)
    # degree 3: the span of the shifted commutator {x r, r x}
    words3 = span_of_polys([NCPoly.generator(x) * commutator(A, B) for x in (A, B)]
                           + [commutator(A, B) * NCPoly.generator(x) for x in (A, B)],
                           [A, B], 3)
    assert words3 == PresentedAlgebra.from_polys([A, B], [commutator(A, B)]).slice(3).subspace()


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "8")
    alg = commutator_relations([A, B])
    with pytest.raises(BudgetExceeded):
        alg.slice(4)


def test_astronomical_word_space_is_refused_with_the_budget_named():
    alg = commutator_relations([A, B])
    with pytest.raises(BudgetExceeded, match=f"budget {word_budget()}"):
        build_slice_from_subspace(alg.gens, alg.relations, 100_000)


def test_huge_degree_is_refused_from_the_generator_count_and_degree_alone():
    alg = commutator_relations([A, B, C])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=rf"word space of size 3\^1000000000 exceeds "
                                             rf"budget {word_budget()}"):
        alg.slice(10 ** 9)
    assert time.perf_counter() - start < 1
    assert alg._slices == {}


def test_one_generator_is_refused_past_the_word_budget_from_the_degree_alone(monkeypatch):
    # 1^d = 1 fits every budget, so the word length is what bounds the slice
    alg = commutator_relations([A])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=rf"word of size 1000000000 exceeds "
                                             rf"budget {word_budget()}"):
        alg.slice(10 ** 9)
    assert time.perf_counter() - start < 1
    assert alg._slices == {}
    monkeypatch.setenv("MANIN_BUDGET", "64")
    assert alg.slice(64).dim == 0
    with pytest.raises(BudgetExceeded, match="word of size 65 exceeds budget 64"):
        alg.slice(65)


def test_slices_up_to_the_word_budget_are_built_and_past_it_refused(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "64")   # bit length 7
    alg = commutator_relations([A, B])
    # 2^6 = 64 fits, 2^7 = 128 is formed and refused, 2^8 is refused unformed
    for d in range(2, 7):
        oracle = dense.slice_from_scratch(2, alg.relations, d)
        assert alg.slice(d).echelon.reduced_rows() == oracle.reduced_rows(), d
    with pytest.raises(BudgetExceeded, match="word space of size 128 exceeds budget 64"):
        alg.slice(7)
    with pytest.raises(BudgetExceeded, match=r"word space of size 2\^8 exceeds budget 64"):
        alg.slice(8)
    assert list(alg._slices) == [2, 3, 4, 5, 6]


def test_slice_cache_reused():
    alg = commutator_relations([A, B])
    assert alg.slice(3) is alg.slice(3)


def _presentations() -> dict:
    """Name -> factory of the presentations whose slices are compared."""
    families = {
        "antisymmetrizer3": idem.antisymmetrizer(3),
        "hecke_minus3_q2": idem.hecke_minus(3, F(2)),
        "hecke_minus3_q_minus_half": idem.hecke_minus(3, F(-1, 2)),
        "orthogonal3": idem.orthogonal_idempotent(3),
        "symplectic4": idem.symplectic_idempotent(4),
        "fourparam_2_2_2_1": idem.fourparam_idempotent(2, 2, 2, 1),
    }
    out = {f"{name}.{v}": lambda E=E, v=v: QuadAlgebra(E, v).presentation()
           for name, E in families.items() for v in VARIANTS}
    qhat = [[1, F(2)], [F(1, 2), 1]]
    phat = [[1, F(-1, 3)], [-3, 1]]
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(phat))
    out["manin_universal_2x2"] = lambda: universal_relations(pair, "M").algebra()
    return out


PRESENTATIONS = _presentations()


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_grown_slices_match_slices_from_scratch(name):
    # each degree three ways: grown from the cached slice below, grown from
    # degree 1, and every w1 * r * w2 echelonized by the Fraction oracle
    alg = PRESENTATIONS[name]()
    g = len(alg.gens)
    for d in range(2, 6):
        chained = alg.slice(d).echelon
        fresh = build_slice_from_subspace(alg.gens, alg.relations, d).echelon
        oracle = dense.slice_from_scratch(g, alg.relations, d)
        assert len(chained.leads) == len(fresh.leads) == oracle.rank, d
        assert set(chained.leads) == set(fresh.leads) == set(oracle.pivots), d
        assert chained.reduced_rows() == fresh.reduced_rows() == oracle.reduced_rows(), d


def test_a_slice_grows_from_the_cached_one_below_and_caches_only_its_degree():
    alg = commutator_relations([A, B, C])
    below = alg.slice(3)
    pivots = {lead: dict(below.echelon.pivots[lead]) for lead in below.echelon.leads}
    increments = [{lead: dict(row) for lead, row in rows.items()} for rows in below.increments]
    alg.slice(5)
    assert list(alg._slices) == [3, 5]
    assert alg.slice(3) is below and below.echelon.pivots == pivots
    assert list(below.increments) == increments
    assert alg.slice(5).subspace() == build_slice_from_subspace(
        alg.gens, alg.relations, 5).subspace()


def test_over_budget_slice_is_refused_before_any_lower_degree_is_built(monkeypatch):
    alg = commutator_relations([A, B, C])
    inserted = []
    insert = SparseEchelon.insert
    monkeypatch.setattr(SparseEchelon, "insert",
                        lambda self, row: inserted.append(row) or insert(self, row))
    monkeypatch.setenv("MANIN_BUDGET", "100")  # 3^4 = 81 fits, 3^5 = 243 does not
    with pytest.raises(BudgetExceeded):
        alg.slice(5)
    assert alg._slices == {}
    assert inserted == []
    # the commutators are a Groebner basis: degree 4 is built with no insert
    assert alg.slice(4).dim == 3 ** 4 - comb(4 + 2, 2)
    assert inserted == [] and list(alg._slices) == [4]


def _assert_slice_matches_oracle(grown, oracle_slices, where):
    """grown (an IdealSlice of degree d) has the rank, the leads and the
    reduced rows of the oracle's degree-d slice."""
    oracle = oracle_slices[grown.degree]
    assert grown.dim == len(grown.echelon.leads) == oracle.rank, where
    assert set(grown.echelon.leads) == set(oracle.pivots), where
    assert grown.echelon.reduced_rows() == oracle.reduced_rows(), where


def _certified_by_oracle(oracle_slices, g: int) -> bool:
    """Are the relations a Groebner basis, read from the oracle's slices:
    the rank of degree 3 is the number of degree-3 words holding a lead of
    degree 2 as a factor."""
    leads = set(oracle_slices[2].pivots)
    held = sum(w // g in leads or w % (g * g) in leads for w in range(g ** 3))
    return oracle_slices[3].rank == held


def _oracle_inserts(oracle_slices, g: int, dim_r: int, b: int, d: int) -> int:
    """The rows that growing degree d from the increments of degree b
    inserts: |N_(e-2)| * dim R for each eliminated degree e = b+1..d, where
    N_m holds the words of degree m that the oracle's degree-m slice does
    not lead (every word below degree 2).  Degree 2 is R itself and
    eliminates nothing, and a certified presentation eliminates no
    degree."""
    if _certified_by_oracle(oracle_slices, g):
        return 0
    return dim_r * sum(g ** (e - 2) - (oracle_slices[e - 2].rank if e > 3 else 0)
                       for e in range(max(b + 1, 3), d + 1))


# the presentations of PRESENTATIONS whose relations are not a Groebner basis
UNCERTIFIED = {f"symplectic4.{v}" for v in VARIANTS} | {"fourparam_2_2_2_1.X",
                                                        "fourparam_2_2_2_1.Xi"}


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_slices_grown_from_each_cached_lower_degree_match_the_oracle(name, monkeypatch):
    # the rows u * r come only from normal words u: growing from any cached
    # degree below must give the slice that every w1 * r * w2 spans, after
    # one row per normal word of the eliminated degrees past it and
    # relation; a certified presentation eliminates no degree
    base = PRESENTATIONS[name]()
    g, relations = len(base.gens), base.relations
    dim_r = relations.dim
    oracle = {d: dense.slice_from_scratch(g, relations, d) for d in range(2, 6)}
    assert _certified_by_oracle(oracle, g) == (name not in UNCERTIFIED)
    calls = _count_inserts(monkeypatch)
    for d in range(3, 6):
        for b in range(2, d):
            alg = PRESENTATIONS[name]()
            below = alg.slice(b)
            _assert_slice_matches_oracle(below, oracle, (b,))
            calls[0] = 0
            _assert_slice_matches_oracle(alg.slice(d), oracle, (b, d))
            assert calls[0] == _oracle_inserts(oracle, g, dim_r, b, d), (b, d)
    assert g ** 6 <= word_budget()
    oracle[6] = dense.slice_from_scratch(g, relations, 6)
    alg = PRESENTATIONS[name]()
    for b, d in ((1, 2), (2, 4), (4, 6)):
        calls[0] = 0
        _assert_slice_matches_oracle(alg.slice(d), oracle, ("chain", d))
        assert calls[0] == _oracle_inserts(oracle, g, dim_r, b, d), ("chain", d)
    assert list(alg._slices) == [2, 4, 6]


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_the_first_increment_is_the_relation_rows(name, monkeypatch):
    # E_2 is R: degree 2 takes the reduced rows of R, in their order, and
    # inserts none
    alg = PRESENTATIONS[name]()
    calls = _count_inserts(monkeypatch)
    two = alg.slice(2)
    assert calls[0] == 0
    assert list(two.increments[0].items()) == list(alg.relations.rows.items())
    oracle = {2: dense.slice_from_scratch(len(alg.gens), alg.relations, 2)}
    _assert_slice_matches_oracle(two, oracle, name)


def _count_inserts(monkeypatch) -> list:
    """A one-element list that counts the calls of SparseEchelon.insert."""
    calls = [0]
    insert = SparseEchelon.insert

    def counted(self, row):
        calls[0] += 1
        return insert(self, row)
    monkeypatch.setattr(SparseEchelon, "insert", counted)
    return calls


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_lower_degrees_are_prefixes_of_the_deepest_cached_slice(name, monkeypatch):
    # degrees asked for from the top down and in a shuffled order: each is
    # the oracle's slice and a fresh build's, and one below the deepest
    # cached degree reduces no row at all
    base = PRESENTATIONS[name]()
    g, relations = len(base.gens), base.relations
    oracle = {d: dense.slice_from_scratch(g, relations, d) for d in range(2, 6)}
    fresh = {d: build_slice_from_subspace(base.gens, relations, d).echelon
             for d in range(2, 6)}
    shuffled = [2, 3, 4, 5]
    random.Random(name).shuffle(shuffled)
    calls = _count_inserts(monkeypatch)
    for order in ([5, 4, 3, 2], shuffled):
        alg = PRESENTATIONS[name]()
        for d in order:
            deepest = max(alg._slices, default=0)
            calls[0] = 0
            sl = alg.slice(d)
            if d < deepest:
                assert calls[0] == 0, (order, d)
            ech = sl.echelon
            assert sl.dim == len(ech.leads) == len(fresh[d].leads) == oracle[d].rank, (order, d)
            assert set(ech.leads) == set(fresh[d].leads) == set(oracle[d].pivots), (order, d)
            assert ech.reduced_rows() == fresh[d].reduced_rows() == oracle[d].reduced_rows(), \
                (order, d)
        assert list(alg._slices) == order


def test_lower_degrees_of_the_universal_3x3_algebra_reduce_no_row(monkeypatch):
    qhat = [[1, 2, 3], [F(1, 2), 1, 2], [F(1, 3), F(1, 2), 1]]
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(qhat))
    alg = universal_relations(pair, "M").algebra()
    top = alg.slice(4)
    calls = _count_inserts(monkeypatch)
    for d in (2, 3):
        assert alg.slice(d).increments == top.increments[:d - 1], d
    assert calls[0] == 0
    for d in (2, 3):
        fresh = build_slice_from_subspace(alg.gens, alg.relations, d)
        assert alg.slice(d).subspace() == fresh.subspace(), d


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_each_degree_inserts_one_row_per_normal_word_and_relation(name, monkeypatch):
    # an eliminated degree e inserts dim A_(e-2) * dim R rows, both from
    # scratch and from the cached slice one degree below, not
    # g^(e-2) * dim R; degree 2 is R and inserts no row, and with the
    # certificate no degree is eliminated and none inserts a row
    alg = PRESENTATIONS[name]()
    g, dim_r = len(alg.gens), alg.relations.dim
    oracle = {e: dense.slice_from_scratch(g, alg.relations, e) for e in range(2, 5)}
    quotient = [1, g] + [g ** e - oracle[e].rank for e in range(2, 5)]
    certified = _certified_by_oracle(oracle, g)
    assert certified == (name not in UNCERTIFIED)
    inserts = [quotient[e - 2] * dim_r if e > 2 and not certified else 0 for e in range(6)]
    calls = _count_inserts(monkeypatch)
    for d in range(2, 6):
        calls[0] = 0
        build_slice_from_subspace(alg.gens, alg.relations, d)
        assert calls[0] == sum(inserts[2:d + 1]), d
    chained = PRESENTATIONS[name]()
    for e in range(2, 6):
        calls[0] = 0
        chained.slice(e)
        assert calls[0] == inserts[e], e


@pytest.mark.parametrize("name, variant", [("hecke_minus", "X"), ("hecke_minus", "Xi"),
                                           ("symplectic", "Xistar"), ("symplectic", "X")])
def test_dimension_table_inserts_one_row_per_normal_word_and_relation(name, variant,
                                                                      monkeypatch,
                                                                      cold_quadratic):
    E = idem.hecke_minus(3, F(2)) if name == "hecke_minus" else idem.symplectic_idempotent(4)
    alg = QuadAlgebra(E, variant)
    calls = _count_inserts(monkeypatch)
    dim_r = alg.presentation().relations.dim
    calls[0] = 0
    table = dimension_table(alg, 5)
    # degree 2 is R, echelonized once above and memoized, and a certified
    # table builds no slice at all (hecke_minus)
    top = 2 if name == "hecke_minus" else 5
    assert calls[0] == sum(table[e - 2] for e in range(3, top + 1)) * dim_r


def _probes(g: int, relations, d: int, rng) -> list:
    """Integer rows of degree d: sums of a few w1 * r * w2, each alone and
    plus a random row, and random rows."""
    rels = list(relations.rows.values())
    members = []
    for _ in range(6):
        row = {}
        for _ in range(rng.randint(1, 3)):
            left = rng.randrange(d - 1)
            right_size = g ** (d - 2 - left)
            lead, trail = rng.randrange(g ** left), rng.randrange(right_size)
            c = rng.randint(-3, 3)
            for mid, x in (rng.choice(rels).items() if rels else ()):
                j = (lead * g * g + mid) * right_size + trail
                row[j] = row.get(j, 0) + c * x
        members.append({j: x for j, x in row.items() if x})
    noise = [{rng.randrange(g ** d): rng.randint(-3, 3) or 1 for _ in range(rng.randint(1, 4))}
             for _ in range(6)]
    mixed = [{**m, **n} for m, n in zip(members, noise)]
    return members + noise + mixed


def _word(index: int, gens: tuple, d: int) -> tuple:
    """The word of degree d at ``index`` in the lex word basis of gens."""
    letters = []
    for _ in range(d):
        index, pos = divmod(index, len(gens))
        letters.append(gens[pos])
    return tuple(reversed(letters))


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_contains_rows_agrees_with_congruent_and_the_slice_oracle(name):
    # below degree 2 the oracle slice is empty, so a nonzero row is never a
    # member; from degree 2 the probes hold members and non-members
    alg = PRESENTATIONS[name]()
    g = len(alg.gens)
    rng = random.Random(name)
    for d in range(4):
        assert alg.contains_rows([], d), d
        assert alg._slices == {}, d
        oracle = dense.slice_from_scratch(g, alg.relations, d)
        if d < 2:
            rows = [{w: rng.randint(1, 3)} for w in range(g ** d)]
        else:
            rows = [row for row in _probes(g, alg.relations, d, rng) if row]
        member = [oracle.contains(row) for row in rows]
        # the probes reach both answers wherever the slice is a proper
        # nonzero subspace
        assert not any(member) if d < 2 else len(set(member)) == 2 or \
            oracle.rank in (0, g ** d), d
        for row, want in zip(rows, member):
            assert alg.contains_rows([row], d) == want, (d, row)
            poly = NCPoly({_word(w, alg.gens, d): c for w, c in row.items()})
            assert alg.congruent(poly, NCPoly.zero()) == want, (d, row)
            shift = NCPoly({_word(0, alg.gens, d + 1): 1})
            assert alg.congruent(poly + shift, shift) == want, (d, row)
        assert alg.contains_rows(rows, d) == all(member), d
        held = [row for row, want in zip(rows, member) if want]
        assert alg.contains_rows(held, d), d
        alg = PRESENTATIONS[name]()


def _certified_row(lead: int, d: int, g: int, two: dict) -> dict:
    """The pivot row at a lead of degree d >= 3 of a certified slice, from
    the oracle's pivot rows of degree 2 (two).  The lead holds a lead of
    degree 2 as a factor; for the first such factor l, at position p, the
    row is w1 * r * w2, r being the row of l and |w1| = p."""
    p = 0
    while lead // g ** (d - p - 2) % (g * g) not in two:
        p += 1
    size = g ** (d - p - 2)
    left = lead // (size * g * g) * g * g
    return {(left + mid) * size + lead % size: c
            for mid, c in two[lead // size % (g * g)].items()}


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_rows_built_on_demand_equal_the_rows_the_eager_oracle_shifted(name):
    # the echelon of a slice holds the rows of E_d and shifts a row of a
    # lower increment the first time a reduction reaches its lead; the
    # lead set, membership, the reduced rows and subspace() must be those
    # of the builder that shifted every pivot row up each degree.  In
    # degree 2, and at every degree without the certificate, so must each
    # row; a certified slice eliminates nothing, and its row at a lead
    # w1 * l * w2, l the first degree-2 lead the word holds, is w1 * r * w2
    # for the row r of l
    base = PRESENTATIONS[name]()
    g, relations = len(base.gens), base.relations
    two = dense.eager_slice(g, relations, 2).pivots
    certified = name not in UNCERTIFIED
    rng = random.Random(name)
    for d in range(2, 7):
        eager = dense.eager_slice(g, relations, d)
        probes = _probes(g, relations, d, rng)
        alg = PRESENTATIONS[name]()
        sl = alg.slice(d)
        assert sl.dim == len(eager.leads), d
        assert [lead for lead in sl.increments[-1] if lead not in eager.pivots] == [], d
        ech = sl.echelon
        assert ech.leads == set(eager.pivots) and set(ech.pivots) == set(sl.increments[-1]), d
        assert [ech.contains(p) for p in probes] == [eager.contains(p) for p in probes], d
        if certified and d > 2:
            for lead in sorted(ech.leads):
                assert ech.pivots[lead] == _certified_row(lead, d, g, two), (d, lead)
            assert ech.reduced_rows() == eager.reduced_rows(), d
        else:
            for lead in sorted(ech.pivots):
                assert ech.pivots[lead] == eager.pivots[lead], (d, lead)
            for lead, row in eager.pivots.items():
                assert ech.pivots[lead] == row, (d, lead)
            assert ech.pivots == eager.pivots, d
        assert PRESENTATIONS[name]().slice(d).subspace() == eager.dense_basis(g ** d), d


def _spy_on_slices(monkeypatch) -> tuple:
    """Records every slice built, and the number of letters by which each
    lookup that builds a shifted row shifts it."""
    built, shifts = [], []
    build, missing = ideals.build_slice_from_subspace, ideals._ShiftedRows.__missing__

    def shifted(self, lead):
        shifts.append(next(self.d - j for j, rows in enumerate(self.increments, 2)
                           if lead // self.g ** (self.d - j) in rows))
        return missing(self, lead)
    monkeypatch.setattr(ideals, "build_slice_from_subspace",
                        lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(ideals._ShiftedRows, "__missing__", shifted)
    return built, shifts


@pytest.mark.parametrize("E, variant, k, certified", [
    (idem.hecke_minus(3, F(2)), "X", 6, True), (idem.hecke_minus(3, F(2)), "Xi", 6, True),
    (idem.symplectic_idempotent(4), "Xistar", 5, False),
    (idem.orthogonal_idempotent(3), "Xstar", 6, True),
    (idem.fourparam_idempotent(2, 2, 2, 1), "X", 6, False)])
def test_graded_dimensions_build_no_shift_deeper_than_one_letter(E, variant, k, certified,
                                                                monkeypatch, cold_quadratic):
    # a certified graded dimension builds no slice and counts normal words;
    # an uncertified one builds the degree-k slice alone and reads the
    # ranks of its increments.  No slice, not even the degree-k one read
    # directly, builds its echelon, and no row is shifted by more than one
    # generator: the overlap check that decides between the two shifts E_2
    # into degree 3
    alg = QuadAlgebra(E, variant)
    want = [E.row_dim ** e - dense.slice_from_scratch(E.row_dim, alg.presentation().relations,
                                                     e).rank if e >= 2 else E.row_dim ** e
            for e in range(k + 1)]
    built, shifts = _spy_on_slices(monkeypatch)
    assert graded_dimension(alg, k) == want[k]
    cold_quadratic()
    assert dimension_table(alg, k) == want
    assert [s.degree for s in built] == ([] if certified else [k, k])
    # warm, the memoized table builds no slice
    cold = list(built)
    built.clear()
    assert dimension_table(alg, k) == want
    assert built == []
    assert alg.presentation().slice(k).dim == E.row_dim ** k - want[k]
    assert built[-1].degree == k
    for s in cold + built:
        assert "echelon" not in vars(s), s.degree
    assert set(shifts) <= {1}


# --- certified slices --------------------------------------------------------
# When the relations are a Groebner basis, decided from the overlaps of E_2,
# a slice is built with no elimination, from the rows u * r alone.  Every
# catalog algebra in all four variants, and three universal-relation
# ambients, is compared at each degree within reach with the Fraction oracle
# that echelonizes every w1 * r * w2, and probed for membership with
# hypothesis-drawn members and non-members.

# the catalog algebras are compared at each degree d <= 6 with g^d words at
# most this many
CATALOG_WORDS = 1024

# the catalog algebras whose relations are not a Groebner basis
UNCERTIFIED_CATALOG = ({f"Btilde_4.{v}" for v in VARIANTS}
                       | {"FourParam.X", "FourParam.Xi", "Lie_sl2.Xi"})


def _u33():
    """U_{qhat,phat} of two generic 3 x 3 parameter matrices: 9 generators."""
    qhat = [[1, 2, 3], [F(1, 2), 1, -2], [F(1, 3), F(-1, 2), 1]]
    phat = [[1, F(-1, 2), 5], [-2, 1, F(2, 3)], [F(1, 5), F(3, 2), 1]]
    pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                     idem.parameterized_antisymmetrizer(phat))
    return universal_relations(pair, "M").algebra()


def _product_2x2x2():
    """The suite's ambient of M N over U_{qhat,phat} (x) U_{phat,rhat}, both
    2 x 2: 8 generators."""
    return suites._tensor_product_setup()[-1]


def _tensor_2x3x2():
    """``suites._product_ambient`` of a 2 x 3 M and a 3 x 2 N: 12
    generators, whose degree-4 word space fills the default word budget."""
    anti = idem.parameterized_antisymmetrizer
    qhat = [[1, F(2)], [F(1, 2), 1]]
    phat = [[1, 2, F(-1, 2)], [F(1, 2), 1, 3], [-2, F(1, 3), 1]]
    rhat = [[1, F(-2)], [F(-1, 2), 1]]
    return suites._product_ambient(ManinPair(anti(qhat), anti(phat)),
                                   ManinPair(anti(phat), anti(rhat)))[-1]


AMBIENTS = {"u33": _u33, "product_2x2x2": _product_2x2x2, "tensor_2x3x2": _tensor_2x3x2}


@functools.lru_cache(maxsize=None)
def _catalog() -> dict:
    """'<catalog name>.<variant>' -> its QuadAlgebra, for every catalog
    instance of the suite in all four variants."""
    return {f"{name}.{v}": QuadAlgebra(E, v)
            for name, E in suites.catalog_instances() for v in VARIANTS}


def _fresh_presentation(name: str):
    """A new presentation of a catalog algebra or an ambient, no slice built."""
    if name in AMBIENTS:
        return AMBIENTS[name]()
    return _catalog()[name].presentation()


@functools.lru_cache(maxsize=None)
def _cached_presentation(name: str):
    """One presentation per name, shared by the hypothesis examples."""
    return _fresh_presentation(name)


def _top_degree(name: str, g: int) -> int:
    """The deepest degree compared: within the word budget for an ambient,
    within CATALOG_WORDS and 6 for a catalog algebra."""
    cap = word_budget() if name in AMBIENTS else CATALOG_WORDS
    d = 2
    while g ** (d + 1) <= cap and (name in AMBIENTS or d < 6):
        d += 1
    return d


@functools.lru_cache(maxsize=None)
def _oracle(name: str, d: int):
    alg = _cached_presentation(name)
    return dense.slice_from_scratch(len(alg.gens), alg.relations, d)


def _oracle_certified(name: str) -> bool:
    return _certified_by_oracle({e: _oracle(name, e) for e in (2, 3)},
                                len(_cached_presentation(name).gens))


def test_105_catalog_algebras_certify_and_7_do_not():
    certified = {name for name in _catalog() if _oracle_certified(name)}
    assert len(_catalog()) == 112 and len(certified) == 105
    assert set(_catalog()) - certified == UNCERTIFIED_CATALOG
    for name in _catalog():
        alg = _cached_presentation(name)
        assert ideals._certified(len(alg.gens), alg.relations) == (name in certified), name
    for name in AMBIENTS:
        assert _oracle_certified(name), name
        alg = _cached_presentation(name)
        assert ideals._certified(len(alg.gens), alg.relations), name


@pytest.mark.parametrize("name", sorted(_catalog()) + sorted(AMBIENTS))
def test_slices_match_the_dense_oracle_at_each_degree(name, monkeypatch):
    # each degree grown from the cached one below and built from nothing,
    # after the inserts of the eliminated degrees: with the certificate
    # none
    alg = _fresh_presentation(name)
    g, dim_r = len(alg.gens), alg.relations.dim
    calls = _count_inserts(monkeypatch)
    for d in range(2, _top_degree(name, g) + 1):
        oracle = {e: _oracle(name, e) for e in range(2, max(d, 3) + 1)}
        calls[0] = 0
        _assert_slice_matches_oracle(alg.slice(d), oracle, ("grown", d))
        assert calls[0] == _oracle_inserts(oracle, g, dim_r, d - 1, d), ("grown", d)
        calls[0] = 0
        fresh = build_slice_from_subspace(alg.gens, alg.relations, d)
        assert calls[0] == _oracle_inserts(oracle, g, dim_r, 1, d), ("fresh", d)
        _assert_slice_matches_oracle(fresh, oracle, ("fresh", d))
        if g ** d <= CATALOG_WORDS:
            assert fresh.subspace() == Subspace.span(list(oracle[d].reduced_rows().values()),
                                                     g ** d), d


@st.composite
def drawn_probes(draw):
    """(name, degree, member, other): member is a sum of a few c * w1 r w2
    over the relation rows r (zero without relations), other is member
    plus a few random words."""
    name = draw(st.sampled_from(sorted(_catalog()) + sorted(AMBIENTS)))
    alg = _cached_presentation(name)
    g = len(alg.gens)
    d = draw(st.integers(2, _top_degree(name, g)))
    rels = list(alg.relations.rows.values())
    member = {}
    for _ in range(draw(st.integers(1, 3)) if rels else 0):
        left = draw(st.integers(0, d - 2))
        right_size = g ** (d - 2 - left)
        w1 = draw(st.integers(0, g ** left - 1))
        w2 = draw(st.integers(0, right_size - 1))
        c = draw(st.integers(-3, 3).filter(bool))
        for mid, x in draw(st.sampled_from(rels)).items():
            j = (w1 * g * g + mid) * right_size + w2
            member[j] = member.get(j, 0) + c * x
    noise = draw(st.dictionaries(st.integers(0, g ** d - 1), st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=3))
    other = dict(member)
    for j, c in noise.items():
        other[j] = other.get(j, 0) + c
    return name, d, member, other


@settings(max_examples=150, deadline=None)
@given(drawn_probes())
def test_membership_of_drawn_members_and_non_members_agrees_with_the_oracle(probe):
    name, d, member, other = probe
    alg, oracle = _cached_presentation(name), _oracle(name, d)
    assert oracle.contains(member) and alg.contains_rows([member], d)
    assert alg.contains_rows([other], d) == oracle.contains(other)
    assert alg.contains_rows([member, other], d) == oracle.contains(other)


@pytest.mark.parametrize("name", sorted(_catalog()))
def test_a_slice_grown_from_the_cached_degree_3_inserts_no_row_past_it(name, monkeypatch):
    # slice(3), then slice(6) from its increments: certified, degrees 4..6
    # insert nothing and lead with exactly the words that hold a lead of
    # degree 2; uncertified, they are eliminated
    alg = _fresh_presentation(name)
    g = len(alg.gens)
    assert g ** 6 <= word_budget()
    two = alg.slice(3).increments[0]
    calls = _count_inserts(monkeypatch)
    top = alg.slice(6)
    assert list(alg._slices) == [3, 6]
    if name in UNCERTIFIED_CATALOG:
        assert calls[0] > 0
        assert top.dim == len(dense.eager_slice(g, alg.relations, 6).leads)
        return
    assert calls[0] == 0
    held = {w for w in range(g ** 6)
            if any(w // g ** (4 - p) % (g * g) in two for p in range(5))}
    assert top.echelon.leads == held
    assert top.dim == len(held) == g ** 6 - alg.dimensions(6)[6]


def test_dimensions_refuse_like_the_slice_before_building_any(monkeypatch):
    alg = QuadAlgebra(idem.antisymmetrizer(3), "X").presentation()
    builds = []
    build = ideals.build_slice_from_subspace
    monkeypatch.setattr(ideals, "build_slice_from_subspace",
                        lambda *args: builds.append(args[2]) or build(*args))
    monkeypatch.setenv("MANIN_BUDGET", "100")  # 3^4 = 81 words fit, 3^5 = 243 do not
    with pytest.raises(BudgetExceeded) as refused:
        alg.dimensions(5)
    assert builds == [] and alg._slices == {}
    with pytest.raises(BudgetExceeded) as sliced:
        alg.slice(5)
    assert str(refused.value) == str(sliced.value)
    builds.clear()
    assert alg.dimensions(4) == [comb(k + 2, k) for k in range(5)]
    assert builds == []  # certified: the normal words are counted
    assert alg.dimensions(0) == [1] and alg.dimensions(1) == [1, 3]
    with pytest.raises(ValueError, match="max degree must be non-negative, got -1"):
        alg.dimensions(-1)
    # one generator: only the length of a word bounds its word space
    line = free_presentation([A])
    with pytest.raises(BudgetExceeded, match="word of size 101 exceeds budget 100"):
        line.dimensions(101)
    assert line.dimensions(100) == [1] * 101


def test_dimensions_of_an_uncertified_algebra_read_the_top_slice():
    name = "FourParam.X"
    alg = _fresh_presentation(name)
    g = len(alg.gens)
    top = _top_degree(name, g)
    dims = alg.dimensions(top)
    assert list(alg._slices) == [top]
    assert not ideals._certified(g, alg.relations)
    assert dims == [g ** d - _oracle(name, d).rank if d > 1 else g ** d
                    for d in range(top + 1)]


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_dimensions_of_the_universal_algebra_of_two_antisymmetrizers(n, m):
    # U = U_{A_n, A_m} on n * m generators, checked against the Fraction
    # oracle at every degree within the word budget and against the series
    # identity H_U(t) * H_{U^!}(-t) = 1 of a Koszul algebra, where U^! has
    # dimension C(n, k) * C(m + k - 1, k) in degree k, the product of those
    # of the exterior algebra on n and the symmetric algebra on m generators
    alg = universal_relations(ManinPair(idem.antisymmetrizer(n),
                                        idem.antisymmetrizer(m))).algebra()
    g = len(alg.gens)
    top = max(d for d in range(2, 13) if g ** d <= word_budget())
    dims = alg.dimensions(top)
    dual = [(-1) ** k * comb(n, k) * comb(m + k - 1, k) for k in range(top + 1)]
    series = [1]
    for d in range(1, top + 1):
        series.append(-sum(dual[k] * series[d - k] for k in range(1, d + 1)))
    assert dims == series
    for d in range(2, top + 1):
        assert dims[d] == g ** d - dense.slice_from_scratch(g, alg.relations, d).rank, d
