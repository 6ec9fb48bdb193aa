from fractions import Fraction
import random
from math import comb

import pytest

from maninalg import idempotents as idem
from maninalg import ideals
from maninalg.freealg import Gen, NCPoly, NonHomogeneous, word_budget
from maninalg.ideals import (PresentedAlgebra, build_slice_from_subspace,
                             commutator_relations, free_presentation, span_of_polys)
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
        assert chained.rank == fresh.rank == oracle.rank, d
        assert set(chained.leads) == set(fresh.leads) == set(oracle.pivots), d
        assert chained.reduced_rows() == fresh.reduced_rows() == oracle.reduced_rows(), d


def test_a_slice_grows_from_the_cached_one_below_and_caches_only_its_degree():
    alg = commutator_relations([A, B, C])
    below = alg.slice(3)
    pivots = {lead: dict(below.echelon.pivots[lead]) for lead in below.echelon.leads}
    increments = [{lead: dict(row) for lead, row in rows.items()} for rows in below.increments]
    top_rows = {lead: dict(row) for lead, row in below.top_rows.items()}
    alg.slice(5)
    assert list(alg._slices) == [3, 5]
    assert alg.slice(3) is below and below.echelon.pivots == pivots
    assert list(below.increments) == increments and below.top_rows == top_rows
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
    alg.slice(4)
    assert inserted and list(alg._slices) == [4]


def test_a_slice_grows_only_from_a_lower_degree_of_the_same_generators():
    alg = commutator_relations([A, B])
    with pytest.raises(ValueError):
        build_slice_from_subspace(alg.gens, alg.relations, 3, below=alg.slice(3))
    with pytest.raises(ValueError):
        build_slice_from_subspace((B, A), alg.relations, 4, below=alg.slice(3))


def _assert_slice_matches_oracle(grown, oracle_slices, where):
    """grown (an IdealSlice of degree d) has the rank, the leads and the
    reduced rows of the oracle's degree-d slice, and lists as normal_below
    the words of degree d - 1 that the oracle's degree-(d - 1) slice does
    not lead."""
    d, g = grown.degree, grown.generator_count
    oracle = oracle_slices[d]
    assert grown.dim == grown.echelon.rank == oracle.rank, where
    assert set(grown.echelon.leads) == set(oracle.pivots), where
    assert grown.echelon.reduced_rows() == oracle.reduced_rows(), where
    leads_below = oracle_slices[d - 1].pivots if d > 2 else {}
    normal = tuple(w for w in range(g ** (d - 1)) if w not in leads_below)
    assert grown.normal_below == normal, where


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_slices_grown_from_each_cached_lower_degree_match_the_oracle(name):
    # the rows u * r come only from normal words u: growing from any cached
    # degree below must give the slice that every w1 * r * w2 spans
    base = PRESENTATIONS[name]()
    g, relations = len(base.gens), base.relations
    oracle = {d: dense.slice_from_scratch(g, relations, d) for d in range(2, 6)}
    for d in range(3, 6):
        for b in range(2, d):
            alg = PRESENTATIONS[name]()
            below = alg.slice(b)
            _assert_slice_matches_oracle(below, oracle, (b,))
            _assert_slice_matches_oracle(alg.slice(d), oracle, (b, d))
    assert g ** 6 <= word_budget()
    oracle[6] = dense.slice_from_scratch(g, relations, 6)
    alg = PRESENTATIONS[name]()
    for d in (2, 4, 6):
        _assert_slice_matches_oracle(alg.slice(d), oracle, ("chain", d))
    assert list(alg._slices) == [2, 4, 6]


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
def test_each_degree_inserts_one_row_per_normal_word_and_relation(name, monkeypatch):
    # degree e inserts dim A_(e-2) * dim R rows, both from scratch and from
    # the cached slice one degree below, not g^(e-2) * dim R
    alg = PRESENTATIONS[name]()
    g, dim_r = len(alg.gens), alg.relations.dim
    quotient = [1, g] + [g ** e - alg.slice(e).dim for e in range(2, 5)]
    calls = _count_inserts(monkeypatch)
    for d in range(2, 6):
        calls[0] = 0
        build_slice_from_subspace(alg.gens, alg.relations, d)
        assert calls[0] == sum(quotient[e - 2] for e in range(2, d + 1)) * dim_r, d
    chained = PRESENTATIONS[name]()
    for e in range(2, 6):
        calls[0] = 0
        chained.slice(e)
        assert calls[0] == quotient[e - 2] * dim_r, e


@pytest.mark.parametrize("name, variant", [("hecke_minus", "X"), ("hecke_minus", "Xi"),
                                           ("symplectic", "Xistar"), ("symplectic", "X")])
def test_dimension_table_inserts_one_row_per_normal_word_and_relation(name, variant,
                                                                      monkeypatch):
    E = idem.hecke_minus(3, F(2)) if name == "hecke_minus" else idem.symplectic_idempotent(4)
    alg = QuadAlgebra(E, variant)
    calls = _count_inserts(monkeypatch)
    dim_r = alg.presentation().relations.dim
    echelonizing_r, calls[0] = calls[0], 0
    table = dimension_table(alg, 5)
    assert calls[0] - echelonizing_r == sum(table[e - 2] for e in range(2, 6)) * dim_r


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


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_rows_built_on_demand_equal_the_rows_the_eager_oracle_shifted(name):
    # the echelon of a slice holds the rows of its top two degrees and
    # shifts a deeper increment row the first time a reduction reaches its
    # lead; each row, the lead set, membership and subspace() must be those
    # of the builder that shifted every pivot row up each degree
    base = PRESENTATIONS[name]()
    g, relations = len(base.gens), base.relations
    rng = random.Random(name)
    for d in range(2, 7):
        eager, normal = dense.eager_slice(g, relations, d)
        probes = _probes(g, relations, d, rng)
        alg = PRESENTATIONS[name]()
        sl = alg.slice(d)
        assert sl.dim == eager.rank and sl.normal_below == normal, d
        assert [lead for lead in sl.top_rows if lead not in eager.pivots] == [], d
        ech = sl.echelon
        assert ech.leads == set(eager.pivots) and set(ech.pivots) == set(sl.top_rows), d
        assert [ech.contains(p) for p in probes] == [eager.contains(p) for p in probes], d
        for lead in sorted(ech.pivots):
            assert ech.pivots[lead] == eager.pivots[lead], (d, lead)
        for lead, row in eager.pivots.items():
            assert ech.pivots[lead] == row, (d, lead)
        assert ech.pivots == eager.pivots, d
        assert PRESENTATIONS[name]().slice(d).subspace() == eager.dense_basis(g ** d), d


def _spy_on_slices(monkeypatch) -> tuple:
    """Records every slice built and every lookup that builds a deeper
    shifted row."""
    built, deeper = [], []
    build, missing = ideals.build_slice_from_subspace, ideals._ShiftedRows.__missing__
    monkeypatch.setattr(ideals, "build_slice_from_subspace",
                        lambda *args: built.append(build(*args)) or built[-1])
    monkeypatch.setattr(ideals._ShiftedRows, "__missing__",
                        lambda self, lead: deeper.append(lead) or missing(self, lead))
    return built, deeper


@pytest.mark.parametrize("E, variant, k", [
    (idem.hecke_minus(3, F(2)), "X", 6), (idem.hecke_minus(3, F(2)), "Xi", 6),
    (idem.symplectic_idempotent(4), "Xistar", 5), (idem.orthogonal_idempotent(3), "Xstar", 6),
    (idem.fourparam_idempotent(2, 2, 2, 1), "X", 6)])
def test_graded_dimensions_build_no_shift_deeper_than_one_letter(E, variant, k, monkeypatch):
    # a graded dimension reads only the rank: each degree e holds E_(e-1)
    # shifted by one generator and E_e, and no echelon of a slice is built
    alg = QuadAlgebra(E, variant)
    want = [E.row_dim ** e - dense.slice_from_scratch(E.row_dim, alg.presentation().relations,
                                                     e).rank if e >= 2 else E.row_dim ** e
            for e in range(k + 1)]
    built, deeper = _spy_on_slices(monkeypatch)
    assert graded_dimension(alg, k) == want[k]
    assert dimension_table(alg, k) == want
    assert [s.degree for s in built] == [k] + list(range(2, k + 1))
    for s in built:
        assert "echelon" not in vars(s), s.degree
        below = s.increments[-2] if s.degree > 2 else {}
        assert len(s.top_rows) == E.row_dim * len(below) + len(s.increments[-1]), s.degree
    assert deeper == []
