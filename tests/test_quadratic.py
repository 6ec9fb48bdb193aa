from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maninalg import ideals, idempotents as idem
from maninalg.quadratic import (VARIANTS, QuadAlgebra, _dimension_table,
                                component_subspaces, dimension_table, graded_dimension,
                                relation_space)
from maninalg.freealg import Gen
from maninalg.linalg import Subspace
from maninalg.suites import catalog_instances, generic_parameter_matrix
from maninalg.tensor import BudgetExceeded, flatten_index, tensor_budget

import dense_reference as dense

F = Fraction


def vec(ambient, entries):
    v = [F(0)] * ambient
    for pos, c in entries.items():
        v[pos] = F(c)
    return v


def test_relation_space_polynomials():
    # X_{A_2}: the single antisymmetry relation x1 x2 - x2 x1
    rel = relation_space(QuadAlgebra(idem.antisymmetrizer(2), "X"))
    assert rel.dim == 1
    assert rel.contains(vec(4, {flatten_index((1, 2), 2): 1,
                                flatten_index((2, 1), 2): -1}))


def test_relation_space_grassmann():
    # Xi_{A_2}: psi1^2, psi2^2, psi1 psi2 + psi2 psi1
    rel = relation_space(QuadAlgebra(idem.antisymmetrizer(2), "Xi"))
    assert rel.dim == 3
    for entries in ({flatten_index((1, 1), 2): 1},
                    {flatten_index((2, 2), 2): 1},
                    {flatten_index((1, 2), 2): 1, flatten_index((2, 1), 2): 1}):
        assert rel.contains(vec(4, entries))


def test_relation_space_orthogonal():
    # X_{B_3}: three symmetry relations plus the quadric sum x^i x^{i'}
    rel = relation_space(QuadAlgebra(idem.orthogonal_idempotent(3), "X"))
    assert rel.dim == 4
    quadric = {flatten_index((i, 4 - i), 3): 1 for i in (1, 2, 3)}
    assert rel.contains(vec(9, quadric))


def test_multiparam_graded_dimensions():
    for n in (2, 3):
        E = idem.parameterized_antisymmetrizer(generic_parameter_matrix(n))
        for k in range(5):
            assert graded_dimension(QuadAlgebra(E, "X"), k) == comb(k + n - 1, k)
            assert graded_dimension(QuadAlgebra(E, "Xi"), k) == comb(n, k)


def test_left_equivalent_idempotents_share_dimensions():
    q = F(2)
    E1 = idem.q_antisymmetrizer(3, q)
    E2 = idem.hecke_minus(3, q)
    assert relation_space(QuadAlgebra(E1, "X")) == relation_space(QuadAlgebra(E2, "X"))
    for k in range(4):
        assert graded_dimension(QuadAlgebra(E1, "X"), k) == \
            graded_dimension(QuadAlgebra(E2, "X"), k)
        assert graded_dimension(QuadAlgebra(E1, "Xi"), k) == \
            graded_dimension(QuadAlgebra(E2, "Xi"), k)


def test_symplectic_degree_three_vanishes():
    E = idem.symplectic_idempotent(4)
    assert graded_dimension(QuadAlgebra(E, "Xi"), 3) == 0
    assert dimension_table(QuadAlgebra(E, "Xi"), 3) == [1, 4, 5, 0]


def test_component_subspaces_degree_two():
    E = idem.orthogonal_idempotent(3)
    v2, _ = component_subspaces(E, 2, "S")
    assert v2.basis == dense.kernel(E.matrix)
    w2, _ = component_subspaces(E, 2, "A")
    S = idem.TensorOperator.identity(3, 2) - E
    assert w2.basis == dense.kernel(S.matrix)


def _differential_cases():
    families = {
        "antisymmetrizer": idem.antisymmetrizer,
        "hecke_minus_q2": lambda n: idem.hecke_minus(n, 2),
        "hecke_minus_q-1/2": lambda n: idem.hecke_minus(n, F(-1, 2)),
        "multiparam": lambda n: idem.parameterized_antisymmetrizer(
            generic_parameter_matrix(n)),
    }
    for name, build in families.items():
        for n, k in ((2, 3), (2, 4), (3, 3), (3, 4)):
            yield pytest.param(build(n), k, id=f"{name}-n{n}-k{k}")
    for k in (3, 4):
        yield pytest.param(idem.orthogonal_idempotent(3), k, id=f"orthogonal-n3-k{k}")
        # left and right sides differ here (dim W_3 != dim Wbar_3), so a
        # transposed slice would show
        yield pytest.param(idem.fourparam_idempotent(1, 2, 1, 1), k,
                           id=f"fourparam-n3-k{k}")
    for k in (2, 3):
        yield pytest.param(idem.symplectic_idempotent(4), k, id=f"symplectic-n4-k{k}")


@pytest.mark.parametrize("E, k", _differential_cases())
def test_component_subspaces_match_dense_joint_kernels(E, k, cold_quadratic):
    # cold, so a symmetric E takes the one-slice path at every k
    S = idem.TensorOperator.identity(E.row_dim, 2) - E
    for kind, killer in (("S", E), ("A", S)):
        right, left = component_subspaces(E, k, kind)
        assert (right is left) == (E.transpose() == E), kind
        assert (right.basis, left.basis) == dense.joint_kernels(killer, k), kind


def test_grassmann_degree_three_dies_on_two_letters():
    E = idem.antisymmetrizer(2)
    w3, wbar3 = component_subspaces(E, 3, "A")
    assert w3.dim == 0 and wbar3.dim == 0
    v3, _ = component_subspaces(E, 3, "S")
    assert v3.dim == comb(4, 3)


def test_multiparam_intersection_dimension():
    E = idem.parameterized_antisymmetrizer(generic_parameter_matrix(3))
    v3, _ = component_subspaces(E, 3, "S")
    assert v3.dim == comb(5, 3)  # 10, the degree-3 polynomial component


def test_fourparam_dimension_difference():
    for params in ((1, 1, 1, 1), (1, 2, 1, 1), (2, 3, 5, F(1, 2))):
        E = idem.fourparam_idempotent(*params)
        x3 = graded_dimension(QuadAlgebra(E, "X"), 3)
        xi3 = graded_dimension(QuadAlgebra(E, "Xi"), 3)
        assert x3 - xi3 == 9
    # the dual side never moves: Xi* stays one-dimensional in degree 3
    E = idem.fourparam_idempotent(1, 2, 1, 1)
    assert graded_dimension(QuadAlgebra(E, "Xistar"), 3) == 1
    assert graded_dimension(QuadAlgebra(E, "Xi"), 3) == 0


def test_lie_dimension():
    E = idem.lie_idempotent(idem.sl2_brackets(), 3)
    assert graded_dimension(QuadAlgebra(E, "X"), 2) == 10  # 16 - 6 relations


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "8")
    E = idem.antisymmetrizer(2)
    with pytest.raises(BudgetExceeded):
        graded_dimension(QuadAlgebra(E, "X"), 4)


def _count_slice_builds(monkeypatch):
    builds = []
    build = ideals.build_slice_from_subspace
    monkeypatch.setattr(ideals, "build_slice_from_subspace",
                        lambda *args: builds.append(args[2]) or build(*args))
    return builds


def test_dimension_table_refuses_before_building_any_degree(monkeypatch, cold_quadratic):
    builds = _count_slice_builds(monkeypatch)
    alg = QuadAlgebra(idem.antisymmetrizer(3), "X")
    monkeypatch.setenv("MANIN_BUDGET", "100")  # 3^4 = 81 fits, 3^5 = 243 does not
    with pytest.raises(BudgetExceeded):
        dimension_table(alg, 5)
    assert builds == []
    assert dimension_table(alg, 4) == [comb(k + 2, k) for k in range(5)]
    assert builds == []  # certified: the normal words are counted
    # not a Groebner basis: the degree-4 slice alone is built
    alg = QuadAlgebra(idem.fourparam_idempotent(2, 3, F(1, 2), 1), "X")
    want = [1, 3] + [3 ** k - alg.presentation().slice(k).dim for k in (2, 3, 4)]
    builds.clear()
    assert dimension_table(alg, 4) == want
    assert builds == [4]


def test_component_subspaces_miss_of_a_symmetric_idempotent_builds_one_slice(
        monkeypatch, cold_quadratic):
    # hecke_minus is symmetric: Xistar and Xi share their relations, and so
    # W_3 and Wbar_3 are one subspace
    builds = _count_slice_builds(monkeypatch)
    right, left = component_subspaces(idem.hecke_minus(3, 2), 3, "A")
    assert builds == [3]
    assert right is left


def test_component_subspaces_miss_builds_two_slices(monkeypatch, cold_quadratic):
    # a non-symmetric E: X and Xstar have different relations
    E = idem.fourparam_idempotent(2, 3, F(1, 2), 1)
    assert relation_space(QuadAlgebra(E, "X")) != relation_space(QuadAlgebra(E, "Xstar"))
    builds = _count_slice_builds(monkeypatch)
    right, left = component_subspaces(E, 3, "S")
    assert builds == [3, 3]
    assert right != left


def test_component_subspaces_memo_is_by_value(monkeypatch, cold_quadratic):
    first = component_subspaces(idem.orthogonal_idempotent(3), 3, "S")
    builds = _count_slice_builds(monkeypatch)
    again = idem.orthogonal_idempotent(3)  # equal, but a separate object
    assert all(a is b for a, b in zip(component_subspaces(again, 3, "S"), first))
    assert builds == []


def test_component_subspaces_of_idempotents_with_equal_relations_share_slices(
        monkeypatch, cold_quadratic):
    # q_antisymmetrizer and hecke_minus are left equivalent: the relations of
    # X are the same, and hecke_minus is symmetric, so its V_3 and Vbar_3 are
    # both the V_3 of q_antisymmetrizer
    E1, E2 = idem.q_antisymmetrizer(3, F(2)), idem.hecke_minus(3, F(2))
    v3, _ = component_subspaces(E1, 3, "S")
    builds = _count_slice_builds(monkeypatch)
    right, left = component_subspaces(E2, 3, "S")
    assert builds == []
    assert right is left is v3


def test_component_subspaces_budget_checked_before_memo(monkeypatch):
    E = idem.antisymmetrizer(2)
    component_subspaces(E, 4, "A")
    monkeypatch.setenv("MANIN_BUDGET", "8")  # 2^4 = 16 words
    with pytest.raises(BudgetExceeded):
        component_subspaces(E, 4, "A")


def test_dimension_table_memo_builds_no_slice_when_warm(monkeypatch, cold_quadratic):
    alg = QuadAlgebra(idem.fourparam_idempotent(2, 3, F(1, 2), 1), "X")
    first = dimension_table(alg, 4)
    builds = _count_slice_builds(monkeypatch)
    assert dimension_table(alg, 4) == first
    assert dimension_table(QuadAlgebra(alg.idempotent, "X"), 4) == first
    assert builds == []


SYMMETRIC = [(name, E) for name, E in catalog_instances() if E.transpose() == E]


@pytest.mark.parametrize("name, E", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_starred_tables_of_a_symmetric_idempotent_build_no_slice(name, E, monkeypatch,
                                                                  cold_quadratic):
    # A = A^T: Xstar has the relations of X and Xistar those of Xi, so the
    # starred table is the memoized plain one
    builds = _count_slice_builds(monkeypatch)
    for plain, starred in (("X", "Xstar"), ("Xi", "Xistar")):
        misses = _dimension_table.cache_info().misses
        want = dimension_table(QuadAlgebra(E, plain), 4)
        assert _dimension_table.cache_info().misses == misses + 1, plain
        builds.clear()
        assert dimension_table(QuadAlgebra(E, starred), 4) == want, starred
        assert builds == [], starred
        assert _dimension_table.cache_info().misses == misses + 1, starred


def test_starred_table_with_other_relations_is_built(monkeypatch, cold_quadratic):
    E = dict(catalog_instances())["Aq_2"]
    assert relation_space(QuadAlgebra(E, "X")) != relation_space(QuadAlgebra(E, "Xstar"))
    want = dimension_table(QuadAlgebra(E, "X"), 4)
    builds = _count_slice_builds(monkeypatch)
    misses = _dimension_table.cache_info().misses
    assert dimension_table(QuadAlgebra(E, "Xstar"), 4) == want  # both quantum planes
    assert _dimension_table.cache_info().misses == misses + 1
    assert builds == []  # certified: the normal words are counted


def test_dimension_table_returns_a_new_list(cold_quadratic):
    alg = QuadAlgebra(idem.orthogonal_idempotent(3), "X")
    table = dimension_table(alg, 4)
    want = list(table)
    table[4] = -1
    table.append(0)
    assert dimension_table(alg, 4) == want
    assert graded_dimension(alg, 4) == want[4]


def test_dimension_table_budget_checked_before_memo(monkeypatch, cold_quadratic):
    alg = QuadAlgebra(idem.antisymmetrizer(2), "Xi")
    dimension_table(alg, 4)
    monkeypatch.setenv("MANIN_BUDGET", "8")  # 2^4 = 16 words
    with pytest.raises(BudgetExceeded):
        dimension_table(alg, 4)


# The catalog algebras whose degree-2 relations are not a Groebner basis in
# the given generator order: their normal-word counts overshoot.
UNCERTIFIED = {("Btilde_4", v) for v in VARIANTS} | {
    ("FourParam", "X"), ("FourParam", "Xi"), ("Lie_sl2", "Xi")}


def _naive_count(relations: Subspace, g: int, d: int) -> int:
    """The words of degree d with no lead of the relations as a factor,
    counted one by one."""
    leads = set(relations.rows)
    return sum(all(w // g ** i % (g * g) not in leads for i in range(d - 1))
               for w in range(g ** d))


CATALOG = catalog_instances()


@pytest.mark.parametrize("name, E", CATALOG, ids=[name for name, _ in CATALOG])
def test_dimensions_equal_the_slice_dimensions(name, E, monkeypatch, cold_quadratic):
    # every degree within the default budget, both functions, each variant;
    # an uncertified algebra must take the slice route, since its count of
    # normal words is not its dimension
    n = E.row_dim
    top = max(k for k in range(13) if n ** k <= tensor_budget())
    builds = _count_slice_builds(monkeypatch)
    for variant in VARIANTS:
        alg = QuadAlgebra(E, variant)
        presentation = alg.presentation()
        want = [n ** k - presentation.slice(k).dim if k > 1 else n ** k
                for k in range(top + 1)]
        assert dimension_table(alg, top) == want, variant
        assert [graded_dimension(alg, k) for k in range(top + 1)] == want, variant
        uncertified = (name, variant) in UNCERTIFIED
        assert ideals._certified(n, presentation.relations) != uncertified
        cold_quadratic()
        builds.clear()
        assert graded_dimension(alg, top) == want[top]
        if uncertified:
            assert builds == [top], variant
            # counted as normal words, degree 3 would read this
            assert _naive_count(presentation.relations, n, 3) > want[3], variant
        else:
            assert builds == [], variant
        assert alg.presentation().dimensions(top) == want, variant
        # the table is memoized by its relations: a warm call builds nothing
        builds.clear()
        assert graded_dimension(alg, top) == want[top]
        assert builds == [], variant


@st.composite
def relation_spaces(draw):
    """(monomial, g, relations) on g = 2 or 3 generators: single-word rows,
    which are always a Groebner basis, or dense rows of small integers,
    which mostly are not."""
    g = draw(st.integers(2, 3))
    monomial = draw(st.booleans())
    if monomial:
        rows = [{w: 1} for w in draw(st.lists(st.integers(0, g * g - 1), max_size=g * g))]
    else:
        entries = st.lists(st.integers(-2, 2), min_size=g * g, max_size=g * g)
        rows = [{i: c for i, c in enumerate(row) if c}
                for row in draw(st.lists(entries, max_size=g * g))]
    return monomial, g, Subspace.span(rows, g * g)


@settings(max_examples=40, deadline=None)
@given(relation_spaces())
def test_dimensions_against_slices_from_scratch(case):
    # a certified algebra counts normal words and builds no slice; any
    # other reads the increments of the top slice alone
    monomial, g, relations = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MANIN_BUDGET", "81")  # degree 6 on two generators, 4 on three
        top = 6 if g == 2 else 4
        gens = [Gen("t", (i,)) for i in range(g)]
        alg = ideals.PresentedAlgebra(gens, relations)
        want = [g ** d - dense.slice_from_scratch(g, relations, d).rank if d > 1 else g ** d
                for d in range(top + 1)]
        assert alg.dimensions(top) == want
        if ideals._certified(g, relations):
            assert alg._slices == {}
        else:
            assert list(alg._slices) == [top]
            assert not monomial
            assert _naive_count(relations, g, 3) > want[3]


@settings(max_examples=200, deadline=None)
@given(relation_spaces())
def test_the_overlap_verdict_is_the_dense_oracle_count(case):
    # the relations are a Groebner basis iff the Fraction oracle's I_3 has
    # one dimension per degree-3 word holding a lead of degree 2, the words
    # that a normal-word count leaves out
    monomial, g, relations = case
    held = g ** 3 - _naive_count(relations, g, 3)
    certified = dense.slice_from_scratch(g, relations, 3).rank == held
    assert ideals._certified(g, relations) == certified
    assert certified or not monomial
