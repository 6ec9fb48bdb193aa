import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.cli import main as cli_main
from maninalg.freealg import generator_matrix, poly_grid_product
from maninalg.linalg import QMatrix, Subspace
from maninalg.manin import ManinPair, is_manin, transport, universal_relations
from maninalg.minors import a_minor, minor_operator, s_minor
from maninalg.pairing import (BraidRelationFailed, NotExists, PairingOperator,
                              braid_relation_holds, brauer_pairing, closed_form_multiparam,
                              corrupt, fixes_subspaces, fourparam_A3, generic_pairing,
                              group_average, hecke_basis_change, hecke_pairing, q_factorial,
                              q_int, verify_axioms)
from maninalg.permutations import Perm, all_perms, inv
from maninalg.quadratic import VARIANTS, QuadAlgebra, component_subspaces, relation_space
from maninalg.suites import generic_parameter_matrix, run_suite
from maninalg.tensor import BudgetExceeded, TensorOperator, compose_chain, embed

F = Fraction


def test_generic_base_case_k2():
    for E in (idem.antisymmetrizer(2), idem.hecke_minus(3, 2),
              idem.orthogonal_idempotent(3)):
        one = TensorOperator.identity(E.row_dim, 2)
        s = generic_pairing(E, 2, "S")
        a = generic_pairing(E, 2, "A")
        assert s.operator == one - E
        assert a.operator == E


def test_generic_symmetrizer_degree_three():
    E = idem.antisymmetrizer(2)
    s = generic_pairing(E, 3, "S")
    assert s.operator.matrix.rank() == 4  # dim Sym^3 C^2
    assert s.operator == group_average(E, 3, "S").operator


def test_generic_not_exists_for_fourparam():
    E = idem.fourparam_idempotent(1, 2, 1, 1)
    result = generic_pairing(E, 3, "A")
    assert isinstance(result, NotExists)
    # oracle: the kernel intersections have different dimensions
    w3, wbar3 = component_subspaces(E, 3, "A")
    assert (w3.dim, wbar3.dim) == (1, 0)
    assert result.details == {"right_dim": 1, "left_dim": 0}


# idempotents whose intersection subspaces have equal dimensions but pair
# degenerately: (matrix, k, kind, NotExists details)
DEGENERATE_PAIRINGS = (
    ([[0, 1, -1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [0, 1, -1, 0]], 3, "S",
     {"dim": 4, "gram_rank": 2}),
    ([[0, -2, 1, 0], [0, 1, 0, -1], [0, 0, 1, -2], [0, 0, 0, 0]], 3, "A",
     {"dim": 1, "gram_rank": 0}),
    # one reduced dual row leads exactly at column d, which is not a lead
    # of the Gram block
    ([[0, 0, 0, 0], [1, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], 3, "S",
     {"dim": 4, "gram_rank": 3}),
)


@pytest.mark.parametrize("matrix, k, kind, details", DEGENERATE_PAIRINGS)
def test_generic_not_exists_for_a_degenerate_natural_pairing(matrix, k, kind, details):
    E = idem.build(idem.IdempotentSpec("Custom", 2, {"matrix": matrix}))
    assert idem.is_idempotent(E)
    right, left = component_subspaces(E, k, kind)
    assert right.dim == left.dim == details["dim"]
    result = generic_pairing(E, k, kind)
    assert isinstance(result, NotExists)
    assert (result.kind, result.arity) == (kind, k)
    assert result.reason == "degenerate natural pairing"
    assert result.details == details
    oracle = dense.generic_pairing(E, k, kind)
    assert (oracle.reason, oracle.details) == (result.reason, result.details)


def _generic_outcome(p):
    """A NotExists as its reason and details, an operator as its integer form."""
    if isinstance(p, NotExists):
        return p.kind, p.arity, p.reason, p.details
    return p.kind, p.arity, p.provenance, p.operator.den, p.operator.num


def test_integer_duals_match_the_fraction_gram_inverse_on_the_catalog():
    from maninalg.suites import catalog_instances
    outcomes = set()
    for name, E in catalog_instances():
        for k in range(1, 7):
            if E.row_dim ** k > 81:
                break
            for kind in ("S", "A"):
                got = generic_pairing(E, k, kind)
                assert _generic_outcome(got) == \
                    _generic_outcome(dense.generic_pairing(E, k, kind)), (name, k, kind)
                outcomes.add(got.reason if isinstance(got, NotExists)
                             else got.operator.is_zero())
    assert outcomes == {True, False, "dimension mismatch"}


@st.composite
def projections(draw):
    """U (W U)^-1 W for small random integer U (n^2 x r) and W (r x n^2) with
    W U invertible: an idempotent of rank r on C^n (x) C^n."""
    n = draw(st.sampled_from((2, 3)))
    size = n * n
    r = draw(st.integers(1, size - 1))
    entry = st.integers(-2, 2)
    U = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=size, max_size=size))
    W = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=r, max_size=r))
    inv = dense.invert(QMatrix(r, r, [[sum(W[a][i] * U[i][b] for i in range(size))
                                       for b in range(r)] for a in range(r)]))
    assume(inv is not None)
    UG = [[sum(U[i][a] * inv.data[a][b] for a in range(r)) for b in range(r)]
          for i in range(size)]
    return TensorOperator(n, n, 2, {i: {j: sum(UG[i][b] * W[b][j] for b in range(r))
                                        for j in range(size)} for i in range(size)})


@settings(max_examples=25, deadline=None)
@given(projections(), st.data())
def test_integer_duals_match_the_fraction_gram_inverse_on_random_projections(E, data):
    assert idem.is_idempotent(E)
    k = data.draw(st.integers(2, 4 if E.row_dim == 2 else 3))
    for kind in ("S", "A"):
        got = generic_pairing(E, k, kind)
        assert _generic_outcome(got) == _generic_outcome(dense.generic_pairing(E, k, kind))
        if not isinstance(got, NotExists):
            assert verify_axioms(got)["pass"]


def test_generic_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        generic_pairing(idem.fourparam_idempotent(1, 2, 1, 1), 3, "X")


def test_group_average_symmetrizers():
    for n in (2, 3):
        E = idem.antisymmetrizer(n)
        for k in (2, 3):
            s = group_average(E, k, "S").operator
            a = group_average(E, k, "A").operator
            sym = TensorOperator.zero(n, k)
            alt = TensorOperator.zero(n, k)
            for p in all_perms(k):
                sym = sym + dense.perm_action(p, n)
                alt = alt + dense.perm_action(p, n).scale(p.sign())
            assert s == sym.scale(F(1, factorial(k)))
            assert a == alt.scale(F(1, factorial(k)))


def test_group_average_k2_split():
    E = idem.parameterized_antisymmetrizer(generic_parameter_matrix(2))
    P = TensorOperator.identity(2, 2) - E.scale(2)
    assert group_average(E, 2, "S").operator == \
        (TensorOperator.identity(2, 2) + P).scale(F(1, 2))
    assert group_average(E, 2, "A").operator == \
        (TensorOperator.identity(2, 2) - P).scale(F(1, 2))


def test_group_average_braid_failure():
    with pytest.raises(BraidRelationFailed):
        group_average(idem.hecke_minus(2, 2), 3, "A")


def test_routes_refuse_an_over_budget_arity_before_any_work(monkeypatch):
    import maninalg.pairing as pairing_module

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    for name in ("embed", "coset_sum", "hecke_minus", "hecke_r_matrix",
                 "braid_relation_holds"):
        monkeypatch.setattr(pairing_module, name, no_work)
    monkeypatch.delenv("MANIN_BUDGET", raising=False)
    # 3^8 = 6561 and 2^13 = 8192 exceed the default budget of 4096
    for route in (lambda: hecke_pairing(2, 3, 8, "S"),
                  lambda: group_average(idem.antisymmetrizer(2), 13, "A")):
        with pytest.raises(BudgetExceeded, match="exceeds budget 4096"):
            route()


def test_coset_words_place_no_generator(monkeypatch):
    """The coset words apply g on their two legs in place: the only
    placements are op_(j-1) (x) 1 for j = 2..k (at j = 3 that is the
    arity-2 op_2), and the group route's braid check on the two windows
    of arity 3.  Embedding g for each word would add (2, j, j - i)."""
    import maninalg.pairing as pairing_module
    import maninalg.tensor as tensor_module
    placed = []

    def spy(op, total_arity, legs):
        placed.append((op.arity, total_arity, legs))
        return embed(op, total_arity, legs)
    monkeypatch.setattr(tensor_module, "embed", spy)
    monkeypatch.setattr(pairing_module, "embed", spy)
    levels = [(j - 1, j, 1) for j in range(2, 6)]
    hecke_pairing(F(2), 3, 5, "S")
    hecke_pairing(F(2), 4, 5, "A")
    assert placed == levels * 2
    placed.clear()
    group_average(idem.antisymmetrizer(3), 5, "S")
    assert placed == [(2, 3, 1), (2, 3, 2)] + levels


def test_group_average_matches_the_enumerated_closure():
    aqhat3 = idem.parameterized_antisymmetrizer(generic_parameter_matrix(3))
    for E, top in ((idem.antisymmetrizer(2), 5), (idem.antisymmetrizer(3), 4), (aqhat3, 4)):
        for k in range(1, top + 1):
            for kind in ("S", "A"):
                assert group_average(E, k, kind).operator == \
                    dense.group_closure_average(E, k, kind), (E.row_dim, k, kind)


def test_group_average_matches_the_closed_form_up_to_degree_seven():
    qhat = generic_parameter_matrix(3)
    E = idem.parameterized_antisymmetrizer(qhat)
    for k in range(2, 8):
        for kind in ("S", "A"):
            assert group_average(E, k, kind).operator == \
                closed_form_multiparam(qhat, k, kind).operator, (k, kind)


def test_group_average_sums_s12_without_enumerating_it():
    # S_12 has 12! elements, far past any enumeration.  The S-operator of
    # the antisymmetrizer on C^2 is the symmetrizer: entry (I, J) is
    # 1/binom(12, w) when I and J both hold the digit 2 w times, else 0, so
    # its trace is dim Sym^12 C^2 = 13
    k = 12
    s = group_average(idem.antisymmetrizer(2), k, "S").operator
    assert s.trace() == 13
    blocks = [set() for _ in range(k + 1)]
    for i in range(2 ** k):
        blocks[bin(i).count("1")].add(i)
    assert len(s.num) == 2 ** k
    for w, block in enumerate(blocks):
        entry = {s.den // comb(k, w)}
        assert s.den % comb(k, w) == 0
        for r in block:
            assert s.num[r].keys() == block and set(s.num[r].values()) == entry


@pytest.mark.parametrize("q", (F(2), F(-1, 2), F(3, 5)))
def test_hecke_pairing_matches_the_two_product_recursion(q):
    for n in (1, 2, 3, 4):
        for k in range(1, 9):
            if n ** k <= 1024:
                for kind in ("S", "A"):
                    assert hecke_pairing(q, n, k, kind).operator == \
                        dense.hecke_recursion(q, n, k, kind), (n, k, kind)


@pytest.mark.parametrize("n, k, kind", ((5, 5, "A"), (4, 6, "A"), (3, 7, "S")))
def test_hecke_pairing_matches_the_two_product_recursion_near_the_budget(n, k, kind):
    q = F(-2)
    assert hecke_pairing(q, n, k, kind).operator == dense.hecke_recursion(q, n, k, kind)


def test_hecke_base_case():
    for n in (2, 3):
        assert hecke_pairing(2, n, 2, "S").operator == idem.hecke_plus(n, 2)
        assert hecke_pairing(2, n, 2, "A").operator == idem.hecke_minus(n, 2)


def test_hecke_matches_generic():
    for n in (2, 3):
        E = idem.hecke_minus(n, 2)
        for k in (2, 3):
            for kind in ("S", "A"):
                assert hecke_pairing(2, n, k, kind).operator == \
                    generic_pairing(E, k, kind).operator


def test_hecke_antisymmetrizer_entries():
    q, n, k = F(2), 2, 3
    A = hecke_pairing(q, n, k, "A").operator
    assert A.is_zero()  # no strictly increasing triples on two letters
    n, k = 3, 2
    A = hecke_pairing(q, n, k, "A").operator
    scale = q ** (k * (k - 1) // 2) / q_factorial(k, q)
    for I in itertools.combinations(range(1, n + 1), k):
        for sigma in all_perms(k):
            for tau in all_perms(k):
                row = tuple(I[sigma(t) - 1] for t in range(1, k + 1))
                col = tuple(I[tau(t) - 1] for t in range(1, k + 1))
                expected = (scale * sigma.sign() * tau.sign()
                            * q ** (-inv(sigma) - inv(tau)))
                assert dense.entry(A, row, col) == expected


def test_hecke_trace_is_binomial():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert hecke_pairing(2, n, k, "A").operator.trace() == comb(n, k)


def test_q_numbers():
    q = F(2)
    assert q_int(1, q) == 1
    assert q_int(2, q) == q + 1 / q
    assert q_factorial(3, q) == q_int(2, q) * q_int(3, q)


def test_brauer_base_cases():
    for n in (3, 4):
        assert brauer_pairing("so", n, 2).operator == \
            TensorOperator.identity(n, 2) - idem.orthogonal_idempotent(n)
    assert brauer_pairing("sp", 4, 2).operator == idem.symplectic_idempotent(4)
    assert brauer_pairing("sp", 4, 3).operator.is_zero()


def test_brauer_matches_generic():
    for n in (3, 4):
        E = idem.orthogonal_idempotent(n)
        assert brauer_pairing("so", n, 3).operator == \
            generic_pairing(E, 3, "S").operator
    E = idem.symplectic_idempotent(4)
    assert brauer_pairing("sp", 4, 2).operator == \
        generic_pairing(E, 2, "A").operator


def test_brauer_preconditions():
    with pytest.raises(idem.InvalidParameter):
        brauer_pairing("sp", 3, 2)
    with pytest.raises(idem.InvalidParameter):
        brauer_pairing("sp", 4, 4)
    with pytest.raises(ValueError):
        brauer_pairing("gl", 3, 2)


def test_closed_form_reduces_to_symmetrizers():
    ones = [[F(1)] * 3 for _ in range(3)]
    for kind in ("S", "A"):
        cf = closed_form_multiparam(ones, 3, kind)
        ga = group_average(idem.antisymmetrizer(3), 3, kind)
        assert cf.operator == ga.operator


def test_closed_form_single_entry():
    cf = closed_form_multiparam(idem.uniform_parameter_matrix(2, 2), 2, "A")
    assert dense.entry(cf.operator, (1, 2), (2, 1)) == F(-1, 4)
    assert cf.operator.trace() == 1


def test_closed_form_trace():
    qhat = generic_parameter_matrix(3)
    for k in (1, 2, 3):
        assert closed_form_multiparam(qhat, k, "A").operator.trace() == comb(3, k)
        assert closed_form_multiparam(qhat, k, "S").operator.trace() == \
            comb(k + 2, k)


def test_fourparam_a3_exists_on_single_condition_branch():
    op = fourparam_A3(1, 1, 1, 1)
    assert isinstance(op, PairingOperator)
    report = verify_axioms(op)
    assert report["pass"]
    assert op.operator.matrix.rank() == 1


def test_fourparam_a3_not_exists():
    result = fourparam_A3(1, 2, 1, 1)
    assert isinstance(result, NotExists)
    assert result.details["conditions"] == {"i": False, "ii": False, "iii": False}


def test_fourparam_a3_kappa_zero_reduces_to_multiparam():
    q = F(2)
    op = fourparam_A3(q, q, q, 0)
    qhat = [[1, q * q, 1 / (q * q)],
            [1 / (q * q), 1, q * q],
            [q * q, 1 / (q * q), 1]]
    cf = closed_form_multiparam(qhat, 3, "A")
    assert op.operator == cf.operator
    assert Subspace.from_matrix(op.operator.matrix) == Subspace.from_matrix(cf.operator.matrix)


def test_verify_axioms_orthogonality_and_nesting():
    s3 = hecke_pairing(2, 2, 3, "S")
    a3 = hecke_pairing(2, 2, 3, "A")
    s2 = hecke_pairing(2, 2, 2, "S")
    a2 = hecke_pairing(2, 2, 2, "A")
    report = verify_axioms(s3, partner=a3, lower=[s2, a2])
    assert report == {"annihilation": True, "fixed_vectors": True,
                      "idempotent": True, "orthogonality": True,
                      "nesting": True, "pass": True}


def test_verify_axioms_nesting_fails_on_a_wrong_lower_operator():
    s3 = hecke_pairing(2, 2, 3, "S")
    # the same kind at another q is not absorbed; the other kind at another
    # q does not kill
    for lower in (hecke_pairing(3, 2, 2, "S"), hecke_pairing(3, 2, 2, "A")):
        report = verify_axioms(s3, lower=[hecke_pairing(2, 2, 2, "S"), lower])
        assert report == {"annihilation": True, "fixed_vectors": True,
                          "idempotent": True, "orthogonality": None,
                          "nesting": False, "pass": False}, lower.kind


def test_verify_axioms_checks_the_last_window():
    # S_(2) on legs (1, 2) of the third power passes every window but the
    # last one, on legs (2, 3)
    s2 = hecke_pairing(2, 2, 2, "S")
    op = PairingOperator("S", 3, s2.source, embed(s2.operator, 3, 1), "test")
    report = verify_axioms(op, lower=[s2])
    assert report["annihilation"] is False and report["nesting"] is False


def test_verify_axioms_nesting_skips_arity_one_of_the_other_kind_and_arity_k_up():
    s3 = hecke_pairing(2, 2, 3, "S")
    # neither the arity-1 identity of kind A nor the operators of another q
    # at arity 3 and 4 would pass the check
    for lower in (hecke_pairing(2, 2, 1, "A"), hecke_pairing(3, 2, 3, "S"),
                  hecke_pairing(3, 2, 3, "A"), hecke_pairing(3, 2, 4, "S")):
        assert verify_axioms(s3, lower=[lower])["nesting"] is True, (lower.kind, lower.arity)


def test_jucys_murphy_matches_the_dense_leg_pairs():
    from maninalg.pairing import jucys_murphy
    from maninalg.tensor import swap_operator
    for n, k in ((2, 3), (3, 3), (2, 4), (4, 3)):
        for twisted in (False, True):
            if twisted and n % 2:
                continue
            P = swap_operator(n)
            Q = idem.twisted_rank_one_contraction(n) if twisted \
                else idem.rank_one_contraction(n)
            for b in range(2, k + 1):
                total = QMatrix.zero(n ** k, n ** k)
                for a in range(1, b):
                    total = total + dense.embed_pair(P, k, a, b) - dense.embed_pair(Q, k, a, b)
                expected = total.scale(-1) if twisted else total
                assert jucys_murphy(n, k, b, twisted).matrix == expected, (n, k, b, twisted)


@pytest.fixture
def no_route_work(monkeypatch):
    """Make every first step of work a route could take raise."""
    import maninalg.pairing as pairing_module

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the kind and arity were checked")

    for name in ("is_idempotent", "component_subspaces", "embed", "_check_power",
                 "hecke_minus", "check_parameter_matrix", "orthogonal_idempotent",
                 "symplectic_idempotent"):
        monkeypatch.setattr(pairing_module, name, no_work)


def test_routes_refuse_a_bad_kind_before_any_work(no_route_work):
    E = idem.antisymmetrizer(2)
    routes = [lambda: generic_pairing(E, 1, "X"), lambda: generic_pairing(E, 3, "X"),
              lambda: group_average(E, 6, "X"), lambda: hecke_pairing(2, 2, 3, "X"),
              lambda: closed_form_multiparam(generic_parameter_matrix(2), 3, "X")]
    for route in routes:
        with pytest.raises(ValueError, match=r"^kind must be 'S' or 'A'$"):
            route()


@pytest.mark.parametrize("k", [0, -1])
def test_routes_refuse_a_bad_arity_before_any_work(no_route_work, k):
    E = idem.antisymmetrizer(2)
    routes = [lambda: generic_pairing(E, k, "S"), lambda: group_average(E, k, "A"),
              lambda: hecke_pairing(2, 2, k, "S"),
              lambda: closed_form_multiparam(generic_parameter_matrix(2), k, "A"),
              lambda: brauer_pairing("so", 3, k), lambda: brauer_pairing("sp", 4, k)]
    for route in routes:
        with pytest.raises(ValueError, match=r"^arity starts at 1$"):
            route()


def test_corrupted_operator_fails_idempotency():
    op = group_average(idem.antisymmetrizer(2), 3, "S")
    assert not verify_axioms(corrupt(op))["idempotent"]


def test_hecke_basis_change_entries():
    q = F(2)
    G = hecke_basis_change(2, 2, q)
    norm = q_factorial(2, q) / 2
    assert dense.entry(G, (1, 2), (1, 2)) == norm * q ** (-1)  # identity arrangement
    assert dense.entry(G, (2, 1), (2, 1)) == norm * q         # one inversion
    assert dense.entry(G, (1, 1), (1, 1)) == 1                 # repeated index


def test_group_average_axioms_up_to_degree_four():
    # symmetric-group averages for the plain antisymmetrizer pass every
    # axiom through arity 4
    for n in (2, 3):
        E = idem.antisymmetrizer(n)
        lower = []
        for k in (2, 3, 4):
            s = group_average(E, k, "S")
            a = group_average(E, k, "A")
            assert verify_axioms(s, partner=a, lower=lower)["pass"]
            assert verify_axioms(a, partner=s, lower=lower)["pass"]
            lower.extend([s, a])


def test_verify_axioms_rejects_mismatched_partner():
    s3 = hecke_pairing(2, 2, 3, "S")
    with pytest.raises(ValueError):
        verify_axioms(s3, partner=hecke_pairing(2, 2, 3, "S"))
    with pytest.raises(ValueError):
        verify_axioms(s3, partner=hecke_pairing(2, 2, 2, "A"))


def test_jucys_murphy_elements_commute():
    from maninalg.pairing import jucys_murphy
    for n in (3, 4):
        for twisted in (False, True):
            if twisted and n % 2:
                continue
            y2 = jucys_murphy(n, 3, 2, twisted)
            y3 = jucys_murphy(n, 3, 3, twisted)
            assert y2 * y3 == y3 * y2


def suite_size_operators():
    q = F(2)
    for n in (2, 3):
        for k in (2, 3):
            for kind in ("S", "A"):
                yield hecke_pairing(q, n, k, kind)
    for n in (3, 4):
        for k in (2, 3):
            yield brauer_pairing("so", n, k)
    for k in (2, 3):
        yield brauer_pairing("sp", 4, k)


def test_sparse_fixed_vector_check_matches_dense():
    outcomes = set()
    for p in suite_size_operators():
        right, left = component_subspaces(p.source, p.arity, p.kind)
        assert fixes_subspaces(p.operator, right, left)
        assert dense.fixes_subspaces(p.operator.matrix, right, left)
        size = p.source.row_dim ** p.arity
        cells = [(r, c) for r in range(size) for c in range(size)]
        for r, c in cells[::max(1, len(cells) // 60)] + [(size - 1, size - 1)]:
            bad = corrupt(p, r, c).operator
            fast = fixes_subspaces(bad, right, left)
            assert fast == dense.fixes_subspaces(bad.matrix, right, left), (p.provenance, r, c)
            outcomes.add(fast)
    assert outcomes == {True, False}


@pytest.fixture
def no_dense_views(monkeypatch):
    """Make the dense view of every operator, at every arity, raise."""
    def guarded(op):
        raise AssertionError(f"dense view of an arity-{op.arity} operator")
    monkeypatch.setattr(TensorOperator, "matrix", property(guarded))


@pytest.fixture
def no_operator_products(monkeypatch):
    """Make every product of two operators raise."""
    def guarded(a, b):
        raise AssertionError(f"product of arity-{a.arity} operators")
    monkeypatch.setattr(TensorOperator, "__mul__", guarded)


def _generic_company(p: PairingOperator):
    """The generic partner of p (None at arity 1 or where it does not exist)
    and the generic operators of both kinds at every lower arity that exist,
    all built from p's source."""
    def built(j, kind):
        out = generic_pairing(p.source, j, kind)
        return out if isinstance(out, PairingOperator) else None
    partner = built(p.arity, "A" if p.kind == "S" else "S") if p.arity >= 2 else None
    lower = [q for j in range(1, p.arity) for kind in ("S", "A") if (q := built(j, kind))]
    return partner, lower


@pytest.fixture(scope="module")
def axiom_cases():
    """(operator, partner, lower operators, oracle report) at arity 3 for
    every route, with corrupted operators, partners and lower operators;
    the oracle reports are formed before any guard is armed."""
    q, E, qhat = F(2), idem.antisymmetrizer(2), generic_parameter_matrix(3)
    by_kind = [lambda k, kind: generic_pairing(idem.hecke_minus(2, q), k, kind),
               lambda k, kind: group_average(E, k, kind),
               lambda k, kind: hecke_pairing(q, 3, k, kind),
               lambda k, kind: closed_form_multiparam(qhat, k, kind)]
    triples = []
    for route in by_kind:
        for kind, other in (("S", "A"), ("A", "S")):
            triples.append((route(3, kind), route(3, other),
                            [route(j, s) for j in (1, 2) for s in ("S", "A")]))
    for family, n in (("so", 3), ("sp", 4)):
        p = brauer_pairing(family, n, 3)
        partner, lower = _generic_company(p)
        triples.append((p, partner, lower + [brauer_pairing(family, n, 2)]))
    p = fourparam_A3(1, 1, 1, 1)
    triples.append((p, *_generic_company(p)))
    cases = []
    for p, partner, lower in triples:
        bad_lower = [corrupt(low, 1, 0) for low in lower]
        variants = [(p, partner, lower), (corrupt(p, 1, 0), partner, lower),
                    (p, partner, bad_lower)]
        if partner is not None:
            variants.append((p, corrupt(partner, 1, 0), lower))
        cases += [(*v, dense.verify_axioms_by_products(*v)) for v in variants]
    return cases


def test_verify_axioms_forms_no_products(axiom_cases, no_operator_products,
                                         no_dense_views, cold_quadratic):
    one = TensorOperator.identity(2, 1)
    with pytest.raises(AssertionError, match="product"):
        one * one
    for p, partner, lower, want in axiom_cases:
        assert verify_axioms(p, partner, lower) == want, (p.provenance, p.kind)
    for key in axiom_cases[0][-1]:
        assert {want[key] for *_, want in axiom_cases} >= {True, False}, key


def test_operators_have_no_fraction_row_view():
    """num over den is the one form an operator is read in: the Fraction
    rows view and the Fraction row-vector product are gone."""
    for name in ("rows", "_rows", "vecmat"):
        assert not hasattr(TensorOperator, name), name
    for arity in (1, 2, 3):
        op = generic_pairing(idem.antisymmetrizer(2), arity, "S").operator
        assert not hasattr(op, "rows") and not hasattr(op, "vecmat")


def test_pairing_routes_and_axioms_build_no_dense_views(no_dense_views):
    q = F(2)
    for arity in (1, 2, 3):
        with pytest.raises(AssertionError):
            TensorOperator.identity(2, arity).matrix
    E = idem.antisymmetrizer(2)
    routes = [generic_pairing(idem.symplectic_idempotent(4), 3, "A"),
              hecke_pairing(q, 3, 3, "A"), brauer_pairing("sp", 4, 3),
              closed_form_multiparam(generic_parameter_matrix(3), 3, "S"),
              fourparam_A3(1, 1, 1, 1)]
    for k in (3, 4):
        routes += [generic_pairing(idem.hecke_minus(2, q), k, "S"),
                   group_average(E, k, "S"), group_average(E, k, "A"),
                   hecke_pairing(q, 2, k, "S"), brauer_pairing("so", 3, k)]
    for p in routes:
        assert verify_axioms(p)["pass"], p.provenance
        assert not verify_axioms(corrupt(p, 1, 0))["pass"], p.provenance
    s3, a3 = group_average(E, 3, "S"), group_average(E, 3, "A")
    lower = [group_average(E, 2, "S"), group_average(E, 2, "A")]
    assert verify_axioms(s3, partner=a3, lower=lower)["pass"]
    assert hecke_basis_change(2, 3, q) * hecke_pairing(q, 2, 3, "A").operator == \
        closed_form_multiparam(idem.uniform_parameter_matrix(2, q), 3, "A").operator


def test_library_and_cli_build_no_dense_views(no_dense_views, tmp_path, capsys):
    assert all(ok for _, ok, _ in run_suite("all"))
    M = generator_matrix("M", 2, 2)
    A2, Aq, Rm = idem.antisymmetrizer(2), idem.q_antisymmetrizer(2, 2), idem.hecke_minus(2, 2)
    S2 = generic_pairing(A2, 2, "S").operator
    minor = minor_operator(A2, S2, M, 2)
    assert minor.entries == tuple(map(tuple, poly_grid_product(a_minor(M, A2, 2), right=S2)))
    assert s_minor(M, S2, 2) == poly_grid_product(compose_chain(M, 2), right=S2)
    pair = ManinPair(A2, Aq)
    assert is_manin(pair, M, universal_relations(pair).algebra())
    assert [relation_space(QuadAlgebra(Aq, v)).dim for v in VARIANTS] == [1, 3, 1, 3]
    assert idem.left_equivalent(Aq, Rm) and not idem.right_equivalent(Aq, Rm)
    flip = Perm((2, 1))
    assert idem.conjugate(idem.conjugate(Aq, flip), flip) == Aq
    assert transport(pair, flip, QMatrix(2, 2, [[1, 1], [0, 1]])).A == idem.conjugate(A2, flip)
    made = idem.make_idempotent(QMatrix(1, 4, [[0, 1, -1, 0]]))
    assert (made.den, made.num) == (1, {1: {1: 1, 2: -1}})

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    aq = write("aq.json", '{"family": "Aq", "n": 2, "params": {"q": "2"}}')
    rm = write("rm.json", '{"family": "RhatMinus", "n": 2, "params": {"q": "2"}}')
    pair_file = write("pair.json",
                      '{"A": {"family": "A_n", "n": 2}, "B": {"family": "A_n", "n": 2}}')
    matrix = write("m.txt", "x[1]; 0\n0; x[2]\n")
    relations = write("rel.txt", "x[1]*x[2] - x[2]*x[1]\n")
    sl2 = write("sl2.json", '{"dim": 3, "brackets": [[1, 2, 3, "1"], [2, 1, 3, "-1"]]}')
    commands = [
        ["catalog", "--spec", aq], ["check-idempotent", "--spec", rm],
        ["equiv", "--left", aq, "--right", rm, "--mode", "left"],
        ["dims", "--spec", aq, "--variant", "Xi", "--max-degree", "3"],
        ["manin-check", "--pair", pair_file, "--matrix", matrix, "--relations", relations],
        ["minor", "--pair", pair_file, "--matrix", matrix, "--k", "2", "--kind", "A"],
        ["minor", "--pair", pair_file, "--matrix", matrix, "--k", "2", "--kind", "S"],
        ["scenario", "bcd", "--family", "D", "--n", "2"],
        ["scenario", "fourparam", "--a", "1", "--b", "1", "--c", "1", "--kappa", "1"],
        ["scenario", "lie", "--sc", sl2],
        ["verify-suite", "--suite", "catalog"],
    ]
    commands += [["pairing", "--spec", spec, "--k", "3", "--kind", "A", "--method", method]
                 for spec, method in ((rm, "generic"), (rm, "hecke"), (aq, "closed"))]
    commands += [["pairing", "--family", family, "--n", n, "--k", "3", "--kind", kind,
                  "--method", method]
                 for family, n, kind, method in (("A_n", "2", "S", "group"),
                                                 ("B_n", "3", "S", "brauer"))]
    for argv in commands:
        assert cli_main(argv) == 0, argv
        assert capsys.readouterr().err == ""


# --- closed form, idempotency shortcut and canonical integer form -------------

def test_closed_form_matches_the_restricting_route():
    for n in (1, 2, 3, 4):
        for offset in (0, 3):
            qhat = generic_parameter_matrix(n, offset)
            for k in (1, 2, 3, 4):
                for kind in ("S", "A"):
                    if kind == "A" and k > n:
                        continue
                    got = closed_form_multiparam(qhat, k, kind).operator
                    want = dense.closed_form_multiparam(qhat, k, kind)
                    assert got == want, (n, offset, k, kind)
                    assert (got.den, got.num) == (want.den, want.num)


@st.composite
def signed_parameter_matrices(draw):
    """A parameter matrix of size 1 to 4 with signed entries of mixed
    numerators and denominators above the diagonal."""
    n = draw(st.integers(1, 4))
    entry = st.fractions(-12, 12, max_denominator=12).filter(bool)
    q = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = draw(entry)
            q[j][i] = 1 / q[i][j]
    return q


@settings(max_examples=40, deadline=None)
@given(signed_parameter_matrices(), st.integers(1, 4), st.sampled_from(["S", "A"]))
def test_integer_closed_form_matches_the_fraction_entries(qhat, k, kind):
    """One weight per distinct word, on integers, gives the operator that
    the oracle builds entry by entry from all k! permutations of every
    index tuple."""
    got = closed_form_multiparam(qhat, k, kind).operator
    want = dense.closed_form_multiparam(qhat, k, kind)
    assert got == want
    assert (got.den, got.num) == (want.den, want.num)


SIGNED_QHAT2 = [[1, F(-3, 2)], [F(-2, 3), 1]]


@pytest.mark.parametrize("qhat, k", [(SIGNED_QHAT2, 8), (SIGNED_QHAT2, 9), (SIGNED_QHAT2, 10),
                                     (generic_parameter_matrix(3), 6)])
def test_closed_form_matches_the_generic_route_past_the_permutation_reach(qhat, k):
    """At sizes where enumerating S_k for every index tuple is out of reach
    (9! permutations for each of the 10 tuples at n = 2, k = 9), the
    closed form still equals the dual-basis route."""
    E = idem.parameterized_antisymmetrizer(qhat)
    assert closed_form_multiparam(qhat, k, "S").operator == \
        generic_pairing(E, k, "S").operator


@pytest.mark.parametrize("n, k, kind", [
    (2, 12, "S"), (1, 12, "S"), (3, 6, "S"), (3, 1, "S"), (4, 4, "A"), (5, 3, "A"),
    (3, 2, "A"), (2, 3, "A")])
def test_closed_form_forms_one_weight_per_word(monkeypatch, n, k, kind):
    """The closed route reads one inversion list per distinct word
    (``permutations.weighted_words``): sum_I
    of the rearrangements of I, which is n^k for kind S and k! C(n, k) for
    kind A, not k! per index tuple.  The blocks are kept, not multiplied
    out, so n = 2, k = 12 forms none of its 2.7 million entries here."""
    import maninalg.pairing as pairing_module
    import maninalg.permutations as permutations_module
    from maninalg.permutations import _inversions
    words, blocks = [], []

    def counted(word):
        words.append(word)
        return _inversions(word)

    def kept(n_, k_, parts):
        blocks.extend(parts)
        return TensorOperator.zero(n_, k_)
    monkeypatch.setattr(permutations_module, "_inversions", counted)
    monkeypatch.setattr(pairing_module, "_rank_one_blocks", kept)
    closed_form_multiparam(idem.uniform_parameter_matrix(n, 2), k, kind)
    want = n ** k if kind == "S" else factorial(k) * comb(n, k)
    assert len(words) == len(set(words)) == want
    assert sum(len(weights) for _, weights in blocks) == want


def test_closed_route_at_one_letter_and_arity_twelve(capsys):
    """1^12 is inside the budget, and the work follows the one word, not
    the 12! permutations of its letters."""
    argv = ["pairing", "--family", "Aq", "--n", "1", "--q", "2", "--k", "12",
            "--kind", "S", "--method", "closed"]
    assert cli_main(argv) == 0
    out = json.loads(capsys.readouterr().out)["operator"]
    assert out["matrix"] == [["1"]] and out["axioms"]["pass"]
    assert all(v for v in out["axioms"].values() if v is not None)


@pytest.mark.parametrize("qhat", [
    [[1, 2], [3, 1]], [[1, 2], [F(1, 2), 2]], [[1, 0], [0, 1]], [[1, 2, 3], [F(1, 2), 1]],
    [], 5, [[1, "1/0"], [0, 1]], [[1, True], [True, 1]]])
def test_closed_form_raises_what_the_restricting_route_raises(qhat):
    with pytest.raises(ValueError) as want:
        dense.closed_form_multiparam(qhat, 2, "S")
    for kind in ("S", "A"):
        with pytest.raises(type(want.value)) as got:
            closed_form_multiparam(qhat, 2, kind)
        assert str(got.value) == str(want.value)


def _gathered_operators():
    """The suite-size operators of every route, each (kind, source,
    operator) once."""
    from maninalg.suites import pairing_constructions
    ops = list(suite_size_operators())
    for tag in ("A_n", "Aqhat", "RhatMinus"):
        for n in (2, 3):
            for k in (2, 3):
                for kind in ("S", "A"):
                    ops += [p for p in pairing_constructions(tag, n, k, kind).values()
                            if isinstance(p, PairingOperator)]
    ops += [fourparam_A3(1, 1, 1, 1), generic_pairing(idem.antisymmetrizer(2), 1, "S")]
    return list({(p.kind, p.source, p.operator): p for p in ops}.values())


def test_verify_axioms_matches_the_product_oracle():
    """Whole reports against ``dense.verify_axioms_by_products`` on every
    gathered operator with its generic partner and lower operators, and on
    corrupted operators, partners and lower operators."""
    values, triples = {}, set()

    def check(p, partner=None, lower=()):
        report = verify_axioms(p, partner, lower)
        assert report == dense.verify_axioms_by_products(p, partner, lower), \
            (p.provenance, p.kind, p.arity)
        for key, v in report.items():
            values.setdefault(key, set()).add(v)
        return report

    for p in _gathered_operators():
        partner, lower = _generic_company(p)
        assert check(p, partner, lower)["pass"], p.provenance
        size = p.operator.row_dim ** p.arity
        cells = ((0, 0), (1, 0), (size - 1, size - 1), (size // 2, size // 3))
        for r, c in cells:
            report = check(corrupt(p, r, c), partner, lower)
            triples.add((report["annihilation"], report["fixed_vectors"], report["idempotent"]))
        if partner is not None:
            for r, c in cells:
                check(p, corrupt(partner, r, c))
        for low in lower:
            check(p, lower=[corrupt(low, 0, 0)])
            check(p, lower=[corrupt(low, low.operator.row_dim ** low.arity - 1, 0)])
    for key, seen in values.items():
        assert seen >= {True, False}, key
    # e_11 is symmetric and killed by A_2 on both sides, so S_(2) + e_11 e^11
    # passes annihilation, fails the fixed vectors and is not idempotent
    bad = corrupt(group_average(idem.antisymmetrizer(2), 2, "S"), 0, 0)
    report = check(bad)
    assert report["annihilation"] and not report["fixed_vectors"]
    assert not report["idempotent"]
    assert (True, False, False) in triples and (False, False, False) in triples


def test_equal_pairings_from_different_routes_share_the_integer_form():
    q = F(3, 2)
    pairs = []
    for n, k in ((2, 3), (3, 3), (2, 4)):
        for kind in ("S", "A"):
            pairs.append((hecke_pairing(q, n, k, kind).operator,
                          generic_pairing(idem.hecke_minus(n, q), k, kind).operator))
    for n, k in ((2, 3), (3, 3), (3, 2)):
        qhat = generic_parameter_matrix(n)
        E = idem.parameterized_antisymmetrizer(qhat)
        for kind in ("S", "A"):
            pairs.append((group_average(E, k, kind).operator,
                          closed_form_multiparam(qhat, k, kind).operator))
    for a, b in pairs:
        assert a == b
        assert a.den == b.den and a.num == b.num and hash(a) == hash(b)
        assert a.is_zero() or a.den > 1   # the routes meet over a nontrivial denominator


# --- weight gradings -----------------------------------------------------------
# A grading of E is a map w of the letters with w_i + w_j = w_k + w_l wherever
# E[(i,j),(k,l)] != 0.  The pairing operator is unique, so the torus of a
# grading fixes it, and every route's operator is zero between words of
# different weight.

def _gradings(E: TensorOperator) -> list:
    """A basis of the gradings of an arity-2 E, as rows {letter: weight}:
    the annihilator of one equation w_i + w_j - w_k - w_l per nonzero
    entry."""
    n = E.row_dim
    equations = []
    for row, cols in E.num.items():
        for col in cols:
            equation = {}
            for letter, c in ((row // n, 1), (row % n, 1), (col // n, -1), (col % n, -1)):
                equation[letter] = equation.get(letter, 0) + c
            equations.append(equation)
    return list(Subspace.span(equations, n).annihilator().rows.values())


def _cross_weight_entries(n: int, k: int, num: dict, gradings: list) -> list:
    """The nonzero entries (row, col) of an operator's rows ``num`` on
    words of length k between words of different weight."""
    def weight(index):
        letters = [index // n ** t % n for t in range(k)]
        return tuple(sum(w.get(x, 0) for x in letters) for w in gradings)
    return [(i, j) for i, row in num.items() for j in row if weight(i) != weight(j)]


def _assert_every_route_respects_the_weights(E, k, operators, rank):
    gradings = _gradings(E)
    assert len(gradings) == rank
    for route, op in operators:
        assert op.operator.num, route
        assert _cross_weight_entries(E.row_dim, k, op.operator.num, gradings) == [], route


@settings(max_examples=15, deadline=None)
@given(signed_parameter_matrices().filter(lambda q: len(q) in (2, 3)), st.data())
def test_every_route_of_a_parameter_matrix_keeps_each_weight(qhat, data):
    n = len(qhat)
    k = data.draw(st.integers(2, 5 if n == 2 else 4))
    E = idem.parameterized_antisymmetrizer(qhat)
    assert braid_relation_holds(TensorOperator.identity(n, 2) - E.scale(2))
    kinds = ("S", "A") if k <= n else ("S",)
    operators = [(f"{route} {kind}", build(E, k, kind)) for kind in kinds for route, build in (
        ("generic", generic_pairing), ("group", group_average),
        ("closed", lambda E, k, kind: closed_form_multiparam(qhat, k, kind)))]
    _assert_every_route_respects_the_weights(E, k, operators, n)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.fractions(-5, 5, max_denominator=5).filter(lambda q: q not in
                                                                          (0, 1, -1)),
       st.data())
def test_every_route_of_rhat_minus_keeps_each_weight(n, q, data):
    k = data.draw(st.integers(2, 5 if n == 2 else 4))
    E = idem.hecke_minus(n, q)
    kinds = ("S", "A") if k <= n else ("S",)
    operators = [(f"{route} {kind}", build(kind)) for kind in kinds for route, build in (
        ("generic", lambda kind: generic_pairing(E, k, kind)),
        ("hecke", lambda kind: hecke_pairing(q, n, k, kind)))]
    _assert_every_route_respects_the_weights(E, k, operators, n)


@pytest.mark.parametrize("n, k, rank", [(3, 3, 2), (3, 4, 2), (4, 3, 3)])
def test_every_route_of_the_orthogonal_family_keeps_each_weight(n, k, rank):
    E = idem.orthogonal_idempotent(n)
    operators = [("generic S", generic_pairing(E, k, "S")),
                 ("brauer S", brauer_pairing("so", n, k))]
    _assert_every_route_respects_the_weights(E, k, operators, rank)


@pytest.mark.parametrize("E, k", [(idem.parameterized_antisymmetrizer(SIGNED_QHAT2), 3),
                                  (idem.hecke_minus(3, F(2)), 3),
                                  (idem.orthogonal_idempotent(3), 3)])
def test_an_entry_moved_across_weight_classes_is_caught(E, k):
    # move one nonzero entry of S_(k) to a column of another weight: the
    # check must name exactly that entry
    n, gradings = E.row_dim, _gradings(E)
    num = {i: dict(row) for i, row in generic_pairing(E, k, "S").operator.num.items()}
    assert _cross_weight_entries(n, k, num, gradings) == []
    i = min(num)
    j, c = next(iter(num[i].items()))
    moved = next(col for col in range(n ** k)
                 if col not in num[i] and _cross_weight_entries(n, k, {i: {col: 1}}, gradings))
    del num[i][j]
    num[i][moved] = c
    assert _cross_weight_entries(n, k, num, gradings) == [(i, moved)]
