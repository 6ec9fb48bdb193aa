import pytest

from maninalg.freealg import NCPoly, generator_matrix, matrix_gen
from maninalg.idempotents import antisymmetrizer, permutation_op
from maninalg.linalg import QMatrix
from maninalg.permutations import Perm, all_perms
from maninalg.freealg import poly_matrix
from maninalg.tensor import (BudgetExceeded, TensorOperator, compose_chain,
                             embed, embed_pair, flatten_index, multi_indices,
                             perm_action, perm_rep, reversed_chain, swap_operator,
                             unflatten_index)


def test_multi_index_roundtrip():
    for n, k in ((2, 3), (3, 2)):
        for pos, index in enumerate(multi_indices(n, k)):
            assert flatten_index(index, n) == pos
            assert unflatten_index(pos, n, k) == index


def test_embed_identity():
    for k in (2, 3):
        assert embed(TensorOperator.identity(2, 2), k + 1, 1) == \
            TensorOperator.identity(2, k + 1)


def test_embed_swap_moves_basis_vector():
    P = swap_operator(2)
    op = embed(P, 3, 1)
    col = flatten_index((2, 1, 1), 2)
    out = [i for i, row in enumerate(op.matrix.data) if row[col]]
    assert out == [flatten_index((1, 2, 1), 2)]


def test_embedded_idempotent_stays_idempotent():
    A = antisymmetrizer(2)
    e = embed(A, 3, 2)
    assert e * e == e


def test_embed_respects_composition():
    P = swap_operator(2)
    A = antisymmetrizer(2)
    assert embed(P * A, 4, 2) == embed(P, 4, 2) * embed(A, 4, 2)


def test_embed_pair_nonadjacent():
    P = swap_operator(2)
    op = embed_pair(P, 3, 1, 3)
    col = flatten_index((2, 1, 1), 2)
    out = [i for i, row in enumerate(op.matrix.data) if row[col]]
    assert out == [flatten_index((1, 1, 2), 2)]
    # adjacent placement agrees with contiguous embedding
    assert embed_pair(P, 3, 1, 2) == embed(P, 3, 1)


def test_perm_rep_identity_and_simple_flip():
    assert perm_rep(Perm.identity(3), 2) == TensorOperator.identity(2, 3)
    assert perm_rep(Perm((2, 1)), 2) == swap_operator(2)


def test_perm_rep_homomorphism():
    for n in (2, 3):
        for sign in (1, -1):
            for p in all_perms(3):
                for q in all_perms(3):
                    assert perm_rep(p * q, n, sign) == \
                        perm_rep(p, n, sign) * perm_rep(q, n, sign)


def test_perm_rep_signs_and_direct_action():
    for p in all_perms(3):
        assert perm_rep(p, 2) == perm_action(p, 2)
        assert perm_rep(p, 2, -1) == perm_action(p, 2).scale(p.sign())


def test_signed_rep_inverse_pair():
    r1 = perm_rep(Perm((2, 3, 1)), 2, -1)   # s1 s2
    r2 = perm_rep(Perm((3, 1, 2)), 2, -1)   # s2 s1
    assert r1 * r2 == TensorOperator.identity(2, 3)


def test_braid_relation_for_flip():
    for n in (2, 3):
        P = permutation_op(n)
        b1, b2 = embed(P, 3, 1), embed(P, 3, 2)
        assert b2 * b1 * b2 == b1 * b2 * b1


def test_compose_chain_base_cases():
    M = generator_matrix("M", 2, 2)
    assert compose_chain(M, 1) == M
    one = compose_chain(QMatrix.identity(2), 3)
    for i, row in enumerate(one):
        for j, e in enumerate(row):
            assert e == (NCPoly.one() if i == j else NCPoly.zero())


def test_compose_chain_entry_is_a_word():
    M = generator_matrix("M", 2, 2)
    chain = compose_chain(M, 2)
    row = flatten_index((1, 2), 2)
    col = flatten_index((1, 2), 2)
    assert chain[row][col] == NCPoly(
        {(matrix_gen("M", 1, 1), matrix_gen("M", 2, 2)): 1})


def _reversed_chain_reference(M, k):
    # the product of the chain taken right to left, entry by entry
    grid = poly_matrix(M)
    out = []
    for row_index in multi_indices(len(grid), k):
        row = []
        for col_index in multi_indices(len(grid[0]), k):
            word = NCPoly.one()
            for i, j in reversed(list(zip(row_index, col_index))):
                word = word * grid[i - 1][j - 1]
            row.append(word)
        out.append(row)
    return out


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_reversed_chain_matches_right_to_left_product(n, m):
    M = generator_matrix("M", n, m)
    for k in (1, 2, 3):
        assert reversed_chain(M, k) == _reversed_chain_reference(M, k)
    # entry (12, 21) is M^2_1 M^1_2, the reverse of compose_chain's word
    words = reversed_chain(M, 2)
    assert words[flatten_index((1, 2), n)][flatten_index((2, 1), m)] == NCPoly(
        {(matrix_gen("M", 2, 1), matrix_gen("M", 1, 2)): 1})


def test_reversed_chain_needs_arity_one():
    with pytest.raises(ValueError):
        reversed_chain(swap_operator(2), 2)


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "8")
    with pytest.raises(BudgetExceeded):
        embed(swap_operator(2), 4, 1)
    monkeypatch.delenv("MANIN_BUDGET")
    embed(swap_operator(2), 4, 1)  # fine under the default budget


def test_embed_matches_kronecker_reference():
    # identity (x) op (x) identity, assembled with plain Kronecker products
    from maninalg.idempotents import hecke_minus
    op = hecke_minus(2, 2)
    for k, a in ((3, 1), (3, 2), (4, 2)):
        left = QMatrix.identity(2 ** (a - 1))
        right = QMatrix.identity(2 ** (k - a - 1))
        reference = left.kron(op.matrix).kron(right)
        assert embed(op, k, a).matrix == reference


def test_embed_pair_matches_conjugated_adjacent_embedding():
    # placing at legs (1, 3) equals conjugating the adjacent placement by
    # the permutation that swaps legs 2 and 3
    from maninalg.idempotents import rank_one_contraction
    from maninalg.permutations import Perm
    op = rank_one_contraction(2)
    move = perm_action(Perm((1, 3, 2)), 2)
    assert embed_pair(op, 3, 1, 3) == move * embed(op, 3, 1) * move
