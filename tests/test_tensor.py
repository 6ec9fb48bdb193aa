import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from maninalg import idempotents as idem
from maninalg.freealg import Gen, NCPoly, generator_matrix, poly_grid_product
from maninalg.idempotents import antisymmetrizer
from maninalg.linalg import QMatrix
from maninalg.permutations import Perm, all_perms
from maninalg.freealg import poly_matrix
from maninalg.tensor import (BudgetExceeded, TensorOperator, _check_power, compose_chain,
                             coset_sum, embed, flatten_index, multi_indices, swap_operator)


def test_flatten_index_follows_the_order_of_multi_indices():
    for n, k in ((2, 3), (3, 2)):
        for pos, index in enumerate(multi_indices(n, k)):
            assert flatten_index(index, n) == pos


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


def test_embed_at_nonadjacent_legs():
    P = swap_operator(2)
    op = embed(P, 3, (1, 3))
    col = flatten_index((2, 1, 1), 2)
    out = [i for i, row in enumerate(op.matrix.data) if row[col]]
    assert out == [flatten_index((1, 1, 2), 2)]
    # adjacent legs as a tuple agree with the int form
    assert embed(P, 3, (1, 2)) == embed(P, 3, 1)


def rho(p: Perm, n: int, sign: int = 1) -> TensorOperator:
    """rho^+(p), or rho^-(p) = sign(p) rho^+(p) for sign -1."""
    return dense.perm_action(p, n).scale(p.sign() if sign < 0 else 1)


def test_perm_action_identity_and_simple_flip():
    assert dense.perm_action(Perm.identity(3), 2) == TensorOperator.identity(2, 3)
    assert dense.perm_action(Perm((2, 1)), 2) == swap_operator(2)
    assert rho(Perm((2, 1)), 2, -1) == -swap_operator(2)


def test_perm_action_homomorphism():
    for n in (2, 3):
        for sign in (1, -1):
            for p in all_perms(3):
                for q in all_perms(3):
                    assert rho(p * q, n, sign) == rho(p, n, sign) * rho(q, n, sign)


def test_perm_action_is_the_product_along_a_reduced_word():
    for n in (2, 3):
        for sign in (1, -1):
            P = swap_operator(n).scale(sign)
            for p in all_perms(3):
                along = TensorOperator.identity(n, 3)
                for a in dense.reduced_word(p):
                    along = along * embed(P, 3, a)
                assert along == rho(p, n, sign)


def test_signed_rep_inverse_pair():
    r1 = rho(Perm((2, 3, 1)), 2, -1)   # s1 s2
    r2 = rho(Perm((3, 1, 2)), 2, -1)   # s2 s1
    assert r1 * r2 == TensorOperator.identity(2, 3)


def test_braid_relation_for_flip():
    for n in (2, 3):
        P = swap_operator(n)
        b1, b2 = embed(P, 3, 1), embed(P, 3, 2)
        assert b2 * b1 * b2 == b1 * b2 * b1


def test_compose_chain_base_cases():
    M = generator_matrix("M", 2, 2)
    assert compose_chain(M, 1) == M
    one = compose_chain(QMatrix.identity(2), 3)
    for i, row in enumerate(one):
        for j, e in enumerate(row):
            assert e == (NCPoly.scalar(1) if i == j else NCPoly.zero())


def test_compose_chain_entry_is_a_word():
    M = generator_matrix("M", 2, 2)
    chain = compose_chain(M, 2)
    row = flatten_index((1, 2), 2)
    col = flatten_index((1, 2), 2)
    assert chain[row][col] == NCPoly(
        {(Gen("M", (1, 1)), Gen("M", (2, 2))): 1})


def _reversed_chain_reference(M, k):
    # the product of the chain taken right to left, entry by entry
    grid = poly_matrix(M)
    out = []
    for row_index in multi_indices(len(grid), k):
        row = []
        for col_index in multi_indices(len(grid[0]), k):
            word = NCPoly.scalar(1)
            for i, j in reversed(list(zip(row_index, col_index))):
                word = word * grid[i - 1][j - 1]
            row.append(word)
        out.append(row)
    return out


def _swap_sandwich(M, k):
    # M^{(k)} ... M^{(1)} as the chain M^{(1)} ... M^{(k)} between the leg
    # reversals of both sides; at k = 2 these are the flips P_n and P_m
    w0 = Perm(tuple(range(k, 0, -1)))
    return poly_grid_product(compose_chain(M, k), dense.perm_action(w0, len(M)),
                             dense.perm_action(w0, len(M[0])))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_reversed_chain_matches_right_to_left_product(n, m):
    M = generator_matrix("M", n, m)
    for k in (1, 2, 3):
        assert _swap_sandwich(M, k) == _reversed_chain_reference(M, k)
    words = poly_grid_product(compose_chain(M, 2), swap_operator(n), swap_operator(m))
    assert words == _reversed_chain_reference(M, 2)
    # entry (12, 21) is M^2_1 M^1_2, the reverse of compose_chain's word
    assert words[flatten_index((1, 2), n)][flatten_index((2, 1), m)] == NCPoly(
        {(Gen("M", (2, 1)), Gen("M", (1, 2))): 1})


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


def test_embed_at_any_legs_matches_the_conjugated_adjacent_embedding():
    # placing at legs (l_1, ..., l_m) equals conjugating the placement at
    # legs (1, ..., m) by the permutation p with p(t) = l_t that sends the
    # remaining legs to the remaining places in ascending order
    cases = 0
    for n in (1, 2, 3):
        for k in range(1, 5):
            for ell in range(1, k + 1):
                size = n ** ell
                # distinct entries, so that any misplaced one shows
                op = TensorOperator(n, n, ell, {r: {c: r * size + c + 1 for c in range(size)}
                                                for r in range(size)})
                at_start = embed(op, k, 1)
                for legs in itertools.permutations(range(1, k + 1), ell):
                    p = Perm(legs + tuple(t for t in range(1, k + 1) if t not in legs))
                    out = embed(op, k, legs)
                    assert_canonical(out)
                    assert out == dense.perm_action(p, n) * at_start * dense.perm_action(p.inverse(), n), \
                        (n, k, legs)
                    cases += 1
    assert cases == 252


def test_embed_refuses_bad_legs():
    P = swap_operator(2)
    for legs in ((1, 1), (2,), (1, 2, 3), (0, 2), (1, 4), 0, 3, 4):
        with pytest.raises(ValueError, match="leg out of range"):
            embed(P, 3, legs)


# --- sparse rows against the dense oracle ------------------------------------

scalars = st.one_of(st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))


def random_operator(data, n: int, k: int) -> TensorOperator:
    """A random operator with up to 40 entries, zeros included on purpose."""
    size = n ** k
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), scalars,
        max_size=40))
    rows = {}
    for (i, j), x in cells.items():
        rows.setdefault(i, {})[j] = x
    return TensorOperator(n, n, k, rows)


def assert_canonical(op: TensorOperator):
    # the integer form: nonzero int numerators over a positive den sharing no
    # factor with all of them, without empty rows
    assert type(op.den) is int and op.den > 0
    assert all(op.num.values()), "empty row stored"
    assert all(type(x) is int for row in op.num.values() for x in row.values())
    assert all(x for row in op.num.values() for x in row.values()), "zero stored"
    assert gcd(op.den, *(x for row in op.num.values() for x in row.values())) == 1


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 4)), st.data())
def test_arithmetic_matches_dense(shape, data):
    n, k = shape
    a, b = random_operator(data, n, k), random_operator(data, n, k)
    c = data.draw(scalars)
    A, B = a.matrix, b.matrix
    results = {"mul": (a * b, A * B), "add": (a + b, A + B), "sub": (a - b, A - B),
               "scale": (a.scale(c), A.scale(c)), "transpose": (a.transpose(), A.transpose())}
    for name, (sparse, expected) in results.items():
        assert_canonical(sparse)
        assert sparse.matrix == expected, name
        assert TensorOperator(n, n, k, expected) == sparse, name
    assert a.trace() == A.trace()
    assert a.is_zero() == A.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)), st.data())
def test_subtraction_adds_the_negation(shape, data):
    n, k = shape
    a, c = random_operator(data, n, k), random_operator(data, n, k)
    # b shares a's rows and entries, so that a - b cancels rows and entries
    for b in (c, a + c, a):
        assert_canonical(a - b)
        assert_canonical(-b)
        assert a - b == a + b.scale(-1)
        assert -b == b.scale(-1)
    assert a - (a + c) == -c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embed_matches_dense_at_every_leg(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    ell = data.draw(st.integers(1, k))
    op = random_operator(data, n, ell)
    for a in range(1, k - ell + 2):
        out = embed(op, k, a)
        assert_canonical(out)
        assert out.matrix == dense.embed(op, k, a), a


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embed_matches_dense_at_every_leg_pair(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 4))
    op = random_operator(data, n, 2)
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if a != b:
                out = embed(op, k, (a, b))
                assert_canonical(out)
                assert out.matrix == dense.embed_pair(op, k, a, b), (a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(n, j) for n in (2, 3) for j in range(1, 5)] + [(2, 5)]),
       st.data())
def test_coset_sum_matches_the_explicit_sum(size, data):
    n, j = size
    prev = data.draw(st.sampled_from(("random", "zero", "symmetrizer")))
    if prev == "random":
        prev = random_operator(data, n, j)
    elif prev == "zero":
        prev = TensorOperator.zero(n, j)
    else:
        prev = embed(idem.q_symmetrizer(n, Fraction(2, 3)), j, j - 1) if j >= 2 \
            else TensorOperator.identity(n, 1).scale(Fraction(5, 7))
    g = data.draw(st.sampled_from(("random", "swap", "hecke")))
    if g == "random":
        g = random_operator(data, n, 2)
    else:
        g = swap_operator(n) if g == "swap" else idem.hecke_r_matrix(n, Fraction(3, 2))
    weights = data.draw(st.one_of(st.lists(scalars, min_size=j, max_size=j),
                                  st.just([0] * j)))
    expected = TensorOperator.zero(n, j)
    for i, w in enumerate(weights):
        word = TensorOperator.identity(n, j)
        for a in range(j - i, j):
            word = word * embed(g, j, a)
        expected = expected + (word * prev).scale(w)
    got = coset_sum(prev, g, weights)
    assert_canonical(got)
    assert got == expected


def test_coset_sum_refuses_mismatched_shapes():
    prev = TensorOperator.identity(2, 3)
    for g, weights in ((swap_operator(2), [1, 1]), (swap_operator(3), [1, 1, 1]),
                       (TensorOperator.identity(2, 3), [1, 1, 1]),
                       (TensorOperator(2, 3, 2, {}), [1, 1, 1])):
        with pytest.raises(ValueError, match="coset_sum"):
            coset_sum(prev, g, weights)


def _simple(a: int, k: int) -> Perm:
    images = list(range(1, k + 1))
    images[a - 1], images[a] = images[a], images[a - 1]
    return Perm(tuple(images))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.sampled_from((1, -1)), st.data())
def test_equal_operators_from_different_routes_hash_equal(n, k, sign, data):
    # rho is a representation, so the product along any word in the adjacent
    # flips equals the direct action of the word's permutation
    word = data.draw(st.lists(st.integers(1, k - 1), max_size=6))
    P = swap_operator(n).scale(sign)
    along_word = TensorOperator.identity(n, k)
    p = Perm.identity(k)
    for a in word:
        along_word = along_word * embed(P, k, a)
        p = p * _simple(a, k)
    other = rho(p, n, sign)
    assert along_word == other
    assert hash(along_word) == hash(other)
    a = random_operator(data, n, k)
    for zero in (a - a, a.scale(0), TensorOperator(n, n, k, QMatrix.zero(n ** k))):
        assert zero == TensorOperator.zero(n, k)
        assert hash(zero) == hash(TensorOperator.zero(n, k))
    b = random_operator(data, n, k)
    for same in ((a + b) - b, TensorOperator(n, n, k, a.matrix)):
        assert same == a and hash(same) == hash(a)


def test_constructor_rejects_entries_outside_the_grid():
    with pytest.raises(ValueError):
        TensorOperator(2, 2, 2, {4: {0: 1}})
    with pytest.raises(ValueError):
        TensorOperator(2, 2, 2, {0: {4: 1}})
    with pytest.raises(ValueError):
        TensorOperator(2, 2, 2, QMatrix.zero(4, 3))
    # the range is checked on every index, zero entries and empty rows included
    for entries in ({4: {0: 0}}, {0: {4: 0}}, {-1: {}}, {0: {-1: 0}}):
        with pytest.raises(ValueError):
            TensorOperator(2, 2, 2, entries)
    with pytest.raises(ValueError):
        TensorOperator(2, 2, 1, {0: {5: 0}})
    assert TensorOperator(2, 2, 2, {3: {0: 0}, 1: {}}).is_zero()   # zeros are dropped


def test_constructors_check_the_budget_first(monkeypatch):
    monkeypatch.setenv("MANIN_BUDGET", "8")
    for build in (lambda: TensorOperator.identity(2, 4), lambda: TensorOperator.zero(2, 4),
                  lambda: embed(swap_operator(2), 4, (1, 3)), lambda: swap_operator(3)):
        with pytest.raises(BudgetExceeded):
            build()


@pytest.mark.parametrize("budget, n, k, size", [
    (None, 2, 12, None), (None, 2, 13, "8192"), (None, 2, 14, "2^14"),
    (None, 3, 10 ** 9, "3^1000000000"), (None, 1, 13, None),
    (None, 1, 14, "1^14 (arity over 13)"), (None, 1, 10 ** 9, "1^1000000000 (arity over 13)"),
    (None, 0, 10 ** 9, None), ("0", 1, 10 ** 9, "1^1000000000 (arity over 0)"),
    ("-5", 2, 0, "1"), ("-5", 2, 4, "2^4"),
    (str(2 ** 70), 3, 44, None), (str(2 ** 70), 3, 45, "at least 2^71"),
    (str(2 ** 70), 2, 71, "at least 2^71"), (str(2 ** 70), 2, 72, "2^72"),
])
def test_power_budget_refuses_from_n_and_k(budget, n, k, size, monkeypatch):
    # n^k is refused without being formed once n >= 2 and k passes the
    # budget's bit length, and so is every such k at n = 1; below that it
    # goes through check_budget(n ** k)
    if budget is None:
        monkeypatch.delenv("MANIN_BUDGET", raising=False)
    else:
        monkeypatch.setenv("MANIN_BUDGET", budget)
    if size is None:
        _check_power(n, k)
        return
    with pytest.raises(BudgetExceeded) as err:
        _check_power(n, k)
    assert str(err.value) == (f"component of size {size} exceeds budget "
                              f"{budget or 4096} (override with MANIN_BUDGET)")


# --- integer numerators against the Fraction-row oracle -----------------------

# denominators up to 12 so that lcm and gcd passes meet shared and coprime factors
mixed = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 7, 12)))


def random_pair(data, row_dim: int, col_dim: int, k: int):
    """The same random entries as a TensorOperator and a FractionOperator."""
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, row_dim ** k - 1), st.integers(0, col_dim ** k - 1)),
        mixed, max_size=30))
    rows = {}
    for (i, j), x in cells.items():
        rows.setdefault(i, {})[j] = x
    return (TensorOperator(row_dim, col_dim, k, rows),
            dense.FractionOperator(row_dim, col_dim, k, rows))


def assert_same(op: TensorOperator, oracle: "dense.FractionOperator", what):
    assert_canonical(op)
    assert (op.row_dim, op.col_dim, op.arity) == \
        (oracle.row_dim, oracle.col_dim, oracle.arity), what
    assert dense.fraction_rows(op) == oracle.rows, what
    rebuilt = oracle.operator()
    assert op == rebuilt and hash(op) == hash(rebuilt), what
    assert (op.den, op.num) == (rebuilt.den, rebuilt.num), what


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_integer_arithmetic_matches_the_fraction_rows(n, m, k, data):
    a, A = random_pair(data, n, m, k)
    b, B = random_pair(data, n, m, k)
    c, C = random_pair(data, m, n, k)
    # b shares a's rows and entries in some draws, so that rows and entries cancel
    choice = data.draw(st.sampled_from(("random", "equal", "negated", "shifted")))
    if choice == "equal":
        b, B = a, A
    elif choice == "negated":
        b, B = a.scale(-1), A.scale(-1)
    elif choice == "shifted":
        b, B = a + b, A + B
    t = data.draw(st.one_of(st.sampled_from((0, 1, -1, Fraction(-3, 2))), mixed))
    # sums share the rows of their operands, which must come out unchanged
    before = [{i: dict(row) for i, row in op.num.items()} for op in (a, b)]
    results = {"mul": (a * c, A * C), "mul_back": (c * a, C * A),
               "add": (a + b, A + B), "sub": (a - b, A - B), "neg": (-a, -A),
               "scale": (a.scale(t), A.scale(t)), "transpose": (a.transpose(), A.transpose())}
    assert [a.num, b.num] == before
    for name, (op, oracle) in results.items():
        assert_same(op, oracle, name)
    assert (a - a).is_zero() and (a - a).den == 1
    assert (a.scale(Fraction(1, 2)) == a) == a.is_zero()   # same numerators, other den
    for op, oracle in ((a * c, A * C), (a - b, A - B)):
        assert op.is_zero() == oracle.is_zero()
        if op.square:
            assert op.trace() == oracle.trace()
    v = data.draw(st.dictionaries(st.integers(0, n ** k - 1), mixed.filter(bool), max_size=6))
    # the row vector v times a, as the one row of a product
    va = TensorOperator(n, n, k, {0: v}) * a
    assert dense.fraction_rows(va).get(0, {}) == A.vecmat(v)
    assert a.row_space().basis == A.row_basis()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_embeddings_match_the_fraction_rows(n, k, data):
    ell = data.draw(st.integers(1, k))
    op, oracle = random_pair(data, n, n, ell)
    for a in range(1, k - ell + 2):
        assert_same(embed(op, k, a), dense.embed_rows(oracle, k, a), a)
    if k >= 2:
        op, oracle = random_pair(data, n, n, 2)
        for a, b in itertools.permutations(range(1, k + 1), 2):
            assert_same(embed(op, k, (a, b)), dense.embed_pair_rows(oracle, k, a, b), (a, b))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_idempotent_matches_the_fraction_rows(data):
    E = data.draw(st.sampled_from((idem.antisymmetrizer(2), idem.q_symmetrizer(2, 3),
                                   idem.hecke_minus(3, Fraction(2, 5)),
                                   idem.orthogonal_idempotent(3))))
    n = E.row_dim
    noise, _ = random_pair(data, n, n, 2)
    t = data.draw(st.sampled_from((0, 1, Fraction(-1, 3))))
    # conjugating by an invertible diagonal keeps E idempotent and mixes denominators
    diag = data.draw(st.lists(mixed.filter(bool), min_size=n * n, max_size=n * n))
    g = TensorOperator(n, n, 2, {i: {i: x} for i, x in enumerate(diag)})
    g_inv = TensorOperator(n, n, 2, {i: {i: 1 / x} for i, x in enumerate(diag)})
    for op in (E, g * E * g_inv, E + noise.scale(t), (g * E * g_inv).scale(t)):
        assert idem.is_idempotent(op) == dense.FractionOperator.of(op).is_idempotent()
    assert idem.is_idempotent(g * E * g_inv)
