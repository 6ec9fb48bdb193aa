"""Deformed determinants and permanents, verified modulo universal ideals.

Identities checked for the matrix of formal generators of the right
quantum algebra hold automatically for every Manin matrix over every
algebra; membership in the graded relation ideal is decided by exact
row reduction.
"""

from fractions import Fraction

from maninalg import idempotents as idem
from maninalg.freealg import generator_matrix, poly_mat_mul
from maninalg.manin import ManinPair, cross_commutators, submatrix, universal_relations
from maninalg.minors import col_permuted, det_qhat, perm_qhat, verify_identity
from maninalg.permutations import Perm, stabilizer_order

F = Fraction

print("== 2x2 shapes")
M = generator_matrix("M", 2, 2)
qhat = idem.uniform_parameter_matrix(2, 2)
phat = idem.uniform_parameter_matrix(2, 3)
print("det_q  =", det_qhat(qhat, M))
print("perm_p =", perm_qhat(phat, M))

print("\n== column swap flips the determinant up to a parameter")
pair = ManinPair(idem.parameterized_antisymmetrizer(qhat),
                 idem.parameterized_antisymmetrizer(phat))
alg = universal_relations(pair).algebra()
lhs = det_qhat(qhat, col_permuted(M, Perm((2, 1))))
rhs = det_qhat(qhat, M).scale(F(-1, 3))
print("det_q(M tau^{-1}) = -p^{-1} det_q(M) mod ideal:",
      verify_identity(lhs, rhs, alg))

print("\n== Cauchy-Binet at parameters (2, 3, 5)")
rhat = idem.uniform_parameter_matrix(2, 5)
pair_n = ManinPair(idem.parameterized_antisymmetrizer(phat),
                   idem.parameterized_antisymmetrizer(rhat))
uM = universal_relations(pair, "M")
uN = universal_relations(pair_n, "N")
Mg, Ng = generator_matrix("M", 2, 2), generator_matrix("N", 2, 2)

from maninalg.freealg import NCPoly
from maninalg.ideals import PresentedAlgebra

polys = []
for uni in (uM, uN):
    g = len(uni.gens)
    for row in uni.space.basis.data:
        polys.append(NCPoly({(uni.gens[p // g], uni.gens[p % g]): c
                             for p, c in enumerate(row) if c}))
ambient = PresentedAlgebra.from_polys(uM.gens + uN.gens,
                                      polys + cross_commutators(Mg, Ng))
K = poly_mat_mul(Mg, Ng)
print("degree-4 ideal slice dimension:", ambient.slice(4).dim, "of", 8 ** 4)

I = L = (1, 2)
det_lhs = det_qhat(idem.restrict_parameter_matrix(qhat, I), submatrix(K, I, L))
det_rhs = (det_qhat(idem.restrict_parameter_matrix(qhat, I), submatrix(Mg, I, I))
           * det_qhat(idem.restrict_parameter_matrix(phat, I), submatrix(Ng, I, L)))
print("det (MN)_IL = sum_J det M_IJ det N_JL:",
      verify_identity(det_lhs, det_rhs, ambient))

weak = [(1, 1), (1, 2), (2, 2)]
ok = True
for I in weak:
    for L in weak:
        lhs = perm_qhat(idem.restrict_parameter_matrix(rhat, L), submatrix(K, I, L))
        rhs = NCPoly.zero()
        for J in weak:
            term = (perm_qhat(idem.restrict_parameter_matrix(phat, J), submatrix(Mg, I, J))
                    * perm_qhat(idem.restrict_parameter_matrix(rhat, L), submatrix(Ng, J, L)))
            rhs = rhs + term.scale(F(1, stabilizer_order(J)))
        ok = ok and verify_identity(lhs, rhs, ambient)
print("perm (MN)_IL = sum_J perm M_IJ perm N_JL / nu_J:", ok)
