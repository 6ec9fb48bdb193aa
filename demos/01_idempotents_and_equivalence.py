"""Build catalog idempotents and explore left/right equivalence.

A quadratic algebra with n generators is cut out by an idempotent E on
C^n (x) C^n: the rows of E span the degree-2 relations.  Two idempotents
present the same algebra exactly when they are left equivalent (same row
space).  This demo builds the basic catalog and checks the equivalences
behind the Hecke R-matrix split.
"""

from fractions import Fraction

from maninalg import idempotents as idem
from maninalg.tensor import TensorOperator, swap_operator

q = Fraction(2)

print("== the permutation operator is an involution, not an idempotent")
P = swap_operator(2)
print("P^2 == 1:", P * P == TensorOperator.identity(2, 2))
print("P idempotent:", idem.is_idempotent(P))

print("\n== the antisymmetrizer cuts out the polynomial algebra")
A = idem.antisymmetrizer(2)
print("A idempotent:", idem.is_idempotent(A))
print("rank == trace:", Fraction(A.matrix.rank()) == A.trace(), "=", A.trace())

print("\n== Hecke split of the gl_n R-matrix at q =", q)
for n in (2, 3):
    R = idem.hecke_r_matrix(n, q)
    Rp, Rm = idem.hecke_plus(n, q), idem.hecke_minus(n, q)
    one = TensorOperator.identity(n, 2)
    print(f"n={n}: orthogonal idempotents:",
          Rp + Rm == one and (Rp * Rm).is_zero(),
          "| Hecke relation:",
          ((R - one.scale(1 / q)) * (R + one.scale(q))).is_zero())
    # the minus part presents the same algebra as the q-antisymmetrizer
    print(f"     left-equivalent to A^q_{n}:",
          idem.left_equivalent(Rm, idem.q_antisymmetrizer(n, q)),
          "| right-equivalent to A^{1/q}_%d:" % n,
          idem.right_equivalent(Rm, idem.q_antisymmetrizer(n, 1 / q)))

print("\n== an idempotent from raw relation rows (echelon projector)")
from maninalg.linalg import QMatrix, Subspace

R = P.matrix - QMatrix.identity(4)  # rows spanning the antisymmetry relation
E = idem.make_idempotent(R)
print("E idempotent:", idem.is_idempotent(E))
print("same row space as the input:",
      Subspace.from_matrix(E.matrix) == Subspace.from_matrix(R))
print("presents the polynomial algebra:", idem.left_equivalent(E, A))
