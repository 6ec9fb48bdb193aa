"""Graded structure of the four algebras attached to an idempotent.

For an idempotent A on C^n (x) C^n the variants are

* ``X``      generators x^i,   relations A (X (x) X) = 0,
* ``Xi``     generators psi_i, relations (Psi (x) Psi)(1 - A) = 0,
* ``Xstar``  generators x_i,   relations (X* (x) X*) A = 0,
* ``Xistar`` generators psi^i, relations (1 - A)(Psi* (x) Psi*) = 0.

Degree-k components are computed either as quotients by the ideal slice or
as the intersection subspaces V_k, W_k and their left analogues.  The two
realizations are dual: V_k is the annihilator of the degree-k slice of the
ideal of X, Vbar_k of Xstar, W_k of Xistar and Wbar_k of Xi.  Both come
from the same sparse slice echelon, read from the algebra's presentation
(``QuadAlgebra.presentation``, an ``ideals.PresentedAlgebra``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Gen
from .ideals import PresentedAlgebra
from .linalg import Subspace
from .tensor import TensorOperator, check_budget, multi_indices

VARIANTS = ("X", "Xi", "Xstar", "Xistar")


@dataclass(frozen=True)
class QuadAlgebra:
    idempotent: TensorOperator
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.idempotent.arity != 2 or not self.idempotent.square:
            raise ValueError("quadratic algebras need an arity-2 square idempotent")

    @property
    def n(self) -> int:
        return self.idempotent.row_dim

    def presentation(self) -> PresentedAlgebra:
        """The algebra on anonymous generators t[1..n] and its relations."""
        gens = tuple(Gen("t", (i,)) for i in range(1, self.n + 1))
        return PresentedAlgebra(gens, relation_space(self))


def relation_space(alg: QuadAlgebra) -> Subspace:
    """The degree-2 relation subspace inside the n^2-dimensional word space."""
    A = alg.idempotent
    if alg.variant == "X":
        return A.row_space()
    if alg.variant == "Xstar":
        return A.transpose().row_space()
    S = TensorOperator.identity(A.row_dim, 2) - A
    if alg.variant == "Xi":
        return S.transpose().row_space()
    return S.row_space()


def graded_dimension(alg: QuadAlgebra, k: int) -> int:
    """dim of the degree-k component: n^k minus the ideal slice dimension."""
    n = alg.n
    if k == 0:
        return 1
    if k == 1:
        return n
    check_budget(n ** k)
    return n ** k - alg.presentation().slice(k).dim


def dimension_table(alg: QuadAlgebra, max_degree: int) -> list:
    if max_degree < 0:
        raise ValueError(f"max degree must be non-negative, got {max_degree}")
    return [graded_dimension(alg, k) for k in range(max_degree + 1)]


@dataclass(frozen=True)
class GradedComponent:
    """Degree-k component with its quotient and subspace realizations."""

    degree: int
    dimension: int
    ideal_dim: int
    quotient_basis: tuple  # multi-indices of non-pivot words
    subspace: Subspace     # the dual intersection realization


def graded_component(alg: QuadAlgebra, k: int) -> GradedComponent:
    n = alg.n
    check_budget(n ** k)
    if k < 2:
        dims = 1 if k == 0 else n
        basis = tuple(multi_indices(n, k))
        return GradedComponent(k, dims, 0, basis, Subspace.zero(n ** k).annihilator())
    slice_ = alg.presentation().slice(k)
    pivots = slice_.echelon.pivots
    basis = tuple(idx for pos, idx in enumerate(multi_indices(n, k))
                  if pos not in pivots)
    return GradedComponent(k, n ** k - slice_.dim, slice_.dim, basis,
                           slice_.subspace().annihilator())


def component_subspaces(E: TensorOperator, k: int):
    """(V_k, Vbar_k, W_k, Wbar_k) for the idempotent E.

    V_k is the joint right kernel of the embedded copies of E at adjacent
    legs, Vbar_k the joint left kernel; W uses S = 1 - E.  Each is the
    annihilator of a degree-k ideal slice: of X, Xstar, Xistar and Xi in
    that order.  For k < 2 all four are the full space.
    """
    size = E.row_dim ** k
    check_budget(size)
    if k < 2:
        full = Subspace.zero(size).annihilator()
        return full, full, full, full
    return tuple(QuadAlgebra(E, variant).presentation().slice(k).subspace().annihilator()
                 for variant in ("X", "Xstar", "Xistar", "Xi"))
