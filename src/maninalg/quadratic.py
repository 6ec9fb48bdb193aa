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

``component_subspaces(E, k, kind)`` gives the (right, left) pair of one
pairing kind: (V_k, Vbar_k) for "S" and (W_k, Wbar_k) for "A".
``KIND_VARIANTS`` is the only place that maps a kind to its two variants.
These pairs are memoized per (E, k, kind), at most 16 of them at a time.
Graded dimensions are not: each call reads a fresh presentation, so the
slices of one algebra are freed before those of the next are built.  A
dimension reads only the rank of a slice, which is arithmetic on its
increments, so it builds no echelon and no row shifted by more than one
generator.
"""

from __future__ import annotations

import functools

from .freealg import Gen
from .ideals import PresentedAlgebra
from .linalg import Record, Subspace
from .tensor import TensorOperator, _check_power

VARIANTS = ("X", "Xi", "Xstar", "Xistar")

# The algebras whose degree-k ideal slices annihilate the (right, left)
# intersection subspaces of each pairing kind.
KIND_VARIANTS = {"S": ("X", "Xstar"), "A": ("Xistar", "Xi")}


class QuadAlgebra(Record):
    """The quadratic algebra of one ``variant`` (see VARIANTS) presented by
    the arity-2 idempotent ``idempotent``."""

    __slots__ = _fields = ("idempotent", "variant")

    def __init__(self, idempotent: TensorOperator, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if idempotent.arity != 2 or not idempotent.square:
            raise ValueError("quadratic algebras need an arity-2 square idempotent")
        super().__init__(idempotent, variant)

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
    _check_power(n, k)
    return n ** k - alg.presentation().slice(k).dim


def dimension_table(alg: QuadAlgebra, max_degree: int) -> list:
    """Graded dimensions in degrees 0..max_degree, read in ascending order
    from one presentation, so that each slice grows from the one below and
    degree k reduces only dim A_(k-2) * dim R rows: those of the normal
    words of degree k - 2, which the slice of degree k - 1 carries."""
    if max_degree < 0:
        raise ValueError(f"max degree must be non-negative, got {max_degree}")
    n = alg.n
    _check_power(n, max_degree)
    presentation = alg.presentation()
    return [n ** k if k < 2 else n ** k - presentation.slice(k).dim
            for k in range(max_degree + 1)]


def component_subspaces(E: TensorOperator, k: int, kind: str):
    """(right, left) intersection subspaces of degree k for the idempotent E:
    (V_k, Vbar_k) for kind "S" and (W_k, Wbar_k) for kind "A".

    V_k is the joint right kernel of the embedded copies of E at adjacent
    legs, Vbar_k the joint left kernel; W uses S = 1 - E.  Each is the
    annihilator of a degree-k ideal slice (``KIND_VARIANTS``).  For k < 2
    both are the full space.  The budget is checked on every call, so a
    lowered budget refuses a size already in the memo.  Callers share the
    memoized subspaces and must not modify them.
    """
    if kind not in KIND_VARIANTS:
        raise ValueError(f"kind must be one of {tuple(KIND_VARIANTS)}")
    _check_power(E.row_dim, k)
    return _component_subspaces(E, k, kind)


@functools.lru_cache(maxsize=16)
def _component_subspaces(E: TensorOperator, k: int, kind: str) -> tuple:
    if k < 2:
        full = Subspace.zero(E.row_dim ** k).annihilator()
        return full, full
    return tuple(QuadAlgebra(E, variant).presentation().slice(k).subspace().annihilator()
                 for variant in KIND_VARIANTS[kind])
