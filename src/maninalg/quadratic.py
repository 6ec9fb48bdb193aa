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
Relation spaces are memoized per algebra, and graded dimensions, as int
tables, and the annihilators that make up these pairs by relation space;
no slice is kept: each miss reads a fresh presentation, so the slices of
one algebra are freed before those of the next are built.  For a
symmetric idempotent, A = A^T, Xstar has the relations of X and Xistar
those of Xi, so each such pair is built once: one table serves both
variants, and one annihilator is both members of a (right, left) pair.
Graded dimensions are those of the presentation
(``PresentedAlgebra.dimensions``): when the relations are a Groebner basis
in the generator order, decided once per relation space from the overlaps
of their leads (``ideals._certified``), they count normal words and build
no slice, and ``component_subspaces`` builds a slice of any degree with no
elimination at all (``ideals.build_slice_from_subspace``).
"""

from __future__ import annotations

import functools

from .freealg import Gen
from .ideals import PresentedAlgebra
from .linalg import Record, Subspace
from .tensor import TensorOperator, _check_power

VARIANTS = ("X", "Xi", "Xstar", "Xistar")

# The most entries each memo of this module keeps.  The largest caller, one
# run of every suite item, asks for 35 distinct tables and 45 distinct
# annihilators, which stay, and for 91 distinct relation spaces, of which
# 5 are evicted and computed again in tens of microseconds each.
_MEMO_ENTRIES = 64

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
        return _presentation(self.n, relation_space(self))


def _presentation(n: int, relations: Subspace) -> PresentedAlgebra:
    """A fresh presentation of ``relations`` on the generators t[1..n]."""
    return PresentedAlgebra(tuple(Gen("t", (i,)) for i in range(1, n + 1)), relations)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def relation_space(alg: QuadAlgebra) -> Subspace:
    """The degree-2 relation subspace inside the n^2-dimensional word space,
    memoized: callers share it and must not modify it."""
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
    """dim of the degree-k component: n^k minus the ideal slice dimension,
    read from ``dimension_table``."""
    return dimension_table(alg, k)[k]


def dimension_table(alg: QuadAlgebra, max_degree: int) -> list:
    """Graded dimensions in degrees 0..max_degree of the algebra's
    presentation (``PresentedAlgebra.dimensions``), after the budget check
    on n^max_degree.  They are memoized by (n, relation space,
    max_degree), so an algebra with the relations of one already
    tabulated, such as Xstar of a symmetric idempotent after X, builds no
    slice; the budget is checked on every call, and each call returns a
    new list."""
    n = alg.n
    _check_power(n, max_degree)
    return list(_dimension_table(n, relation_space(alg), max_degree))


# n leads the key: a Subspace compare across ambient sizes raises, and a
# key that differs in n is told apart before the relations are compared.
@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _dimension_table(n: int, relations: Subspace, max_degree: int) -> tuple:
    return tuple(_presentation(n, relations).dimensions(max_degree))


def component_subspaces(E: TensorOperator, k: int, kind: str):
    """(right, left) intersection subspaces of degree k for the idempotent E:
    (V_k, Vbar_k) for kind "S" and (W_k, Wbar_k) for kind "A".

    V_k is the joint right kernel of the embedded copies of E at adjacent
    legs, Vbar_k the joint left kernel; W uses S = 1 - E.  Each is the
    annihilator of a degree-k ideal slice (``KIND_VARIANTS``), memoized by
    (n, relation space, k): two variants with the same relations, as for a
    symmetric E or for idempotents sharing a kernel, share one subspace.
    For k < 2 both are the full space.  The budget is checked on every
    call, so a lowered budget refuses a size already in the memo.  Callers
    share the memoized subspaces and must not modify them.
    """
    if kind not in KIND_VARIANTS:
        raise ValueError(f"kind must be one of {tuple(KIND_VARIANTS)}")
    n = E.row_dim
    _check_power(n, k)
    if k < 2:
        full = Subspace.zero(n ** k).annihilator()
        return full, full
    return tuple(_annihilator(n, relation_space(QuadAlgebra(E, variant)), k)
                 for variant in KIND_VARIANTS[kind])


# keyed like _dimension_table
@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _annihilator(n: int, relations: Subspace, k: int) -> Subspace:
    return _presentation(n, relations).slice(k).subspace().annihilator()
