"""Exact expectations the workloads are checked against.

Closed forms are computed here, independently of the library.  Where no
closed form is known, the integers were recorded from the seed commit of the
benchmark and must be reproduced exactly by every later version.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# The 39 items of `verify-suite --suite all`, in the sorted order that
# `suites.run_suite` returns them.  The `negative.*` items are the suite's own
# negative controls: each passes only when a corrupted input is rejected.
SUITE_ITEMS = sorted([
    "catalog.idempotency_and_rank",
    "hecke.braid_n2", "hecke.braid_n3", "hecke.relation_n2", "hecke.relation_n3",
    "hecke.split_n2", "hecke.split_n3", "hecke.equivalences_n2", "hecke.equivalences_n3",
    "dims.multiparam_binomials", "dims.bcd_formulas",
    "pairing.cross_validation",
    "brauer.base_cases", "brauer.traces", "brauer.defining_relations",
    "determinants.rll_relation_spaces", "determinants.commutator_span",
    "determinants.row_law", "determinants.column_law", "determinants.repeated_column",
    "determinants.conjugation_laws", "determinants.submatrix_closure",
    "cauchybinet.det", "cauchybinet.perm", "cauchybinet.product_manin",
    "cauchybinet.product_plain",
    "heckeminor.g_transport", "heckeminor.minor_transport",
    "heckeminor.entry_agreement", "heckeminor.inversion_gf",
    "fourparam.grid_classification", "fourparam.a3_axioms",
    "bcd.reports", "bcd.lie_sl2", "bcd.lie_jacobi_blind",
    "negative.free_matrix", "negative.corrupted_operator",
    "negative.nonreduced_word", "negative.group_cap",
])

SUITES = ("catalog", "hecke", "dims", "pairing", "brauer", "determinants",
          "cauchybinet", "heckeminor", "fourparam", "bcd", "negative")

VARIANTS = ("X", "Xi", "Xstar", "Xistar")


def quantum_space_dims(n: int, k: int) -> dict:
    """Hecke R-matrix algebras at generic q: quantum affine space and its
    Grassmann partner, on both sides."""
    sym, ext = comb(n + k - 1, k), comb(n, k)
    return {"X": sym, "Xi": ext, "Xstar": sym, "Xistar": ext}


def orthogonal_dim(n: int, k: int) -> int:
    """((n + 2k - 2) / k) C(n + k - 3, k - 1) for the X-algebra of B_n."""
    return 1 if k == 0 else int(Fraction(n + 2 * k - 2, k) * comb(n + k - 3, k - 1))


def symplectic_dim(n: int, k: int) -> int:
    """((n - 2k + 2) / k) C(n + 1, k - 1), zero past n/2, for Xi of B~_n."""
    return 1 if k == 0 else max(int(Fraction(n - 2 * k + 2, k) * comb(n + 1, k - 1)), 0)


# Degree-k dimensions recorded at the seed commit, per variant.  Entries that
# a closed form predicts are cross-checked against it in the workload.
RECORDED_DIMS = {
    "orthogonal_n4_k6": {"X": 49, "Xi": 8, "Xstar": 49, "Xistar": 8},
    "symplectic_n8_k4": {"X": 367, "Xi": 42, "Xstar": 367, "Xistar": 42},
    "lie_sl2_k6": {"X": 84, "Xi": 0, "Xstar": 84, "Xistar": 0},
    "fourparam_2_2_2_1_k7": {"X": 36, "Xi": 0, "Xstar": 36, "Xistar": 0},
}
