"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); each runs the shared suite items and
prints one PASS/FAIL line per item.  The suites are the same ones exposed by
``maninalg verify-suite``.
"""

import pytest

from maninalg import suites
from maninalg.suites import run_suite

CRITERIA = [
    ("criterion-01 idempotent catalog", ["catalog"]),
    ("criterion-02 hecke structure", ["hecke"]),
    ("criterion-03 graded dimensions", ["dims"]),
    ("criterion-04 pairing cross-validation", ["pairing"]),
    ("criterion-05 brauer operators", ["brauer"]),
    ("criterion-06 universal identity battery", ["determinants", "cauchybinet"]),
    ("criterion-07 hecke minor transport", ["heckeminor"]),
    ("criterion-08 four-parameter classification", ["fourparam"]),
    ("criterion-09 bcd predicates", ["bcd"]),
    ("criterion-10 negative controls", ["negative"]),
]


@pytest.mark.parametrize("label,suites", CRITERIA,
                         ids=[label.split()[0] for label, _ in CRITERIA])
def test_acceptance(label, suites):
    failures = []
    for suite in suites:
        for item_id, ok, detail in run_suite(suite):
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {label} :: {item_id}: {detail}")
            if not ok:
                failures.append(f"{item_id}: {detail}")
    assert not failures, f"{label} failed items: {failures}"


def test_heckeminor_builds_each_operator_once_per_run(monkeypatch):
    # three items read A_(2) of the Hecke route and of the closed form for
    # n = 2, 3; each (n, k) is built once per run, and again in the next run
    built = []
    hecke = suites.hecke_pairing
    monkeypatch.setattr(suites, "hecke_pairing",
                        lambda q, n, k, kind: built.append((n, k)) or hecke(q, n, k, kind))
    for _ in range(2):
        built.clear()
        assert all(ok for _, ok, _ in run_suite("heckeminor"))
        assert sorted(built) == [(n, k) for n in (2, 3) for k in (1, 2, 3)]
