"""Byte-for-byte checks of the user-facing outputs against committed goldens.

``maninalg verify-suite --suite all`` and every script under ``demos/``
print deterministic text; a refactor must leave it unchanged.  The files
in ``tests/golden/`` were produced by the same calls.  To regenerate one
after a deliberate output change::

    PYTHONPATH=src python -m maninalg.cli verify-suite --suite all > tests/golden/verify_suite_all.out
    PYTHONPATH=src python demos/<name>.py > tests/golden/<name>.out
"""

import runpy
from pathlib import Path

import pytest

from maninalg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_verify_suite_all_matches_golden(capsys):
    assert cli.main(["verify-suite", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "verify_suite_all.out").read_text()


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in GOLDEN.glob("[0-9]*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_golden(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{demo.stem}.out").read_text()
