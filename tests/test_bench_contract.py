"""The library names and shapes that the benchmark in ``bench/`` relies on.

``bench/tracing.py`` wraps functions and methods by name and reads a few
attributes; ``bench/workloads.py`` calls parts of the public API with dense
inputs.  This test installs the tracer in a fresh interpreter, exactly as
``bench/worker.py`` does, and then makes each of those calls, so a rename or
a changed return shape fails here rather than in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib
from fractions import Fraction

import workloads
from tracing import LEAF_METHODS, SPAN_METHODS, Tracer

for wl in workloads.WORKLOADS.values():
    wl.imports()
for table in (SPAN_METHODS, LEAF_METHODS):
    for module, paths in table.items():
        mod = importlib.import_module(f"maninalg.{module}")
        for path in paths:
            if "." in path:
                cls, meth = path.split(".")
                assert meth in vars(getattr(mod, cls)), f"{module}.{path} is gone"
            else:
                assert callable(getattr(mod, path, None)), f"{module}.{path} is gone"
tracer = Tracer()
tracer.install()

from maninalg import freealg as F, idempotents as idem, linalg, manin as Mn, minors as Mi
from maninalg import pairing as P, quadratic as Quad, tensor as T

# graded_dims: a dense copy of an operator, perturbed and wrapped again
E = idem.hecke_minus(3, Fraction(2))
m = E.matrix.copy()
m.data[0][1] += 1
bad = T.TensorOperator(3, 3, 2, m)
assert Quad.graded_dimension(Quad.QuadAlgebra(bad, "X"), 3) != \
    Quad.graded_dimension(Quad.QuadAlgebra(E, "X"), 3)

# the tracer reads SparseEchelon.pivots and PresentedAlgebra._slices
ech = linalg.SparseEchelon()
ech.insert({2: Fraction(3), 5: Fraction(1, 2)})
assert isinstance(ech.pivots, dict) and list(ech.pivots) == [2]
qhat = [[1, 2, 3], [Fraction(1, 2), 1, 2], [Fraction(1, 3), Fraction(1, 2), 1]]
pair = Mn.ManinPair(idem.parameterized_antisymmetrizer(qhat),
                    idem.parameterized_antisymmetrizer(qhat))
uni = Mn.universal_relations(pair, "M")
alg = uni.algebra()
alg.slice(3)
alg.slice(3)
assert isinstance(alg._slices, dict) and list(alg._slices) == [3]
assert tracer.counts["ideals.slice.hits"] == 1

# ideal_membership: relation rows read densely, minors multiplied by the
# dense view of arity-3 operators
rows = uni.space.basis.data
assert len(rows) == uni.dim and len(rows[0]) == len(uni.gens) ** 2
M = F.generator_matrix("M", 3, 3)
a_q = P.closed_form_multiparam(qhat, 3, "A").operator
s_q = P.closed_form_multiparam(qhat, 3, "S").operator
am = Mi.a_minor(M, a_q, 3)
sm = Mi.s_minor(M, s_q, 3)
for grid in (am, sm):
    assert isinstance(grid, list) and all(isinstance(row, list) for row in grid)
    assert len(grid) == len(grid[0]) == 27
assert Mi.verify_matrix_identity(am, F.poly_mat_times_scalar(am, a_q.matrix), alg)
assert Mi.verify_matrix_identity(sm, F.scalar_times_poly_mat(s_q.matrix, sm), alg)
print("bench contract holds")
"""


def test_tracer_installs_and_bench_calls_work():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    env.pop("MANIN_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "bench contract holds" in proc.stdout
