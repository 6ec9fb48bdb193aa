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

E = idem.hecke_minus(3, Fraction(2))

# the tracer counts component_subspaces calls and reads (E, k) from the
# first two positional arguments
assert P.verify_axioms(P.generic_pairing(E, 2, "S"))["pass"]
assert tracer.calls["quadratic.component_subspaces"] == 2
assert len(tracer._distinct) == 1

# pairing_ladder embeds at an int leg; the tracer reads (op, total_arity)
# from the first two positional arguments of embed
cells = tracer.counts["tensor.embed.cells"]
assert T.embed(E, 3, 2) == T.embed(E, 3, (2, 3))
assert tracer.counts["tensor.embed.cells"] == cells + 2 * 27 ** 2

# pairing_ladder averages over the group; the tracer hooks group_average by
# name, reads k from the second positional argument and counts the distinct
# arity-k products formed inside.  The coset sums form none, and the braid
# check multiplies at arity 3 only, so the count stays where it was
elements = tracer.counts["pairing.group.elements"]
s4 = P.group_average(idem.antisymmetrizer(2), 4, "S")
assert tracer.calls["pairing.group_average"] == 1
assert s4.provenance == "group_average" and s4.operator.trace() == 5
assert tracer.counts["pairing.group.elements"] == elements

# graded_dims: a dense copy of an operator, perturbed and wrapped again
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
# a deeper slice, then a lower one served as a prefix of its increments:
# each is a miss, and the wrapped builder takes the increments already
# built as its fourth positional argument (9^5 words exceed the word budget,
# so the deeper degree is 4)
from maninalg import ideals
misses = tracer.counts["ideals.slice.misses"]
alg.slice(4)
alg.slice(2)
assert list(alg._slices) == [3, 4, 2]
assert tracer.counts["ideals.slice.hits"] == 1
assert tracer.counts["ideals.slice.misses"] == misses + 2
known = alg.slice(4).increments
assert alg.slice(2).increments == known[:1]
prefix = ideals.build_slice_from_subspace(alg.gens, alg.relations, 3, known)
assert prefix.increments == known[:2] and prefix.dim == alg.slice(3).dim

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

# ideal_membership: parameter matrices given as plain lists are restricted
# to index tuples and conjugated by permutations from all_perms, and read
# for their inversion products, before the minors and Manin checks use them
from maninalg import permutations as Pm
for I in ((1, 3), (2, 3, 1), (3, 3)):
    assert idem.parameterized_antisymmetrizer(idem.restrict_parameter_matrix(qhat, I)) == \
        idem.parameterized_antisymmetrizer([[qhat[a - 1][b - 1] for b in I] for a in I])
det, perm = Mi.det_qhat(qhat, M), Mi.perm_qhat(qhat, M)
tau = Pm.Perm((3, 1, 2))
for sigma in Pm.all_perms(3):
    f = Mi.inversion_parameter_product(qhat, sigma) / Mi.inversion_parameter_product(qhat, tau)
    assert Mi.inversion_parameter_product(qhat, sigma) == Pm.mu(qhat, sigma.inverse())
    smt = Mi.row_permuted(Mi.col_permuted(M, tau), sigma)
    dl = Mi.det_qhat(idem.conjugate_parameter_matrix(qhat, sigma), smt)
    pl = Mi.perm_qhat(idem.conjugate_parameter_matrix(qhat, tau), smt)
    assert Mi.verify_identity(dl, det.scale(sigma.sign() * tau.sign() * f), alg)
    assert Mi.verify_identity(pl, perm.scale(f), alg)
print("bench contract holds")
"""


def test_tracer_installs_and_bench_calls_work():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    env.pop("MANIN_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "bench contract holds" in proc.stdout


# Every seed that a benchmark run may draw: one pass of each seeded workload
# at seeds 1-10 and of suite_all (which reads no seed) once, each with its
# own Checks, as bench/worker.py runs them.
SWEEP = r"""
import workloads

for name, seeds in (("pairing_ladder", range(1, 11)), ("graded_dims", range(1, 11)),
                    ("ideal_membership", range(1, 11)), ("suite_all", (1,))):
    wl = workloads.WORKLOADS[name]
    mods = wl.imports()
    for seed in seeds:
        checks = workloads.Checks()
        wl.run(mods, wl.setup(mods, seed), checks, lambda trace_id, fn: fn())
        assert checks.attempted > 0, (name, seed)
        assert not checks.failures, (name, seed, checks.failures)
print("seed sweep holds")
"""


def test_every_workload_passes_at_seeds_1_to_10():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    env.pop("MANIN_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", SWEEP], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "seed sweep holds" in proc.stdout
