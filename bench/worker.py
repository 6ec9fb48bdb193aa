"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode setup|pass|trace
                            [--spans FILE]

`setup` only imports maninalg and builds the inputs; `pass` also runs one
untraced pass, timing each item with a speed reference (`SpeedClock`);
`trace` runs the pass with the tracer installed and writes the spans to
FILE.  The last line of standard output is one JSON object.
`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction

import expected
import workloads
from tracing import Tracer

# Duration of reference_s() at the fast speed of the machine the benchmark
# was defined on (Intel Xeon, Python 3.11.7); it only sets the scale.
REFERENCE_S = 0.0032


def reference_s() -> float:
    """Duration of a fixed pure-Python Fraction computation that does not
    touch maninalg: the machine's current speed for the library's kind of
    work."""
    t = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1200):
        total += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    `VmHWM` starts afresh at exec; `ru_maxrss` would also count the pages
    the parent had when it started this interpreter.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpeedClock:
    """Times calls and rescales each to the reference speed.

    A shared host can slow a virtual machine by up to 2x in phases that
    last from a second to minutes (see "Noise" in bench/METRICS.md).  The
    reference runs just before and just after
    every timed call; the call's corrected time is its time multiplied by
    REFERENCE_S over the mean of the two reference durations.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.corrected_s = 0.0

    def measure(self, fn):
        before = reference_s()
        t = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t
        after = reference_s()
        self.raw_s += dt
        self.corrected_s += dt * REFERENCE_S * 2 / (before + after)
        return out

    def item(self, trace_id, fn):
        return self.measure(fn)


def layer_metrics(tr) -> dict:
    """Per-layer metrics from a traced pass, by the names in BENCHMARK.json."""
    S, I, C, N = tr.self_s, tr.incl_s, tr.calls, tr.counts

    def module_self(prefix):
        return sum(v for k, v in S.items() if k.startswith(prefix))

    inserts = C["linalg.SparseEchelon.insert"]
    increments = N["linalg.SparseEchelon.insert.rank_increments"]
    out = {
        "linalg.rref.calls": C["linalg.rref"],
        "linalg.rref.self_s": S["linalg.rref"],
        "linalg.kernel.self_s": S["linalg.kernel"],
        "linalg.QMatrix.mul.calls": C["linalg.QMatrix.__mul__"],
        "linalg.QMatrix.mul.self_s": S["linalg.QMatrix.__mul__"],
        "linalg.QMatrix.init.self_s": S["linalg.QMatrix.__init__"],
        "linalg.QMatrix.cells_built": N["linalg.QMatrix.cells_built"],
        "linalg.Subspace.contains.self_s": S["linalg.Subspace.contains"],
        # insert and contains run no other layer inside, so their inclusive
        # time is the SparseEchelon self time they account for (reduce included).
        "linalg.SparseEchelon.insert.calls": inserts,
        "linalg.SparseEchelon.insert.self_s": I["linalg.SparseEchelon.insert"],
        "linalg.SparseEchelon.insert.rank_increments": increments,
        "linalg.SparseEchelon.insert.useful_ratio": increments / inserts if inserts else 0.0,
        "linalg.SparseEchelon.contains.calls": C["linalg.SparseEchelon.contains"],
        "linalg.SparseEchelon.contains.self_s": I["linalg.SparseEchelon.contains"],
        "linalg.SparseEchelon.reduce.calls": C["linalg.SparseEchelon.reduce"],
        "linalg.max_coeff_bits": tr.max_bits,
        "linalg.self_s": module_self("linalg."),
        "linalg.SparseEchelon.self_s": module_self("linalg.SparseEchelon."),
        "linalg.dense.self_s": module_self("linalg.") - module_self("linalg.SparseEchelon."),
        "tensor.embed.calls": C["tensor.embed"],
        "tensor.embed.self_s": S["tensor.embed"],
        "tensor.embed.cells": N["tensor.embed.cells"],
        "tensor.embed_pair.self_s": S["tensor.embed_pair"],
        "tensor.TensorOperator.mul.calls": C["tensor.TensorOperator.__mul__"],
        "tensor.compose_chain.self_s": S["tensor.compose_chain"],
        "tensor.check_budget.refusals": N["tensor.check_budget.refusals"],
        "tensor.self_s": module_self("tensor."),
        "freealg.NCPoly.mul.calls": C["freealg.NCPoly.__mul__"],
        "freealg.NCPoly.mul.self_s": S["freealg.NCPoly.__mul__"],
        "freealg.NCPoly.add.self_s": S["freealg.NCPoly.__add__"],
        "freealg.self_s": module_self("freealg."),
        "ideals.build_slice.calls": C["ideals.build_slice_from_subspace"],
        "ideals.build_slice.self_s": S["ideals.build_slice_from_subspace"] + S["ideals.build_slice"],
        "ideals.slice.hits": N["ideals.slice.hits"],
        "ideals.slice.misses": N["ideals.slice.misses"],
        "ideals.reduces_to_zero.self_s": (S["ideals.reduces_to_zero"]
                                          + S["ideals.PresentedAlgebra.reduces_to_zero"]),
        "ideals.word_budget.refusals": N["ideals.word_budget.refusals"],
        "ideals.self_s": module_self("ideals."),
        "quadratic.component_subspaces.calls": C["quadratic.component_subspaces"],
        "quadratic.component_subspaces.distinct": N["quadratic.component_subspaces.distinct"],
        "quadratic.component_subspaces.self_s": S["quadratic.component_subspaces"],
        "quadratic.graded_dimension.self_s": (S["quadratic.graded_dimension"]
                                              + S["quadratic.ideal_slice_dim"]),
        "quadratic.graded_dimension.s": I["quadratic.graded_dimension"],
        "quadratic.self_s": module_self("quadratic."),
        "pairing.generic.s": I["pairing.generic_pairing"],
        "pairing.hecke.s": I["pairing.hecke_pairing"],
        "pairing.brauer.s": I["pairing.brauer_pairing"],
        "pairing.group.s": I["pairing.group_average"],
        "pairing.verify_axioms.s": I["pairing.verify_axioms"],
        "pairing.group.elements": N["pairing.group.elements"],
        "pairing.self_s": module_self("pairing."),
        "manin.self_s": module_self("manin."),
        "manin.is_manin.calls": C["manin.is_manin"],
        "minors.self_s": module_self("minors."),
        "minors.verify_identity.calls": C["minors.verify_identity"],
        "idempotents.self_s": module_self("idempotents."),
        "scenarios.self_s": module_self("scenarios."),
        "trace.item_self_s": S["item"],
        "trace.span_coverage": tr.covered_s / sum(tr.item_s.values()) if tr.item_s else 0.0,
        "trace.spans": len(tr.spans),
    }
    for rung in workloads.RUNGS:
        out[f"pairing.rung.{rung}.s"] = sum(v for k, v in tr.item_s.items()
                                            if k.startswith(rung + "."))
    for suite in expected.SUITES:
        out[f"suites.{suite}.s"] = sum(v for k, v in tr.item_s.items()
                                       if k.startswith(suite + "."))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    ap.add_argument("--spans")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    tracer = Tracer() if args.mode == "trace" else None

    def set_up():
        mods = wl.imports()
        if tracer is not None:
            tracer.install()
        return mods, wl.setup(mods, args.seed)

    setup_clock = SpeedClock()
    mods, inputs = setup_clock.measure(set_up)
    result = {"setup_s": setup_clock.raw_s, "setup_ref_s": setup_clock.corrected_s,
              "maninalg": sys.modules["maninalg"].__file__}

    if args.mode == "pass":
        clock = SpeedClock()
        wl.run(mods, inputs, checks, clock.item)
        result["wall_s"], result["wall_ref_s"] = clock.raw_s, clock.corrected_s
    elif args.mode == "trace":
        t = time.perf_counter()
        wl.run(mods, inputs, checks, tracer.item)
        result["wall_s"] = time.perf_counter() - t
    if args.mode != "setup":
        result["peak_rss_mb"] = peak_rss_mb()
        result["attempted"] = checks.attempted
        result["failures"] = checks.failures
    if tracer is not None:
        result["counts"] = tracer.finish_counts()
        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
