"""Benchmark of maninalg: exact-arithmetic workloads, timed and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory holding `BENCHMARK.json`,
`bench/` and `src/maninalg/` works).  Workloads: suite_all,
pairing_ladder, graded_dims, ideal_membership; `bench/METRICS.md` says why
each was chosen and what every metric means.

Every pass runs in a fresh interpreter (`bench/worker.py`), one at a time,
because a user pays interpreter start-up and import on every `maninalg`
invocation.  With `--trace 0` the run first sets up several times without a
pass, then runs passes back to back while the next one is expected to end
within `--seconds`.  It reports the medians of the pass time and the
set-up time, both rescaled to a reference speed (see "Noise" in
`bench/METRICS.md`), and the largest peak RSS of a pass.  With `--trace 1`
it runs one untraced pass and two traced passes under different
PYTHONHASHSEED values, requires their exact counts to agree, and reports the
per-layer metrics of the first traced pass; spans go to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment and every sample.  The exit code is 0 only when every exact
check passed; the run refuses to start (exit 2) when `MANIN_BUDGET` is set,
because that budget changes which components are refused.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("suite_all", "pairing_ladder", "graded_dims", "ideal_membership")
SETUP_PROBES = 12         # set-up-only interpreters per timed run
WORKER_TIMEOUT_S = 150    # one pass of any workload takes well under this


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "maninalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit, "source_sha256": digest.hexdigest()}


def spawn(workload, seed, mode, hashseed=0, spans=None) -> dict:
    """Run one worker interpreter to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["maninalg"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported maninalg from {out['maninalg']}, not from {SRC}")
    return out


def timed_run(workload, seed, seconds):
    start = time.perf_counter()
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    passes, durations = [], []
    while True:
        began = time.perf_counter()
        passes.append(spawn(workload, seed, "pass"))
        durations.append(time.perf_counter() - began)
        # Start another pass only if it is expected to end within the budget.
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    # wall_s and setup_s are rescaled to the reference speed (worker.SpeedClock);
    # the raw times are kept alongside.
    samples = {"wall_s": [p["wall_ref_s"] for p in passes],
               "setup_s": [s["setup_ref_s"] for s in setups + passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
               "raw_wall_s": [p["wall_s"] for p in passes],
               "raw_setup_s": [s["setup_s"] for s in setups + passes]}
    values = {"wall_s": statistics.median(samples["wall_s"]),
              "setup_s": statistics.median(samples["setup_s"]),
              "peak_rss_mb": max(samples["peak_rss_mb"])}
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return values, samples, attempted, failures


def traced_run(workload, seed):
    OUT.mkdir(exist_ok=True)
    plain = spawn(workload, seed, "pass")
    runs = [spawn(workload, seed, "trace", hashseed=h,
                  spans=OUT / f"spans-{workload}-hashseed{h}.jsonl") for h in (0, 1)]
    first, second = runs[0]["counts"], runs[1]["counts"]
    differing = sorted(k for k in first.keys() | second.keys()
                       if first.get(k) != second.get(k))
    values = dict(runs[0]["layers"])
    values.update({
        "trace.wall_s": runs[0]["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": runs[0]["wall_s"] - plain["wall_s"],
        "trace.counts_identical": int(not differing),
    })
    samples = {"wall_s": [plain["wall_s"]] + [r["wall_s"] for r in runs],
               "counts_hashseed0": first}
    attempted = plain["attempted"] + sum(r["attempted"] for r in runs) + 1
    failures = plain["failures"] + [f for r in runs for f in r["failures"]]
    if differing:
        failures.append(f"counts differ across PYTHONHASHSEED: {', '.join(differing)}")
    return values, samples, attempted, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args()
    if "MANIN_BUDGET" in os.environ:
        print("error: MANIN_BUDGET is set; it changes which components are refused, "
              "so the run would not be comparable. Unset it.", file=sys.stderr)
        return 2
    if not (SRC / "maninalg" / "__init__.py").is_file():
        print(f"error: no maninalg package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(SRC / "maninalg"), quiet=1)

    try:
        if args.trace:
            values, samples, attempted, failures = traced_run(args.workload, args.seed)
        else:
            values, samples, attempted, failures = timed_run(args.workload, args.seed,
                                                             args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "samples": samples,
                      "sample_counts": {k: len(v) for k, v in samples.items()},
                      "failures": failures}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
