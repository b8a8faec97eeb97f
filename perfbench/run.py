#!/usr/bin/env python3
"""rmsyn benchmark runner.

Builds perfbench/ (a CMake package that compiles rmsyn from ../src and the
rmbench program), runs one workload in its own process and prints its
metrics, one per line with unit, then a final JSON result line:

    python3 perfbench/run.py --workload scale --seed 1 --seconds 36 --trace 0

Without --workload it runs every workload (table2, table2-jobs4, arith-gen,
scale) one after another, each in its own process, and exits nonzero if any
of them fails a check.

Checks, any of which makes the run incorrect (exit code 1):
  * every synthesized output agrees with an independent reference
    (rmbench's own gate evaluator against the spec, or integer arithmetic
    for adderN/multN);
  * every flow status is ok;
  * the traced replay reproduces the untraced results exactly;
  * determinism: each per-circuit QoR record must equal the record any
    earlier run of the same sources stored under the same key. table2 and
    table2-jobs4 share keys, so serial and parallel rows must agree.

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench/<checkout> (CARGO_TARGET_DIR defaults to
.bench_build), where <checkout> hashes the path of perfbench/, so two
checkouts never share a build. The determinism state goes next to it, in
qor_state_<digest>.json, where <digest> hashes every file the build reads
(src/, data/, perfbench/src/, perfbench/CMakeLists.txt): a change to any of
them starts a fresh state, so QoR is compared only between runs of the
same code.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ALL_WORKLOADS = ["table2", "table2-jobs4", "arith-gen", "scale"]
# The serial table2 workload is not in BENCHMARK.json; its traced run makes
# three serial sweeps and needs longer.
RUN_TIMEOUT_S = {"table2": 400}
DEFAULT_TIMEOUT_S = 170
BUILD_INPUTS = [ROOT / "src", ROOT / "data", HERE / "src",
                HERE / "CMakeLists.txt"]


def source_digest():
    """Hashes the contents of every file the build reads."""
    h = hashlib.sha256()
    for top in BUILD_INPUTS:
        if top.is_file():
            files = [top]
        elif top.is_dir():
            files = sorted(p for p in top.rglob("*") if p.is_file())
        else:
            files = []
        for path in files:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:16]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    # CMake caches absolute paths: one build directory per checkout.
    checkout = hashlib.sha256(str(HERE).encode()).hexdigest()[:16]
    return base / "perfbench" / checkout


def build(out_dir):
    """Configures and builds rmbench; returns its path or None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out_dir), "--target", "rmbench",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    return out_dir / "rmbench"


def metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def determinism_gate(state_path, qor):
    """Compares QoR records with every earlier run's; returns mismatches."""
    state = {}
    if state_path.exists():
        state = json.loads(state_path.read_text())
    errors = []
    for key, value in sorted(qor.items()):
        if key in state and state[key] != value:
            errors.append("determinism: %s is %r, an earlier run gave %r"
                          % (key, value, state[key]))
        state.setdefault(key, value)
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, state_path)
    return errors


def run_workload(binary, state_path, workload, seed, seconds, trace):
    """Runs one workload; returns (result line dict, errors)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = RUN_TIMEOUT_S.get(workload, DEFAULT_TIMEOUT_S)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ["%s: timed out after %d s" % (workload, timeout)]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, ["%s: rmbench exited %d without a result"
                      % (workload, proc.returncode)]
    detail = json.loads(lines[-1])
    errors = list(detail["errors"])
    errors += determinism_gate(state_path, detail["qor"])
    if proc.returncode != 0 and not errors:
        errors.append("%s: rmbench exited %d" % (workload, proc.returncode))

    e2e, layers = metric_names()
    wanted = layers if trace else e2e
    metrics = {}
    for name in wanted:
        if name not in detail["metrics"]:
            errors.append("%s: metric %s missing" % (workload, name))
            continue
        metrics[name] = detail["metrics"][name]
    attempted = detail["attempted"]
    failed = detail["failed"]
    if errors and failed == 0:
        failed = attempted  # a failed gate taints every row it compared
    host = detail["host"]
    print("# workload %s seed %d trace %d: pass walls %s s; host nproc %d, %s, %s"
          % (workload, seed, trace,
             " ".join("%.3f" % w for w in detail["pass_walls"]),
             host["nproc"], host["compiler"], host["build_type"]))
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    print("%-34s %.6g %s" % ("failed_frac", failed / max(attempted, 1),
                             "ratio"))
    for err in errors:
        print("! " + err)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    state_path = out_dir / ("qor_state_%s.json" % source_digest())

    workloads = [args.workload] if args.workload else ALL_WORKLOADS
    all_errors = []
    result = None
    for w in workloads:
        t0 = time.monotonic()
        result, errors = run_workload(binary, state_path, w, args.seed,
                                      args.seconds, args.trace)
        print("# %s took %.1f s" % (w, time.monotonic() - t0))
        all_errors += errors
        if result is None:
            return 1
    if args.workload:
        print(json.dumps(result))
    else:
        print("# %d workload(s), %d error(s)" % (len(workloads),
                                                 len(all_errors)))
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
