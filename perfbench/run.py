#!/usr/bin/env python3
"""The repo benchmark: closed-loop DSM ops over a forked 4-rank mesh.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 10 --trace 0

It builds perfbench/dsmbench from the checkout's own sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for --seconds, prints
every metric by name with its unit and sample count, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The full report (rounds, provenance, the per-layer span table, the
Perfetto file of a traced run) is written beside the build. The exit code is
0 only when every round matched the sim reference.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# dsmbench bounds each rank process itself; this bounds the whole binary so
# the benchmark always ends within its 180 s budget after the build.
BINARY_TIMEOUT_S = 150
# The repo's own default build type, so the benchmark times what users build.
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds dsmbench; returns the binary's path."""
    cmake_dir = build_dir / "cmake"
    cache = cmake_dir / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
    if cache.exists() and home not in cache.read_text():
        shutil.rmtree(cmake_dir)  # configured for another checkout
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "dsmbench"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}")
            if code != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return cmake_dir / "dsmbench"


def run_binary(cmd):
    """Runs dsmbench in its own process group; on timeout kills the group
    and waits until every process in it (the rank processes too) is gone."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"dsmbench did not finish within {BINARY_TIMEOUT_S} s", 3)


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fmt(metric):
    if "value" not in metric:
        return "—"
    v = metric["value"]
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(report, predictions):
    prov = report["provenance"]
    print(f"workload {report['workload']}  seed {prov['seed']}  "
          f"run {prov['run_seconds']} s  trace {int(report['trace'])}")
    print("shape: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    rounds = report["rounds"]
    print(f"rounds: {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), "
          f"attempted {report['attempted']} ops, failed {report['failed']}")
    for i, r in enumerate(rounds):
        if not r["ok"]:
            print(f"  round {i} FAILED: {r['why']}")
    print(f"checksum {report['checksum']} (sim reference "
          f"{report['reference_checksum']})")

    print("\nend-to-end (untraced rounds; timings over those the host left alone)")
    print(f"  {'metric':<20} {'value':>14}  {'unit':<7} samples")
    for name, m in report["e2e"].items():
        note = ""
        if "value" not in m:
            note = ("  (no such calls in this workload)" if m["samples"] == 0
                    else "  (fewer than 10 samples beyond the percentile)")
        print(f"  {name:<20} {fmt(m):>14}  {m['unit']:<7} {m['samples']}{note}")

    if not report["trace"]:
        return
    print("\nper-layer (traced rounds and layer drives)")
    print(f"  {'metric':<34} {'value':>14}  {'unit':<9} {'samples':>9}  should move")
    moves = {}
    for row in predictions:
        for name in row["metrics"]:
            moves[name] = row
    for name, m in report["layers"].items():
        row = moves.get(name)
        hint = ""
        if row:
            hint = row["moves"]
            if row["works_on"]:
                hint += f"; works on {', '.join(row['works_on'])}"
            if row["flat_on"]:
                hint += f"; flat on {', '.join(row['flat_on'])}"
        print(f"  {name:<34} {fmt(m):>14}  {m['unit']:<9} {m['samples']:>9}  {hint}")
    print("\nspans (benchmark-side, traced rounds)")
    print(f"  {'span':<24} {'count':>10} {'busy s':>12} {'self s':>12}")
    for row in report["span_table"]:
        print(f"  {row['name']:<24} {row['count']:>10} "
              f"{row['busy_s']:>12.6f} {row['self_s']:>12.6f}")
    rollup = {}
    for row in report["span_table"]:
        layer = rollup.setdefault(row["name"].split(".")[0], [0, 0.0, 0.0])
        layer[0] += row["count"]
        layer[1] += row["busy_s"]
        layer[2] += row["self_s"]
    print("  per layer:")
    for name, (count, busy, self_s) in rollup.items():
        print(f"  {name:<24} {count:>10} {busy:>12.6f} {self_s:>12.6f}")
    print(f"perfetto: {report['perfetto']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: a reference checksum forced wrong, so
    # every round must fail.
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not spec_path.exists():
        fail("run from a checkout of the repository (src/ and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    predictions = json.loads((HERE / "layers.json").read_text())

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = build_dir / "runs" / run_name
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={result_path}", f"--scratch={run_dir / 'scratch'}"]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    code = run_binary(cmd)
    if not result_path.exists():
        fail(f"dsmbench exited {code} without a result", 3)
    report = json.loads(result_path.read_text())
    report["provenance"]["git_commit"] = git_commit()
    report["provenance"]["source_digest"] = source_digest()
    report["provenance"]["build_type"] = BUILD_TYPE
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print_report(report, predictions)
    print(f"report: {run_dir / 'report.json'}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["layers"] if args.trace else report["e2e"]
    metrics, missing = {}, []
    for m in wanted:
        got = source.get(m["name"])
        if got is None or "value" not in got or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
    correct = code == 0 and report["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
