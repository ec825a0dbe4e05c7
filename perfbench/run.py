#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles `perfbench` together with the PPA
libraries from `src/` into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`); later runs only re-check the build. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report. The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("wide_4k", "fig6_ppa_correlated", "fig6_approx_correlated")
# The committed head-to-head baseline the fig6 workloads must reproduce at
# seed 42 (its sources use seed 42): the rate-2000 correlated cells.
ANCHOR_REPORT = ROOT / "BENCH_mode_head_to_head.json"
ANCHOR_SEED = 42
ANCHOR_MODE = {"fig6_ppa_correlated": "ppa", "fig6_approx_correlated": "approx"}
ANCHOR_KEYS = ("events_processed", "sink_records", "checkpoint_bytes")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    cache = out_dir / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    if cache.exists() and home not in cache.read_text().splitlines():
        shutil.rmtree(out_dir)  # configured for another checkout
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    return out_dir / "perfbench"


def anchor_failures(workload, seed, report):
    """Compares the seed-42 fig6 counters at the anchor instant with the
    committed baseline cell; returns the mismatches."""
    if workload not in ANCHOR_MODE or seed != ANCHOR_SEED:
        return None
    cells = json.loads(ANCHOR_REPORT.read_text())["cells"]
    cell = next(c for c in cells
                if c["recovery_mode"] == ANCHOR_MODE[workload]
                and c["intensity"] == "correlated" and c["rate"] == 2000)
    got = report["anchor"]
    return [f"anchor {key}: {got[key]} != {cell[key]} in {ANCHOR_REPORT.name}"
            for key in ANCHOR_KEYS if got[key] != cell[key]]


def print_report(result, report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"threads backend num_shards={report['num_shards']}  "
          f"fail at {report['fail_at_s']} s, run to {report['run_to_s']} s "
          f"(sim), input {report['input_tuples']} tuples")
    print("repetitions " + ", ".join(
        f"{k}={v}" for k, v in report["repetitions"].items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  host slowdown {report['host_slowdown']:.3f} (calibration "
          f"{report['calibration_s']:.4f} s)" + "".join(
              f"; raw {k} {v:.6g}" for k, v in report.get("raw", {}).items()))
    print(f"  sink latency p50 {report['sink_latency_p50_s']} s over "
          f"{report['sink_latency_samples']} records; events "
          f"{report['events_processed']}, sink records "
          f"{report['sink_records']}, recoveries {report['recoveries']}, "
          f"peak RSS {report['peak_rss_mb']:.1f} MB")
    if report["anchor"]["at_s"] >= 0:
        print(f"  at {report['anchor']['at_s']} s: " + ", ".join(
            f"{k}={report['anchor'][k]}" for k in ANCHOR_KEYS))
    for error in report["errors"]:
        print(f"  FAILED: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no PPA sources under {ROOT / 'src'}; nothing to benchmark")
        return 2
    try:
        binary = build(build_dir())
    except subprocess.CalledProcessError as err:
        log(f"build failed: {err}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return 1
    out = json.loads(lines[-1])
    report = out["report"]
    result = {key: out[key] for key in ("correct", "attempted", "failed",
                                        "metrics")}
    mismatches = anchor_failures(args.workload, args.seed, report)
    if mismatches is not None:
        result["attempted"] += 1
        if mismatches:
            result["failed"] += 1
            result["correct"] = False
            report["errors"].extend(mismatches)
    if proc.returncode != 0:
        result["correct"] = False

    print_report(result, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
