#!/usr/bin/env python3
"""The qoesim benchmark.

    python3 qoebench/run.py --workload <access_mix|backbone_long|pdes_ring>
                            --seed <n> --seconds <s> --trace <0|1>

Builds the simulator and the qoebench harness from source into
.bench_build/qoebench (CMake, Release), runs the harness, checks its
results and prints a readable report followed, as the last line of
stdout, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 if the build or the harness fails, or if any operation failed.
See qoebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import report  # noqa: E402  (the module lives next to this script)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "qoebench"
HARNESS = BUILD_DIR / "qoebench"
REFERENCE = BENCH_DIR / "reference_digests.json"
WORKLOADS = ("access_mix", "backbone_long", "pdes_ring")
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; the build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"qoebench: {' '.join(cmd)}: {e}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"qoebench: {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def load_average():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return ["unknown"]


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(args):
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"qoebench: harness: {e}")
        return None
    if done.returncode != 0:
        log(f"qoebench: harness exited {done.returncode}")
        return None
    records = {"round": [], "host": None, "spans": None, "probes": None,
               "end": None}
    for line in done.stdout.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "round":
            records["round"].append(rec)
        else:
            records[rec["kind"]] = rec
    if records["end"] is None or not records["round"]:
        log("qoebench: harness output is incomplete")
        return None
    return records


def reference_for(workload, seed):
    """Per-operation digests for the committed seed, else None."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return ref["workloads"][workload]


def fmt(value, unit):
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's digests as the reference "
                             "for its seed (after a deliberate model change)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    load_start = load_average()
    records = run_harness(args)
    if records is None:
        return 1
    load_end = load_average()

    untraced = [r for r in records["round"] if not r["traced"]]
    traced = [r for r in records["round"] if r["traced"]]

    if args.update_reference:
        ref = json.loads(REFERENCE.read_text())
        ref["seed"] = args.seed
        ref["workloads"][args.workload] = {
            op["id"]: op["digest"] for op in untraced[0]["ops"]}
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    reference = reference_for(args.workload, args.seed)
    attempted, failed, problems = report.check_ops(untraced, traced, reference)

    host = records["host"]
    print(f"qoebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host nproc={os.cpu_count()} compiler={host['compiler']} "
          f"build_type={host['build_type']} git_rev={git_rev()}")
    print(f"load_average start={' '.join(load_start)} "
          f"end={' '.join(load_end)}")
    for r in records["round"]:
        kind = ("check (untimed)" if r.get("check") else
                "traced" if r["traced"] else "untraced")
        setups = [op["setup_s"] for op in r["ops"] if "setup_s" in op]
        setup = f" setup_s={sum(setups):.6g}" if setups else ""
        print(f"round {r['round']} {kind} wall_s={r['wall_s']:.6g}{setup}")
    print(f"reference digests: "
          f"{'checked' if reference is not None else 'not stored for this seed'}")
    slowest = sorted(report.fastest_per_op(report.timed(untraced),
                                           "wall_s").items(),
                     key=lambda item: -item[1])[:5]
    print("slowest operations (fastest repetition, s): " + ", ".join(
        f"{op_id}={secs:.4g}" for op_id, secs in slowest))
    for line in problems:
        print(f"FAILED {line}")
    print(f"operations attempted={attempted} failed={failed}")

    if args.trace:
        values = report.per_layer(untraced, traced, records["spans"]["spans"],
                                  records["probes"])
        names = report.PER_LAYER
        best = report.fastest_traced(traced)["round"]
        print(f"spans of traced round {best} (count, total s, self s):")
        summary = report.span_summary(records["spans"]["spans"], best)
        for name, (count, total, own) in sorted(summary.items()):
            print(f"  span {name}: n={count} total={total:.6g} self={own:.6g}")
        for name, unit in report.PER_LAYER + report.REPORT_ONLY:
            value = values.get(name)
            shown = "absent (base 0)" if value is None else fmt(value, unit)
            print(f"metric {name} = {shown}")
    else:
        values = report.end_to_end(untraced, records["end"])
        names = report.END_TO_END
        print(f"wall_s and setup_s: sum of per-operation minima over "
              f"{len(report.timed(untraced))} rounds")
        for name, unit in names:
            print(f"metric {name} = {fmt(values[name], unit)}")

    print(json.dumps(report.result_line(names, values, attempted, failed)),
          flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
