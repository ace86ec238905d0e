#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_bin from source (CMake, into $CARGO_TARGET_DIR or
.bench_build under the repository root), runs one workload and prints the
program's JSON result as the last line of stdout. Build output and the
program's diagnostics go to stderr.

    python3 perfbench/run.py --record <workload> <first-seed> <last-seed>

re-records perfbench/expected.tsv for a seed range: the output fingerprint
(verdict / confusion-matrix digest and accuracy) every later run of that
seed is checked against.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, "expected.tsv")
WORKLOADS = ("serve_steady", "serve_churn", "batch_shallow", "batch_deep")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds perfbench_bin; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/ next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_bin",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench_bin")


def child_env():
    # The program is measured in its default configuration: no SUGAR_*
    # knob (tracing, chaos, scale) leaks in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("SUGAR_")}


def run(args):
    binary = build()
    if binary is None:
        return 1
    trace_out = os.path.join(build_dir(), "trace_%s.json" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=child_env(), text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print("perfbench: perfbench_bin exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    return 0


def record(workload, first, last):
    binary = build()
    if binary is None:
        return 1
    fresh = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", "0", "--record"],
            stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(), text=True)
        if proc.returncode != 0:
            print("perfbench: recording %s seed %d failed" % (workload, seed),
                  file=sys.stderr)
            return 1
        fresh[seed] = proc.stdout.strip().splitlines()[-1]
        print(fresh[seed], file=sys.stderr)
    header = ["# perfbench output fingerprints: workload seed digest accuracy",
              "# (written by: python3 perfbench/run.py --record <workload> "
              "<first-seed> <last-seed>)"]
    rows = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 4 and parts[0] in WORKLOADS and parts[1].isdigit():
                    rows[(WORKLOADS.index(parts[0]), int(parts[1]))] = line.strip()
    for seed, line in fresh.items():
        rows[(WORKLOADS.index(workload), seed)] = line
    with open(EXPECTED, "w") as f:
        f.write("\n".join(header + [rows[k] for k in sorted(rows)]) + "\n")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--record":
        if len(sys.argv) != 5 or sys.argv[2] not in WORKLOADS:
            print("usage: run.py --record <workload> <first-seed> <last-seed>",
                  file=sys.stderr)
            return 2
        return record(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    p = argparse.ArgumentParser(description="perfbench runner")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
