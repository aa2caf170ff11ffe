#!/usr/bin/env python3
"""End-to-end benchmark of the Apollo serving stack.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest
    python3 e2ebench/run.py --compare RESULT.json [RESULT.json ...]

Run from the repository root. Builds e2ebench (Release, from this
directory's CMakeLists.txt and ../src) under .bench_build/, runs one
workload in a fresh process with a fresh archive directory, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run. The full record of a run (every metric with its sample
count, the checks, and the host fingerprint) goes to
.bench_build/results/<workload>-seed<N>-trace<T>.json, and a traced run's
spans to ...-spans.json. --compare prints metric medians per source
(commit or digest) and flags a comparison across host fingerprints.
README.md describes the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "e2ebench")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
RUN_TIMEOUT_S = 170
WORKLOADS = ("ingest_durable", "query_mix", "cq_push", "cluster_rf2")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    rc = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode
    return os.path.join(BUILD_DIR, target) if rc == 0 else None


def source_id():
    """git commit when run inside a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return "git:" + out.stdout.strip() + suffix
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(build_info, args):
    return {
        "hardware_threads": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags"),
        "build_type": build_info.get("build_type"),
        "source": source_id(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args):
    binary = build("e2ebench")
    if binary is None:
        log("e2ebench: build failed")
        return 1
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    workdir = os.path.join(BENCH_DIR, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--outdir", RESULTS_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("e2ebench: no result (exit %d)" % proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    detail_path = os.path.join(
        RESULTS_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                 args.trace))
    with open(detail_path) as f:
        detail = json.load(f)
    detail["fingerprint"] = fingerprint(detail.get("build", {}), args)
    with open(detail_path, "w") as f:
        json.dump(detail, f, indent=2)
    log("fingerprint: " + json.dumps(detail["fingerprint"]))
    log("record: " + os.path.relpath(detail_path, ROOT))
    print(json.dumps(result), flush=True)
    return proc.returncode


def selftest():
    binary = build("e2ebench_selftest")
    if binary is None:
        return 1
    return subprocess.run([binary], timeout=120).returncode


def compare(paths):
    """Medians per metric for each source (commit or digest) among the
    results; flags the comparison when the results come from more than one
    host fingerprint (hardware, kernel, compiler, flags, run settings)."""
    groups, hosts = {}, set()
    for path in paths:
        with open(path) as f:
            detail = json.load(f)
        fp = dict(detail.get("fingerprint", {}))
        fp.pop("seed", None)
        source = fp.pop("source", None)
        hosts.add(json.dumps(fp, sort_keys=True))
        groups.setdefault(source, []).append(detail)
    if len(hosts) > 1:
        print("FLAG: results come from %d different host fingerprints; "
              "absolute numbers are not comparable across them:" % len(hosts))
        for host in sorted(hosts):
            print("  " + host)
    for source, details in groups.items():
        print("%s (%d runs)" % (source, len(details)))
        section = "per_layer" if details[0].get("trace") else "end_to_end"
        for name in details[0].get(section, {}):
            values = []
            for d in details:
                v = d.get(section, {}).get(name)
                if v is not None:
                    values.append(v["value"] if isinstance(v, dict) else v)
            if values:
                print("  %-40s median %.6g  (n=%d)" % (
                    name, statistics.median(values), len(values)))
    return 2 if len(hosts) > 1 else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="RESULT")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
