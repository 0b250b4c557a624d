#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  It builds perfbench/ (and with it the
simulator libraries) into .bench_build/, prepares the signature store the
workloads read for this seed once (cached under .bench_build/stores/,
keyed by a hash of the built binary so that each build of the simulator
measures its own signatures), then runs the p2sim_perfbench binary and
passes its output through.  The last stdout line is the binary's JSON
result.  Seed 0 is the default campaign; for it the campaign fingerprints
recorded in perfbench/fingerprints.json are checked as well.

--self-test runs every workload at a tiny campaign size, checks that every
metric BENCHMARK.json names prints with its unit, and that a tampered
fingerprint makes the benchmark fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "p2sim_perfbench")
WORKLOADS = ("warm", "scraped")
DEFAULT_DAYS = 30
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; returns False when the sources are absent
    or do not compile."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "p2sim_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def binary_hash():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def ensure_store(workload, seed, days):
    """The seed's signature store, measured by this build's cold campaign."""
    stores = os.path.join(BUILD, "stores", binary_hash())
    os.makedirs(stores, exist_ok=True)
    path = os.path.join(stores, "seed%d-d%d.sig" % (seed, days))
    if not os.path.exists(path):
        cmd = [BINARY, "--prepare-store", path, "--workload", workload,
               "--seed", str(seed), "--days", str(days)]
        if subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode != 0:
            raise RuntimeError("signature store preparation failed")
    return path


def recorded_fingerprints(seed, days):
    """The default campaign's recorded fingerprints (seed 0 only)."""
    if seed != 0:
        return {}
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        recorded = json.load(f)["seed0"]
    return {config: recorded["%s-d%d" % (config, days)]
            for config in ("clean", "faulted")
            if "%s-d%d" % (config, days) in recorded}


def run_bench(workload, seed, seconds, trace, days, fingerprint=None):
    """Runs one benchmark process; returns (exit code, stdout lines).
    `fingerprint` overrides the recorded clean fingerprint."""
    store = ensure_store(workload, seed, days)
    rundir = os.path.join(BUILD, "run", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--days", str(days), "--rundir", rundir, "--store", store]
    recorded = recorded_fingerprints(seed, days)
    if fingerprint is not None:
        recorded["clean"] = fingerprint
    if "clean" in recorded:
        cmd += ["--expect-fingerprint", recorded["clean"]]
    if "faulted" in recorded:
        cmd += ["--expect-faulted-fingerprint", recorded["faulted"]]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True

    def expect(cond, what):
        nonlocal ok
        if not cond:
            ok = False
            log("self-test FAILED: " + what)

    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = [m for layer in json.load(f)["layers"]
                  for m in layer["metrics"]]
    expect(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
           "layers.json does not map exactly the per-layer metrics")

    days = 2
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(workload, 0, 1, trace, days)
            name = "%s --trace %d" % (workload, trace)
            expect(code == 0, name + " exited %d" % code)
            result = json.loads(lines[-1]) if lines else {}
            expect(sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"],
                   name + " result keys")
            expect(result.get("correct") is True and
                   result.get("failed") == 0 and
                   result.get("attempted", 0) >= 1,
                   name + " reported failures")
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(sorted(metrics) == sorted(want),
                   name + " metric names: %s" %
                   sorted(set(metrics) ^ set(want)))
            for metric, unit in want.items():
                got = metrics.get(metric, {})
                expect(got.get("unit") == unit and
                       isinstance(got.get("value"), (int, float)),
                       "%s metric %s: %r" % (name, metric, got))
    # A deliberately wrong recorded fingerprint must fail the run.
    code, lines = run_bench("warm", 0, 1, 0, days,
                            fingerprint="0000000000000000")
    result = json.loads(lines[-1]) if lines else {}
    expect(code != 0, "tampered fingerprint still exited 0")
    expect(result.get("failed", 0) > 0 and result.get("correct") is False,
           "tampered fingerprint did not raise the failure count")
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, lines = run_bench(args.workload, args.seed, args.seconds,
                            args.trace, args.days)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
