#!/usr/bin/env python3
"""End-to-end benchmark of the Remy reproduction: one command per run.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds the benchmark binary
(perfbench/CMakeLists.txt, which compiles the checkout's src/ and
bench/harness.cc) into .bench_build/perfbench, replays the blessed smoke
digests as a correctness gate, then runs the workload in its own process so
that its peak RSS and getrusage figures belong to that workload alone.

It prints every metric by name with its unit, the host (nproc, build type,
compiler, commit), and as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

    python3 perfbench/run.py --record 0-31

re-records perfbench/recorded.json (per-seed result hashes of paper and
datacenter, and train's tree digest and score) from the checkout's code.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RECORDED = os.path.join(HERE, "recorded.json")
WORKLOADS = ("paper", "datacenter", "train")
# The inputs the benchmark needs from the checkout besides its own files.
REQUIRED = ("src", "bench/harness.cc", "data/scenarios", "data/scheme_digests.json")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not inside a full checkout; missing " + ", ".join(missing), 2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            same_tree = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in f.read()
        if not same_tree:  # a build tree copied from another checkout
            shutil.rmtree(BUILD)
            os.makedirs(tmp)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns the JSON object of its last line."""
    try:
        proc = subprocess.run(
            [BINARY, *args], capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"exit {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    # Not a git checkout: name the code by the digest of its sources.
    h = hashlib.sha1()
    for top in ("src", "bench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".hh")):
                    with open(os.path.join(base, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return "sources-sha1:" + h.hexdigest()[:16]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(seeds):
    out = {"note": "Outputs of perfbench at each workload's settings, "
                   "recorded with `python3 perfbench/run.py --record "
                   "SEEDS`. Seeds without an entry are checked by "
                   "invariants instead (see perfbench/README.md)."}
    for workload in ("paper", "datacenter"):
        out[workload] = {}
        for seed in seeds:
            out[workload][str(seed)] = run_binary(
                ["--record", workload, "--seed", str(seed)], timeout=600
            )
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    out["train"] = {"1": run_binary(["--record", "train"], timeout=600)}
    with open(RECORDED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="re-record perfbench/recorded.json, e.g. 0-31")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    build()
    if args.record:
        record(parse_seeds(args.record))
        return
    if args.workload is None:
        fail("--workload is required", 2)

    gate = run_binary(["--gate"])
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--recorded", RECORDED]
    if args.trace:
        run_args += ["--spans-out",
                     os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    res = run_binary(run_args)

    print(f"host: nproc={os.cpu_count()} build_type={res['build_type']} "
          f"compiler={res['compiler']} commit={commit()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for error in gate["errors"] + res["errors"]:
        print(f"check failed: {error}")
    print(f"gate: {gate['attempted']} smoke digests, {gate['failed']} failed")
    print(f"ops {res['attempted']}  ops_failed {res['failed']}")
    for name, m in sorted(res["metrics"].items()):
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")

    attempted = gate["attempted"] + res["attempted"]
    failed = gate["failed"] + res["failed"]
    print(json.dumps({
        "correct": failed == 0 and not gate["errors"] and not res["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }))


if __name__ == "__main__":
    main()
