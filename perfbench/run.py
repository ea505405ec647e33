#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload optimize_fig1 --seed 0 \
        --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The line before it is the full report: the
binary's details, the provenance of the measured tree, and the checks made.
Each report is also appended to <build dir>/results.jsonl.

    python3 perfbench/run.py --record 0-127

re-records perfbench/expected.json: the answers every request is checked
against, per workload and seed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
RECORDED = ("optimize_fig1", "montecarlo_join")  # serve_mixed checks twins
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    """CPUs this process may run on, as nproc counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are not in " + ROOT)
        return None
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch in the tree
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "perfbench")


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def tree_hash():
    """SHA-256 over the measured sources: what was built and run."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance():
    head = git("rev-parse", "HEAD")
    diff = git("diff", "HEAD", "--", ".") if head else None
    return {
        "commit": head.decode().strip() if head else None,
        "uncommitted_diff_sha256":
            hashlib.sha256(diff).hexdigest() if diff else None,
        "tree_sha256": tree_hash(),
        "nproc": nproc(),
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, expect):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for key, value in sorted(expect.items()):
        cmd += ["--expect", "%s=%s" % (key, value)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log("binary printed no report (exit %d)" % proc.returncode)
        return proc.returncode, None


def check_metrics(report, spec, trace):
    """The metric names and units must be exactly BENCHMARK.json's."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    problems = []
    for name, unit in wanted.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name] != unit:
            problems.append("unit of %s is %s, not %s" % (name, got[name],
                                                          unit))
    problems += ["unlisted metric " + n for n in got if n not in wanted]
    return problems


def measure(args):
    binary = build()
    if binary is None:
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    table = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
    expected = table.get(args.workload, {}).get(str(args.seed), {})
    prov = provenance()
    prov["loadavg_start"] = os.getloadavg()
    started = time.time()
    rc, report = run_binary(binary, args.workload, args.seed, args.seconds,
                            args.trace, expected)
    prov["loadavg_end"] = os.getloadavg()
    prov["wall_s"] = time.time() - started
    if report is None:
        return 1
    problems = check_metrics(report, spec, args.trace)
    if problems:
        log("; ".join(problems))
        return 2
    report["provenance"] = prov
    report["expected"] = ("recorded for seed %d" % args.seed if expected
                          else "unrecorded seed: requests checked against "
                               "the run's first answer")
    correct = (rc == 0 and report["failed"] == 0 and not report["errors"])
    report["failed_ratio"] = report["failed"] / max(1, report["attempted"])
    line = json.dumps(report, sort_keys=True)
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(line + "\n")
    print(line)
    for err in report["errors"]:
        log("check failed: " + err)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(seeds):
    binary = build()
    if binary is None:
        return 2
    table = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
    for workload in RECORDED:
        entries = table.setdefault(workload, {})
        for seed in seeds:
            rc, report = run_binary(binary, workload, seed, 0.001, 0, {})
            if rc != 0 or report is None:
                log("recording %s seed %d failed" % (workload, seed))
                return 1
            entries[str(seed)] = {k: v for k, v in report["notes"].items()
                                  if k != "request_seeds"}
            log("%s seed %d: %s" % (workload, seed, report["notes"]))
        table[workload] = dict(sorted(entries.items(), key=lambda kv:
                                      int(kv[0])))
    # One line per seed keeps the table reviewable in a diff.
    blocks = []
    for workload, entries in table.items():
        rows = ["  %s: %s" % (json.dumps(seed), json.dumps(entry,
                                                           sort_keys=True))
                for seed, entry in entries.items()]
        blocks.append(" %s: {\n%s\n }" % (json.dumps(workload),
                                           ",\n".join(rows)))
    with open(EXPECTED, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="closed-loop time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="re-record expected.json for seeds like 0-127")
    args = parser.parse_args()
    if args.record:
        return record(parse_seeds(args.record))
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        spec_path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.isfile(spec_path):
            log("no BENCHMARK.json in " + ROOT)
            return 2
        args.seconds = load_json(spec_path)["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
