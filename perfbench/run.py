#!/usr/bin/env python3
"""Build and run the repository benchmark, then print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 15 --trace 0

Builds the `sixg-perfbench` package (perfbench/Cargo.toml) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and
prints two JSON lines: the full result record (metrics, details, host
fingerprint, seed), then the summary
`{"correct", "attempted", "failed", "metrics"}` as the last line. The record
is also appended to `.bench_results/records.jsonl`, and a traced run writes
its spans to `.bench_results/spans-<workload>-seed<seed>.jsonl`.

Exits 0 when every output check passed, 1 when one failed, and 2 or more
without printing a result when the sources, the build or the run are
missing or broken.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175

# What the benchmark builds and reads besides its own directory.
SOURCES = [
    "Cargo.toml",
    "Cargo.lock",
    "crates/measure/Cargo.toml",
    "crates/bench/Cargo.toml",
    "crates/core/Cargo.toml",
    "vendor/rand/Cargo.toml",
    "vendor/rayon/Cargo.toml",
    "vendor/serde/Cargo.toml",
    "vendor/serde_json/Cargo.toml",
    "specs/klagenfurt.json",
    "specs/continental.json",
    "specs/klagenfurt_flap.json",
    "specs/sweeps/mega_klagenfurt.json",
]

# Trees whose content the source digest covers.
DIGEST_TREES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "src", "specs", "perfbench"]


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_TREES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def host_fingerprint():
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "rustc": command_output(["rustc", "-V"]),
        "cargo": command_output(["cargo", "-V"]),
        "kernel": platform.release(),
        "rayon_num_threads_env": os.environ.get("RAYON_NUM_THREADS"),
        "git_commit": git_commit,
        "source_sha256": source_digest(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        fail(2, f"repository sources missing: {', '.join(missing)}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(2, f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(3, "build failed")

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    argv = [str(target / "release" / "sixg-perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", str(results / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(4, f"run exited {run.returncode} without a result")

    expected = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(record["metrics"]) != expected:
        fail(5, f"metric names differ from BENCHMARK.json: "
                f"{sorted(set(record['metrics']) ^ expected)}")

    record["host"] = host_fingerprint()
    with open(results / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if record["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
