#!/usr/bin/env python3
"""The benchmark command named by BENCHMARK.json.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `hawkset` CLI and the
benchmark binary from source (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and passes the binary's
report through. Before printing the final result line it checks that the
line names exactly the metrics BENCHMARK.json lists for the mode
(`end_to_end` with --trace 0, `per_layer` with --trace 1) with their
units. Any build, run or contract failure exits non-zero without printing
a result line. Every process started is in one session and is killed and
reaped on a timeout.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, capture=False):
    """Runs cmd in its own session; kills the whole session on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the root of a checkout: BENCHMARK.json not found")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("no program sources next to BENCHMARK.json (Cargo.toml, crates/)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    started = time.monotonic()
    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "hawkset-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        code, _ = run(build, env, BUILD_TIMEOUT_S)
        if code != 0:
            fail(f"build failed ({code}): {' '.join(build)}")
    build_s = time.monotonic() - started

    release = target / "release"
    work = target / "e2ebench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(release / "hawkset-e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--hawkset", str(release / "hawkset"),
        "--work-dir", str(work),
    ]
    code, out = run(cmd, env, RUN_TIMEOUT_S, capture=True)
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {code})")
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    print(f"  build (no-op when up to date) took {build_s:.1f} s")
    if code != 0:
        fail(f"benchmark exited {code}; result withheld: {last}")

    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing} extra {extra} units {wrong}")
    if args.trace:
        design = json.loads((HERE / "design.json").read_text())
        for m in declared:
            moves = design["per_layer"].get(m["name"])
            if moves:
                print(f"  {m['name']} [{m['unit']}, {m['better']} is better] -> {moves}")
    print(last)


if __name__ == "__main__":
    main()
