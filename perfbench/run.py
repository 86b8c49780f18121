#!/usr/bin/env python3
"""Builds the benchmark and runs one of its workloads, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. Each workload runs in its own process;
the last line of standard output is the run's JSON result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--workload all` runs the four workloads one after another, checks that
`census` and `census-disk` agree on their counts, and prints one result
line per workload. `--self-test` runs every workload on tiny inputs and
checks the metric names and units against BENCHMARK.json and that a wrong
pin is caught. README.md in this directory describes every metric.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["census", "census-disk", "explore", "crash-soak"]
# A run measures for --seconds and then finishes its last verdict; the
# slowest verdict takes about 6 s, so this leaves a wide margin.
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary in release mode and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("the build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs one workload in its own process group and returns
    (exit code, stdout lines). `quiet` drops the workload's stderr table."""
    work_dir = os.path.join(ROOT, ".bench_work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            stderr=subprocess.DEVNULL if quiet else None,
                            start_new_session=True)
    # The workload leads its own process group (crash-fabric workers
    # included): a timeout or a signal to this script stops all of it.
    def kill():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # A killed workload cannot remove its own scratch directory.
        shutil.rmtree(os.path.join(work_dir, f"{workload}-{proc.pid}"), ignore_errors=True)

    def stop(signum, _frame):
        kill()
        sys.exit(128 + signum)

    handlers = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return proc.returncode, out.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def info_of(lines):
    for line in lines:
        if line.startswith('{"info"'):
            return json.loads(line)["info"]
    return {}


def self_test(binary):
    """Tiny inputs: every metric named in BENCHMARK.json appears with its
    unit on every workload, the pins hold, census and census-disk agree,
    and a wrong pin fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, spec["workloads"]
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    counts = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_one(binary, workload, 7, 1, trace, ["--tiny"], quiet=True)
            res = result_of(lines)
            assert code == 0 and res is not None, (workload, trace, code, lines[-1:])
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == wanted[trace], (workload, trace, set(got) ^ set(wanted[trace]))
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values()), res
                counts[workload] = info_of(lines)
        code, lines = run_one(binary, workload, 7, 1, 0, ["--tiny", "--wrong-pin"], quiet=True)
        res = result_of(lines)
        assert code != 0 and res is not None and res["failed"] > 0, (workload, code, res)
        assert not res["correct"], res
        print(f"self-test: {workload} ok (wrong pin: {res['failed']}/{res['attempted']} failed)")
    agree("census", "census-disk", counts)
    print("self-test: census and census-disk agree")
    print("self-test: passed")


def agree(a, b, infos):
    for key in ("expansions", "distinct_shared"):
        if infos[a].get(key) != infos[b].get(key):
            raise AssertionError(f"{a} and {b} disagree on {key}: "
                                 f"{infos[a].get(key)} vs {infos[b].get(key)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not a.self_test and not 1 <= a.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    binary = build()
    if a.self_test:
        try:
            self_test(binary)
        except AssertionError as e:
            fail(f"self-test failed: {e}", 1)
        return 0
    if a.workload != "all":
        code, lines = run_one(binary, a.workload, a.seed, a.seconds, a.trace)
        print("\n".join(lines))
        if result_of(lines) is None:
            fail(f"{a.workload} printed no result", code or 1)
        return code
    worst, infos = 0, {}
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, a.seed, a.seconds, a.trace)
        print("\n".join(lines))
        infos[workload] = info_of(lines)
        worst = worst or code or (result_of(lines) is None)
    try:
        agree("census", "census-disk", infos)
    except AssertionError as e:
        print(f"run.py: {e}", file=sys.stderr)
        worst = worst or 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
