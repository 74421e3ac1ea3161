#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the harness
(perfbench/main.exe and spin.exe) and the `recover` daemon with dune, runs the
workload in its own process group, checks that the reported metric names
and units match BENCHMARK.json, and relays the output; the last line is
the JSON result.  Exits non-zero when the sources are missing, the build
fails, or any output check fails.

While the workload runs, every CPU also runs perfbench/spin.exe, a loop
of PAUSE instructions at the lowest scheduling priority (SCHED_IDLE),
so that no CPU goes idle.  On a shared virtual machine an idle vCPU
halts, and waking it waits for the host's scheduler; that wait is paid
on every reply the query workload's client and daemon pass between
them and changes from minute to minute with the host's load.  The
kernel preempts a SCHED_IDLE task as soon as a workload thread is
ready, so the workload runs as fast as without the spinners (see
"Noise" in README.md).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

OUT_DIR = ".perfbench_out"
RUN_TIMEOUT_S = 170

SPIN = "./_build/default/perfbench/spin.exe"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def start_spinners():
    """One spinner per CPU, pinned to it, at SCHED_IDLE."""
    def spinner(cpu):
        def idle_on_cpu():
            os.sched_setaffinity(0, {cpu})
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        return subprocess.Popen([SPIN, str(RUN_TIMEOUT_S + 10)], preexec_fn=idle_on_cpu)
    return [spinner(cpu) for cpu in sorted(os.sched_getaffinity(0))]


def stop(procs):
    for p in procs:
        p.kill()
    for p in procs:
        p.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    # No shared dune cache: the build reads and writes only the checkout.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/main.exe", "./perfbench/spin.exe", "./bin/recover.exe"],
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        die("dune not found on PATH", 1)
    if build.returncode != 0:
        die("build failed", 1)
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [
        "./_build/default/perfbench/main.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT_DIR,
        "--recover", "./_build/default/bin/recover.exe",
    ]
    spinners = start_spinners()
    try:
        # A process group of its own, in this session: with autogroup
        # scheduling a new session would be its own group, weighed
        # equally with the spinners' whatever their priority.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, process_group=0)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = None
        finally:
            # The workload's process group includes any daemon it started.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    finally:
        stop(spinners)
    if out is None:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        die("no result line", 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
            f"want {sorted(wanted.items())}", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode if result["correct"] else max(proc.returncode, 1))


if __name__ == "__main__":
    main()
