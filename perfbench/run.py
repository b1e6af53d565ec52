#!/usr/bin/env python3
"""Build the engine from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-3color --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn.

Builds `bin/ppr.exe` and `perfbench/perfbench.exe` with dune, prints the
run's provenance (source digest, git revision when there is one, nproc,
toolchain versions), then hands over to the OCaml driver, whose last
line of output is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-3color", "structured-wide", "serve-zipf")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RUN_DIR = ".perfbench_run"
SOURCES = ("dune-project", "bin", "lib", "perfbench")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not os.path.basename(d).startswith((".", "_"))
            for f in files
        )
        for p in sorted(paths):
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def dune_command():
    dune = shutil.which("dune")
    if dune is not None:
        return [dune]
    if shutil.which("opam") is not None:
        return ["opam", "exec", "--", "dune"]
    return None


def git_rev():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "none (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in SOURCES + ("bin/ppr.ml",) if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing), 2)
    dune = dune_command()
    if dune is None:
        fail("neither dune nor opam is on PATH", 2)

    build = subprocess.run(
        dune + ["build", "--root", ".", "./bin/ppr.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    os.makedirs(RUN_DIR, exist_ok=True)
    dune_version = subprocess.run(dune + ["--version"], capture_output=True, text=True)
    print(f"source digest {source_digest()} git rev {git_rev()} "
          f"dune {dune_version.stdout.strip()} nproc {os.cpu_count()}", flush=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_driver(workload, args)


def run_driver(workload, args):
    cmd = [
        os.path.join("_build", "default", "perfbench", "perfbench.exe"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--ppr", os.path.join("_build", "default", "bin", "ppr.exe"),
        "--run-dir", RUN_DIR,
    ]
    # Own process group: on a timeout the driver and the daemon it
    # started are stopped together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", 4)
    if code != 0:
        fail(f"{workload}: driver exited with {code}", 5)

if __name__ == "__main__":
    main()
