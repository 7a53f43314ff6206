#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary and the echo
sources it measures are built (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then the percentile self-test runs
and the workload runs in one process with:

  * every inherited ECHO_* variable removed, so the engine and pass
    pipeline are the defaults a user gets;
  * a fresh, empty tune-cache path and checkpoint directory, deleted
    afterwards, so no state leaks between runs.

The last line of standard output is the benchmark's JSON result; the
line before it is the run record.  The exit status is the benchmark's:
nonzero when the build, the self-test or a correctness gate failed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                    "echo_perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)
    subprocess.run([str(bdir / "perfbench_selftest")], check=True,
                   stdout=sys.stderr)


def source_id():
    """The commit when run inside git, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"echo sources not found under {ROOT}/src")
        return 2

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    workdir = bdir / "runs" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ECHO_")}
    env["ECHO_TUNE_CACHE"] = str(workdir / "tune-cache")
    cmd = [str(bdir / "echo_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(workdir), "--source-id", source_id()]
    # A terminated run.py must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
