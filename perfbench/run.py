#!/usr/bin/env python3
"""Build and run the HeteroNoC host-speed benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload noc8_sweep --seed 1 --seconds 55 --trace 0

The first run configures and builds perfbench/ (the simulator sources
from src/ plus hnoc_perfbench) into .bench_build/perfbench; later runs
only rebuild what changed. hnoc_perfbench then repeats the workload's
fixed simulated work for --seconds and prints, as its last stdout line,
one JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
The full result record, with the host fingerprint, and the spans of a
traced run are also written to .bench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference_digests.txt"
BINARY = BUILD / "hnoc_perfbench"

WORKLOADS = ("noc8_sweep", "noc8_light", "noc32_mid", "cmp64_apps")

# Fixed worker count, capped by the CPUs this process may use. Two
# leaves headroom on a shared host; it is recorded with every result.
THREADS = min(2, len(os.sched_getaffinity(0)))

# A hung benchmark program fails the run instead of blocking it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build hnoc_perfbench; raise on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def git_commit():
    """HEAD's commit when the checkout has a .git directory, else
    'unknown' (the source digest still identifies the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=THREADS,
                    help=f"worker threads (default {THREADS})")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of "
                         "filling --seconds")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="reference digest file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    OUT.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(args.threads),
           "--reference", args.reference, "--out-dir", str(OUT),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.passes > 0:
        cmd += ["--passes", str(args.passes)]
    # The simulator reads HNOC_* variables (thread count, run-length
    # scale, block size, ...); the benchmark always measures defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HNOC_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
