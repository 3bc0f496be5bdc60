#!/usr/bin/env python3
"""Self-test of the host-speed benchmark.

Run from the repository root (takes a few minutes; builds first):

    python3 perfbench/tests/selftest.py [--workloads noc8_light,cmp64_apps]

Checks, for each workload, one pass per run:
  * at seed 1 the digests match perfbench/reference_digests.txt and no
    point fails, at 1 thread and at the benchmark's thread count, and
    the digest lines of the two runs are identical;
  * at seed 2 the digest lines are identical at both thread counts;
  * a reference with one wrong digest makes the run report failed > 0
    and correct = false;
  * the metric names of a plain and a traced run are exactly the
    end_to_end and per_layer names in BENCHMARK.json.
Exits non-zero on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (perfbench/run.py)


def bench(workload, seed, threads, trace=0, reference=None):
    """One single-pass run; @return (final JSON object, digest lines)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--threads", str(threads),
            "--passes", "1" if trace == 0 else "2"]
    if reference:
        args += ["--reference", str(reference)]
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run.py {' '.join(args)} exited "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    digests = [l for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), digests


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names only run.py's workloads")

    run.build()
    threads = max(run.THREADS, 2)
    run.OUT.mkdir(exist_ok=True)
    reference = run.REFERENCE.read_text().splitlines()

    for w in workloads:
        one, d1 = bench(w, 1, 1)
        many, dn = bench(w, 1, threads)
        expect(one["correct"] and one["failed"] == 0 and
               many["correct"] and many["failed"] == 0,
               f"{w}: seed 1 matches the reference at 1 and {threads} "
               f"threads")
        expect(d1 == dn and len(d1) > 0,
               f"{w}: seed 1 digests identical at 1 and {threads} threads")
        expect(set(one["metrics"]) == e2e,
               f"{w}: plain run reports the end_to_end metrics")

        _, s1 = bench(w, 2, 1)
        _, sn = bench(w, 2, threads)
        expect(s1 == sn and s1 != d1,
               f"{w}: seed 2 digests identical at 1 and {threads} threads")

        # Flip the last hex digit of this workload's first reference
        # digest.
        bad = list(reference)
        i = next(k for k, l in enumerate(bad)
                 if l.startswith(f"digest {w} 1 "))
        last = bad[i][-1]
        bad[i] = bad[i][:-1] + ("0" if last != "0" else "1")
        wrong = run.OUT / f"selftest-wrong-{w}.txt"
        wrong.write_text("\n".join(bad) + "\n")
        res, _ = bench(w, 1, threads, reference=wrong)
        wrong.unlink()
        expect(res["failed"] > 0 and not res["correct"],
               f"{w}: a wrong reference digest fails a point")

        traced, _ = bench(w, 1, threads, trace=1)
        expect(traced["correct"] and set(traced["metrics"]) == layer,
               f"{w}: traced run reports the per_layer metrics")
    print("selftest passed")


if __name__ == "__main__":
    main()
