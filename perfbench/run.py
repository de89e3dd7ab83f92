"""fsmkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The CLI under test is this checkout's
`src/fsmkit`, started as `python -m fsmkit.cli` with PYTHONPATH=src, one
child at a time (a closed loop with one client).  Every answer is checked
against the workload's oracle.

--trace 0 prints the end-to-end metrics: wall_s (median wall time of the
workload's command batch), setup_s (median wall time of `--help`) and
peak_rss_mb (highest max-RSS of any child).  --trace 1 alternates untraced
batches with batches run under tracecli.py and prints the per-layer
metrics.  The last line of standard output is the JSON result; details go
to perfbench/_work/ and a summary to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
TRACECLI = os.path.join(HERE, "tracecli.py")

#: one op may not take longer than this; it then fails as a timeout
OP_TIMEOUT_S = 60
#: `--help` runs per benchmark run; setup_s is their median
SETUP_REPS = 7


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv, hash_seed, tag):
    """Run one child to completion; its rusage comes from os.wait4."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    out_path = os.path.join(WORK, tag + ".out")
    err_path = os.path.join(WORK, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 proc.returncode, stdout, stderr, killed.is_set())


def failure(child, rc, check):
    """Why an op failed, or None."""
    if child.timed_out:
        return f"timeout after {OP_TIMEOUT_S} s"
    if "Traceback (most recent call last)" in child.stderr:
        return "traceback: " + child.stderr.strip().splitlines()[-1]
    if child.rc != rc:
        return f"exit code {child.rc}, want {rc}"
    return check(child.stdout)


class Runner:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.peak_rss = 0.0

    def op(self, argv, rc, check, hash_seed, tag):
        child = run_child(argv, hash_seed, tag)
        self.attempted += 1
        self.peak_rss = max(self.peak_rss, child.rss_mb)
        why = failure(child, rc, check)
        if why is not None:
            self.failures.append(f"{tag}: {why}")
        return child

    def setup(self):
        return self.op([sys.executable, "-m", "fsmkit.cli", "--help"], 0,
                       lambda out: None if out.startswith("usage: fsmkit")
                       else "no usage text", 1, "help")

    def batch(self, workload, b, traced=False):
        """Run every op under each of the workload's hash seeds; returns
        (children, span prefixes)."""
        children, prefixes = [], []
        for h in workload.hash_seeds:
            for k, op in enumerate(workload.ops):
                tag = f"b{b}-h{h}-{k}-{op.label}" + ("-traced" if traced else "")
                if traced:
                    prefix = os.path.join(WORK, tag)
                    argv = [sys.executable, TRACECLI, prefix, "--"] + op.args
                    prefixes.append(prefix)
                else:
                    argv = [sys.executable, "-m", "fsmkit.cli"] + op.args
                children.append(self.op(argv, op.rc, op.check, h, tag))
        return children, prefixes


def calibrate():
    """Seconds for a fixed pure-Python loop: a gauge of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def trace_metrics(prefixes):
    """Per-layer metrics of one traced batch, summed over its ops, with the
    per-function span summary and where the child imported fsmkit from."""
    total, summary, where = dict.fromkeys(spans.SUMMED, 0), {}, None
    for prefix in prefixes:
        m, s, where = spans.analyse(prefix)
        for k, v in m.items():
            total[k] += v
        for fn, row in s.items():
            acc = summary.setdefault(fn, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    return spans.ratios(total), summary, where


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/fsmkit/cli.py", "demos/watertank.fsm"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} is missing; run from a checkout of "
                  "the repository", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    sys.path.insert(0, SRC)
    import fsmkit
    if os.path.dirname(os.path.dirname(fsmkit.__file__)) != SRC:
        print(f"perfbench: fsmkit imported from {fsmkit.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](
        args.seed, os.path.relpath(WORK, ROOT))

    calib = [calibrate()]
    runner = Runner()
    runner.setup()                       # warm-up: byte-compiles the package
    setup = [runner.setup().wall for _ in range(SETUP_REPS)]

    plain, traced, layer = [], [], []
    t0 = time.perf_counter()
    b = 0
    while True:
        plain.append(runner.batch(workload, b)[0])
        if args.trace:
            children, prefixes = runner.batch(workload, b, traced=True)
            traced.append(sum(c.wall for c in children))
            layer.append(trace_metrics(prefixes))
        b += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    calib.append(calibrate())

    walls = [sum(c.wall for c in batch) for batch in plain]
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "calibration_s": calib},
        "fsmkit_file": fsmkit.__file__,
        "inputs": workload.inputs, "hash_seeds": workload.hash_seeds,
        "batch_wall_s": walls,
        "op_wall_s": [[c.wall for c in batch] for batch in plain],
        "setup_s": setup, "failures": runner.failures,
    }

    if args.trace:
        rows = [row for row, _, _ in layer]
        # lower median: counts stay whole numbers, times stay samples
        per_layer = {k: statistics.median_low(r[k] for r in rows)
                     for k in rows[0]}
        per_layer["cli.cpu_s"] = statistics.median(
            sum(c.cpu for c in batch) for batch in plain)
        per_layer["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(walls))
        per_layer["fail_frac"] = len(runner.failures) / runner.attempted
        metrics = {k: {"value": v, "unit": unit(k)}
                   for k, v in sorted(per_layer.items())}
        _, summary, where = layer[0]
        counts = [{k: v for k, v in r.items() if not k.endswith("_s")}
                  for r in rows]
        shares = spans.layer_self(summary)
        details.update(traced_wall_s=traced, traced_fsmkit_file=where,
                       counts_repeat=all(c == counts[0] for c in counts),
                       functions=summary, layer_self_s=shares)
        print("perfbench: self time share of the first traced batch: "
              + ", ".join(f"{k} {v / traced[0]:.0%}" for k, v in
                          sorted(shares.items(), key=lambda kv: -kv[1])),
              file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss, "unit": "MB"},
        }

    with open(os.path.join(WORK, "details.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    for line in runner.failures[:10]:
        print("perfbench: FAILED " + line, file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} batches={len(plain)} "
          f"calibration={calib[0]:.3f}/{calib[1]:.3f}s "
          f"fsmkit={fsmkit.__file__}", file=sys.stderr)
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
