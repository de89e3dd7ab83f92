"""Record the compile workload's expected outputs.

    python3 perfbench/record_golden.py

Runs parse, check-tight, complete and to-smt on every rule order the car
generator produces, twice under different hash seeds, and writes the
SHA-256 of each output to perfbench/golden.json.  Run it only at a commit
whose compile answers are known to be right: the benchmark then compares
later commits against these digests byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import run
import workloads


def main():
    os.makedirs(run.WORK, exist_ok=True)
    variants = {}
    for v in range(gen.CAR_VARIANTS):
        text = gen.car(v, workloads.CAR_STEPS)
        path = os.path.join(run.WORK, "golden-car.fsm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        row = {"input": gen.sha256(text)}
        for label, args in workloads.COMPILE_COMMANDS:
            argv = [sys.executable, "-m", "fsmkit.cli"] + args + [path]
            outs = set()
            for hash_seed in (1, 2):
                child = run.run_child(argv, hash_seed, "golden")
                if child.rc != 0 or child.timed_out or child.stderr:
                    raise SystemExit(f"{label} on variant {v} failed: "
                                     f"rc={child.rc} {child.stderr[-500:]}")
                outs.add(gen.sha256(child.stdout))
            if len(outs) != 1:
                raise SystemExit(f"{label} on variant {v} is not "
                                 "deterministic across hash seeds")
            row[label] = outs.pop()
        variants[str(v)] = row
        print(f"variant {v}: {row['input'][:12]}", file=sys.stderr)
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"steps": workloads.CAR_STEPS, "variants": variants}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
