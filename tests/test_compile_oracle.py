"""The benchmark's compile oracle, run in-process.

perfbench/golden.json holds the SHA-256 of the output of parse,
check-tight, complete and to-smt on the car unrolling that
perfbench/gen.py writes.  This test runs the same four commands through
fsmkit.cli.main on each recorded rule order and compares the digests, so
that a byte change in the compile path fails here and not first in the
benchmark.  It only reads the two files.
"""

import contextlib
import hashlib
import io
import json

import pytest

from fsmkit.cli import main
from conftest import BENCH, load_perfbench_gen

# the argument lists of perfbench/workloads.py's COMPILE_COMMANDS
COMMANDS = {
    "parse": ["parse"],
    "check-tight": ["check-tight"],
    "complete": ["complete"],
    "to-smt": ["to-smt", "--background", "reals"],
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", sorted(GOLDEN["variants"], key=int))
def test_compile_outputs_match_the_benchmark_digests(tmp_path, variant):
    text = load_perfbench_gen().car(int(variant), GOLDEN["steps"])
    row = GOLDEN["variants"][variant]
    assert _sha256(text) == row["input"]
    path = tmp_path / "car.fsm"
    path.write_text(text, encoding="utf-8")
    for label, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + [str(path)])
        assert code == 0, label
        assert _sha256(out.getvalue()) == row[label], label
