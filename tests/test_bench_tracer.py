"""The benchmark's layer tracer installs on the program as it is.

`bench/spans.py` wraps program functions and methods by name after a fresh
import of grmk, so deleting or renaming one of them breaks the traced
benchmark run.  This test installs the tracer in a subprocess (the fresh
import drops every loaded grmk module) and runs a few traced commands, so
such a break fails the test suite as well.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from spans import Tracer

g = workloads.fresh_grmk(sys.argv[2])
tracer = Tracer()
tracer.install(g)
codes = [
    g.cli.main(["gr", "--p", "2", "--r", "1", "--e", "2", "--n", "2", "--q", "2",
                "--a", "t1^1", "--m", "4", "--deg-window", "1"]),
    g.cli.main(["verify-q1", "--fixture", sys.argv[3], "--n", "2"]),
]
poly = g.oracle.load_fixture(sys.argv[3])
g.oracle.unit_group(g.oracle.build_field(poly, 7), 2)
print(json.dumps({"codes": codes, "calls": tracer.calls,
                  "counts": tracer.counts}))
"""


def test_tracer_installs_and_counts():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src"),
         str(ROOT / "fixtures" / "q2_gaussian.field")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    calls, counts = result["calls"], result["counts"]
    assert calls["cli.main"] == 2 and calls["reports.render"] >= 2
    # verify-q1 builds the field at N = c_n + 3 and at c_n + 1, the script once
    assert calls["oracle.build_field"] == 3
    assert calls["oracle.compare"] == 1 and calls["oracle.unit_group"] == 1
    for name in ("graded.table", "graded.descriptor", "graded.relations",
                 "linalg.add", "ffield.fq_ctx"):
        assert calls[name] > 0, name
    assert counts["oracle.field_mul"] > 0 and counts["ffield.fq_mul"] > 0
