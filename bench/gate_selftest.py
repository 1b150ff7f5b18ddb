"""Self-test of the benchmark's correctness gates: each one must be able to fail.

    python3 bench/gate_selftest.py
    python3 -m pytest -q bench/gate_selftest.py

Every gate check runs one pass of a small slice of a workload through
`run.measure`, once as recorded (it must report no failure) and once with
one expectation or the program broken on purpose (it must report a
failure, so fail_ratio > 0).  One more check shows that a traced pass's
span self times add up to the time inside spans, never more than its wall
time.
"""

from __future__ import annotations

import copy
import sys

import pytest

import run
import workloads

SEED = 1


def failures(wl, after_import=None):
    meas = run.measure(wl, SEED, 0, after_import=after_import)
    return meas.failed, meas.attempted


def gr_slice(golden=None):
    keys = ("p3r3q2 gr m=9", "p3r3q2 shift-check m=12")
    ops = [op for op in workloads.gr_sweep_ops() if op.key in keys]
    if golden is None:
        golden = workloads.load_golden("gr-sweep.json.gz")
    return workloads.CliList(ops, {k: golden[k] for k in keys})


def oracle_slice():
    keys = ("q2_gaussian n=1", "q2_sqrt2 n=2")
    ops = [op for op in workloads.oracle_ops(run.ROOT) if op.key in keys]
    return workloads.CliList(ops, workloads.load_golden("oracle-q1.json"))


def test_gr_sweep_golden_report():
    assert failures(gr_slice()) == (0, 2)
    golden = copy.deepcopy(workloads.load_golden("gr-sweep.json.gz"))
    entry = golden["p3r3q2 gr m=9"]
    entry["report"] = entry["report"].replace("dim[0,0,0]: ", "dim[0,0,0]: 1")
    assert failures(gr_slice(golden))[0] == 1


def test_gr_sweep_golden_exit_code():
    golden = copy.deepcopy(workloads.load_golden("gr-sweep.json.gz"))
    golden["p3r3q2 shift-check m=12"]["exit"] = 1
    assert failures(gr_slice(golden))[0] == 1


def test_oracle_expected_exit_code():
    assert failures(oracle_slice()) == (0, 2)
    for key in ("q2_gaussian n=1", "q2_sqrt2 n=2"):
        wl = oracle_slice()
        op = next(op for op in wl.ops if op.key == key)
        op.expect_exit = 1 - op.expect_exit
        assert failures(wl)[0] == 1, key


def test_oracle_identity_product():
    wl = oracle_slice()
    for op in wl.ops:
        target, must_hold = op.identity
        # gaussian: a wrong target breaks an identity that must hold;
        # sqrt2 n=2: the true product 32 makes the identity hold where it must fail
        op.identity = (target * 2 if must_hold else 32, must_hold)
    assert failures(wl)[0] == 2


def small_stream(golden=None):
    """reduce-stream with 2 queries per descriptor (its digest is recorded)."""
    return workloads.ReduceStream(per_descriptor=2, golden=golden, sample=20)


def test_reduce_stream_digest():
    assert failures(small_stream()) == (0, 98)
    assert failures(small_stream({"2/1": "0" * 64})) == (98, 98)
    # a stream without a recorded digest is refused, not let through
    assert failures(small_stream({})) == (98, 98)


def final_check_failures(after_import):
    return run.measure(small_stream(), SEED, 0, after_import=after_import).final_failed


def test_reduce_stream_coset_constancy():
    def no_reduction(g):
        g.graded.reduce = lambda el: el

    assert final_check_failures(no_reduction) > 0


def test_reduce_stream_idempotence():
    def doubling(g):
        original = g.graded.reduce
        g.graded.reduce = lambda el: original(el) + original(el)

    assert final_check_failures(doubling) > 0


def test_trace_accounts_for_wall_time():
    wl = small_stream()
    meas = run.measure(wl, SEED, 0, trace=True)
    traced = [p for p in meas.passes if p.traced]
    assert traced and meas.failed == 0
    for p in traced:
        assert 0 <= p.root_s <= p.wall
        assert abs(sum(p.self_times.values()) - p.root_s) < 1e-6
        assert p.layer["linalg.add.calls"][0] > 0


def test_missing_program_is_refused():
    with pytest.raises(workloads.SetupError):
        run.measure(gr_slice(), SEED, 0, src=run.ROOT / "bench")


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
