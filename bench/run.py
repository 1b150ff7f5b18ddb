"""grmk benchmark: one workload, one process, one op at a time.

    python3 bench/run.py --workload gr-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to this one.  The run repeats passes of the workload for about --seconds
(at least one pass), each pass after a fresh import of grmk and a fresh
set-up of its inputs, and checks every output it times.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced passes with --trace 1 (that run alternates untraced and traced
passes, to report the tracing overhead).  The lines before it print the
same metrics with their units, and how each was taken.

Exit codes: 0 when a result was printed, 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Before each pass, set-up is repeated until SETUP_BLOCK_S of set-up time
# has accrued, and a run times at least MIN_SETUPS set-ups.  A fresh import
# takes ~15 ms, and this machine has slow spells lasting up to a second, so
# the samples are spread over the whole run rather than taken in one burst.
SETUP_BLOCK_S = 0.25
MIN_SETUPS = 5
# tail percentiles, in per mille (p99.9, then every whole percentile down to
# p50); the reported tail is the highest one with at least TAIL_BEYOND
# samples above it.  Whole percentiles rather than the exact (n-10)-th value
# keep the stream's tail off its few extreme, seed-dependent queries.
TAIL_LADDER = (999, *range(990, 499, -10))
TAIL_BEYOND = 10


class Pass:
    def __init__(self, result, elapsed, tracer=None):
        self.traced = tracer is not None
        self.result = result
        self.wall = sum(result.latencies.values())
        self.elapsed = elapsed     # set-up, ops and checks of this pass
        if tracer is not None:
            # taken now: the checks after the last pass run on traced modules
            self.layer = tracer.metrics(self.wall)
            self.self_times = tracer.self_times()
            self.calls = dict(tracer.calls)
            self.root_s = tracer.root_ns / 1e9


class Measurement:
    def __init__(self):
        self.setups = []
        self.passes = []
        self.final_failed = 0

    @property
    def attempted(self):
        return sum(len(p.result.latencies) + sum(map(len, p.result.repeats.values()))
                   for p in self.passes)

    @property
    def failed(self):
        return sum(p.result.failed for p in self.passes) + self.final_failed


def measure(wl, seed, seconds, trace=False, src=ROOT / "src", after_import=None):
    """Run passes of workload wl for about `seconds`; see the module doc.

    after_import(g) runs on every fresh import before set-up; the gate
    self-test uses it to break the program on purpose.
    """
    clock = time.perf_counter
    meas = Measurement()

    def load():
        g = workloads.fresh_grmk(src)
        if after_import is not None:
            after_import(g)
        return g

    def set_up():
        block = 0.0
        while block < SETUP_BLOCK_S:
            g = state = None  # so that no two set-ups are alive at once
            gc.collect()
            t0 = clock()
            g = load()
            state = wl.setup(g, seed)
            meas.setups.append(clock() - t0)
            block += meas.setups[-1]
        return g, state

    start = clock()
    while True:
        traced = trace and len(meas.passes) % 2 == 1
        if meas.passes:  # only the last pass's results are checked afterwards
            meas.passes[-1].result.results = None
        g = state = None  # free the last pass's program and inputs first
        t0 = clock()
        g, state = set_up()
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(g)
        result = wl.run_pass(g, state, tracer, load)
        meas.passes.append(Pass(result, clock() - t0, tracer))
        next_traced = trace and len(meas.passes) % 2 == 1
        same_kind = [p.elapsed for p in meas.passes if p.traced == next_traced]
        estimate = statistics.median(same_kind) if same_kind else meas.passes[-1].elapsed
        untried = trace and not any(p.traced for p in meas.passes)
        if not untried and clock() - start + estimate > seconds:
            break
    meas.final_failed = wl.final_check(g, state, meas.passes[-1].result)
    del g, state
    while len(meas.setups) < MIN_SETUPS:
        set_up()
    return meas


def tail_percentile(values):
    """(per mille, value) of the highest ladder percentile with at least
    TAIL_BEYOND samples above it; (1000, max) when even p50 has fewer."""
    vals = sorted(values)
    n = len(vals)
    for pm in TAIL_LADDER:
        rank = -(-pm * n // 1000)          # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return pm, vals[rank - 1]
    return 1000, vals[-1]


def per_op_medians(passes):
    """Median latency of each op over all its samples in the given passes."""
    samples = {}
    for p in passes:
        for key, dt in p.result.latencies.items():
            samples.setdefault(key, []).append(dt)
            samples[key] += p.result.repeats.get(key, [])
    return [statistics.median(v) for v in samples.values()]


def end_to_end(meas):
    untraced = [p for p in meas.passes if not p.traced]
    ops = per_op_medians(untraced)
    pm, tail = tail_percentile(ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(meas.setups), "s"),
        "wall_s": (statistics.median(p.wall for p in untraced), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(meas.setups)} set-ups (fresh import + inputs)",
        "wall_s": f"median over {len(untraced)} passes of the summed op times",
        "op_p50_ms": f"median of {len(ops)} per-op medians",
        "op_tail_ms": (f"p{pm / 10:g} of {len(ops)} per-op medians "
                       f"(highest percentile with >= {TAIL_BEYOND} beyond it)"
                       if pm < 1000 else
                       f"the largest of {len(ops)} per-op medians (too few ops "
                       f"for a percentile with {TAIL_BEYOND} beyond it)"),
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def per_layer(meas):
    traced = [p for p in meas.passes if p.traced]
    untraced = [p for p in meas.passes if not p.traced]
    per_pass = [p.layer for p in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced), "1")
    return metrics


def report_accounting(meas, out):
    """Show that span self times plus time outside spans equal the wall time."""
    for i, p in enumerate(q for q in meas.passes if q.traced):
        selfs = p.self_times
        outside = p.wall - p.root_s
        total = sum(selfs.values()) + outside
        out.write(f"traced pass {i + 1}: sum of span self times {sum(selfs.values()):.6f} s "
                  f"+ outside spans {outside:.6f} s = {total:.6f} s; "
                  f"traced wall_s {p.wall:.6f} s\n")
        for name, sec in selfs.items():
            out.write(f"    {name:28s} {sec:12.6f} s  {p.calls[name]:>10d} calls\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wl = workloads.make(args.workload, ROOT)
        meas = measure(wl, args.seed, args.seconds, trace=bool(args.trace))
    except workloads.SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    out = sys.stdout
    attempted, failed = meas.attempted, meas.failed
    out.write(f"workload {args.workload}, seed {args.seed}: {len(meas.passes)} passes, "
              f"{attempted} ops attempted, {failed} failed\n")
    out.write(f"  {'fail_ratio':32s} {failed / attempted:14.6g} 1\n")
    if args.trace:
        metrics = per_layer(meas)
        report_accounting(meas, out)
        notes = {}
    else:
        metrics, notes = end_to_end(meas)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        out.write(f"  {name:32s} {value:14.6g} {unit}{note}\n")
    out.write(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
