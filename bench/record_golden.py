"""Record the golden outputs the benchmark gates compare against.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are trusted (the golden files were
recorded at the seed commit): it overwrites golden/gr-sweep.json.gz,
golden/oracle-q1.json and golden/reduce-stream.json with what the program
in src/ prints now.
"""

from __future__ import annotations

import gzip
import json

import workloads
from run import ROOT

def record_cli(wl):
    g = workloads.fresh_grmk(ROOT / "src")
    golden = {}
    for op in wl.ops:
        rc, out = workloads.run_cli(g, op.argv)
        golden[op.key] = {"argv": [a.replace(str(ROOT) + "/", "") for a in op.argv],
                          "exit": rc, "report": out}
    return golden


def main():
    gr = record_cli(workloads.make("gr-sweep", ROOT))
    with gzip.GzipFile(workloads.GOLDEN_DIR / "gr-sweep.json.gz", "wb", mtime=0) as fh:
        fh.write(json.dumps(gr, indent=1, sort_keys=True).encode())
    oracle = record_cli(workloads.make("oracle-q1", ROOT))
    (workloads.GOLDEN_DIR / "oracle-q1.json").write_text(
        json.dumps(oracle, indent=1, sort_keys=True) + "\n")

    # every stream a --seed can select, and the small stream of the self-test
    streams = [(workloads.ReduceStream(golden={}), seed)
               for seed in range(workloads.STREAM_SEEDS)]
    streams.append((workloads.ReduceStream(per_descriptor=2, golden={}), 1))
    digests = {}
    for wl, seed in streams:
        g = workloads.fresh_grmk(ROOT / "src")
        res = wl.run_pass(g, wl.setup(g, seed))
        if res.digest is None:
            raise SystemExit(f"reduce-stream seed {seed}: queries raised")
        digests[wl.golden_key(seed)] = res.digest
    (workloads.GOLDEN_DIR / "reduce-stream.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(gr)} gr-sweep ops, {len(oracle)} oracle-q1 ops, "
          f"{len(digests)} reduce-stream digests")


if __name__ == "__main__":
    main()
