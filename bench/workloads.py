"""The three benchmark workloads and their correctness gates.

gr-sweep and oracle-q1 are fixed lists of CLI commands run in-process
through `grmk.cli.main(argv)`; reduce-stream is a seeded stream of library
calls.  Every pass starts from a fresh import of grmk (see `fresh_grmk`),
so nothing one pass computes can be reused by the next; repetition inside
a pass is a property of the workload itself.  oracle-q1 adds, after the
list, QUICK_ROUNDS rounds of its few-millisecond ops, each round on a fresh
import too; they only add latency samples of those ops.

A pass returns the per-op latencies and the number of ops that failed.
An op fails when it raises, or when its output does not pass the gate of
its workload:

- gr-sweep: exit code and machine report byte-identical to the recorded
  golden output of the seed commit (golden/gr-sweep.json.gz).
- oracle-q1: the same golden comparison, the expected exit code, the
  `all_match`/`stabilization` summary lines, and the closed-form identity
  prod_m |gr^m| = p^(n e f) * p^n on the oracle's own orders, which holds
  exactly when mu_{p^n} lies in K and must fail for Q_2(sqrt 2) at n = 2.
- reduce-stream: the digest of all formatted results equals the recorded
  digest of the seed commit (golden/reduce-stream.json holds one for every
  stream a seed can select); a seeded sample is checked for idempotence and
  coset constancy after the timed passes (`final_check`).
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
GRMK_MODULES = ("ffield", "linalg", "forms", "graded", "oracle", "reports", "cli")


class SetupError(Exception):
    """The checkout does not hold the program the benchmark runs."""


def fresh_grmk(src):
    """Import grmk from src anew, dropping any earlier import."""
    src = Path(src).resolve()
    if not (src / "grmk" / "__init__.py").is_file():
        raise SetupError(f"no grmk package under {src}")
    for name in [n for n in sys.modules if n == "grmk" or n.startswith("grmk.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    g = SimpleNamespace(grmk=importlib.import_module("grmk"))
    if Path(g.grmk.__file__).resolve().parent != src / "grmk":
        raise SetupError(f"grmk was imported from {g.grmk.__file__}, not {src}")
    for name in GRMK_MODULES:
        setattr(g, name, importlib.import_module(f"grmk.{name}"))
    return g


def run_cli(g, argv):
    """One CLI command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = g.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _op_error(key):
    sys.stderr.write(f"op {key} raised:\n{traceback.format_exc()}")


class PassResult:
    def __init__(self):
        self.latencies = {}   # op key -> seconds
        self.repeats = {}     # op key -> further samples (oracle-q1 quick rounds)
        self.failed = 0
        self.results = None   # reduce-stream: result objects of the pass
        self.digest = None    # reduce-stream: digest of the formatted results


# ---------------------------------------------------------------------------
# fixed CLI op lists: gr-sweep and oracle-q1

class CliOp:
    """One CLI command with the expectations its gate checks."""

    def __init__(self, key, argv, expect_exit=None, identity=None, quick=False):
        self.key = key
        self.argv = tuple(argv)
        self.quick = quick               # repeated in the quick rounds
        self.expect_exit = expect_exit   # oracle-q1 only
        self.identity = identity         # oracle-q1 only: (product target, must hold)


class CliList:
    """A fixed list of CLI ops, run once per pass in a seeded order, then
    quick_rounds more times for its quick ops."""

    def __init__(self, ops, golden, quick_rounds=0):
        self.ops = ops
        self.golden = golden  # op key -> {"exit": int, "report": str}
        self.quick_rounds = quick_rounds

    def setup(self, g, seed):
        order = list(self.ops)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, g, order, tracer=None, reimport=None):
        """Run the list once; untraced, then the quick rounds, each on reimport()."""
        res = PassResult()
        for op in order:
            res.latencies[op.key] = self._run_op(g, op, res, tracer)
        quick = [op for op in order if op.quick]
        if tracer is None and quick:
            for _ in range(self.quick_rounds):
                g = reimport()
                for op in quick:
                    res.repeats.setdefault(op.key, []).append(self._run_op(g, op, res))
        return res

    def _run_op(self, g, op, res, tracer=None):
        """Time one op and check its output; returns its latency."""
        gc.collect()  # so no op pays for the garbage of the one before
        clock = time.perf_counter
        t0 = clock()
        try:
            rc, out = run_cli(g, op.argv)
        except Exception:
            dt = clock() - t0
            _op_error(op.key)
            res.failed += 1
            return dt
        dt = clock() - t0
        if tracer is not None:
            tracer.counts["reports.bytes"] += len(out.encode())
        problems = self.check(op, rc, out)
        if problems:
            sys.stderr.write(f"op {op.key} failed: {'; '.join(problems)}\n")
            res.failed += 1
        return dt

    def check(self, op, rc, out):
        """List of the gate failures of one op's output (empty when correct)."""
        problems = []
        want = self.golden.get(op.key)
        if want is None:
            problems.append("no golden output recorded")
        else:
            if rc != want["exit"]:
                problems.append(f"exit {rc}, golden {want['exit']}")
            if out != want["report"]:
                problems.append(f"report differs from golden: {_first_diff(out, want['report'])}")
        if op.expect_exit is not None:
            problems += _oracle_problems(op, rc, out)
        return problems

    def final_check(self, g, state, last):
        return 0


def _first_diff(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {i}: {a!r} vs {b!r}"
    return f"{len(got_lines)} lines vs {len(want_lines)}"


def _oracle_problems(op, rc, out):
    problems = []
    if rc != op.expect_exit:
        problems.append(f"exit {rc}, expected {op.expect_exit}")
    lines = out.splitlines()
    if op.expect_exit == 0:
        for summary in ("all_match: yes", "stabilization: yes"):
            if summary not in lines:
                problems.append(f"missing '{summary}'")
    product = 1
    rows = 0
    for line in lines:
        if line.startswith("m=") and " oracle=" in line:
            product *= int(line.split(" oracle=")[1].split()[0])
            rows += 1
    target, must_hold = op.identity
    if not rows:
        problems.append("no oracle rows")
    elif (product == target) != must_hold:
        problems.append(f"identity prod |gr^m| = {product} vs p^(nef)*p^n = {target} "
                        f"should {'hold' if must_hold else 'fail'}")
    return problems


def load_golden(name):
    path = GOLDEN_DIR / name
    if not path.is_file():
        return {}
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(path.read_text(encoding="utf-8"))


# gr-sweep contexts: (name, CLI flags); the first hits every branch alone
GR_CONTEXTS = [
    ("p2r4q3", ["--p", "2", "--r", "4", "--e", "4", "--n", "2", "--q", "3",
                "--a", "t1^1", "--deg-window", "3"]),
    ("p3r3q2", ["--p", "3", "--r", "3", "--e", "6", "--n", "2", "--q", "2",
                "--a", "t1^1", "--deg-window", "3"]),
    ("p2f2r3q3", ["--p", "2", "--f", "2", "--r", "3", "--e", "4", "--n", "2",
                  "--q", "3", "--a", "g^1*t1^1", "--deg-window", "3"]),
]


def _flag(flags, name):
    return int(flags[flags.index(name) + 1])


def gr_sweep_ops():
    """`gr` at every level 1..c_n+1, `shift-check` at every level above e+e_0."""
    ops = []
    for name, flags in GR_CONTEXTS:
        p, e, n = _flag(flags, "--p"), _flag(flags, "--e"), _flag(flags, "--n")
        e0 = e // (p - 1)
        c_n = n * e + e0
        for m in range(1, c_n + 2):
            ops.append(CliOp(f"{name} gr m={m}",
                             ["gr", *flags, "--m", str(m), "--format", "machine"]))
        for m in range(e + e0 + 1, c_n + 2):
            ops.append(CliOp(f"{name} shift-check m={m}",
                             ["shift-check", *flags, "--m", str(m), "--format", "machine"]))
    return ops


# oracle-q1 fields: (fixture path relative to the checkout, p, f, e, levels n,
# whether mu_{p^n} lies in K at each n)
ORACLE_FIELDS = [
    ("fixtures/q2_gaussian.field", 2, 1, 2, {1: True, 2: True}),
    ("fixtures/q3_zeta3.field", 3, 1, 2, {1: True}),
    ("fixtures/q2_sqrt2.field", 2, 1, 2, {1: True, 2: False}),
    ("bench/fields/q2_zeta8.field", 2, 1, 4, {1: True, 2: True}),
    ("bench/fields/q4_i.field", 2, 2, 2, {1: True}),
    ("bench/fields/q9_zeta3.field", 3, 2, 2, {1: True}),
]


# The oracle ops that take a few milliseconds (at most 256 units enumerated).
# The median op is one of them, so each pass runs them QUICK_ROUNDS more times.
QUICK_ORACLE_OPS = {"q2_gaussian n=1", "q2_gaussian n=2", "q3_zeta3 n=1",
                    "q2_sqrt2 n=1", "q2_sqrt2 n=2"}
QUICK_ROUNDS = 8


def oracle_ops(root):
    ops = []
    for rel, p, f, e, levels in ORACLE_FIELDS:
        for n, has_mu in levels.items():
            key = f"{Path(rel).stem} n={n}"
            target = p ** (n * e * f) * p ** n
            ops.append(CliOp(key,
                             ["verify-q1", "--fixture", str(Path(root) / rel),
                              "--n", str(n), "--format", "machine"],
                             expect_exit=0 if has_mu else 1,
                             identity=(target, has_mu),
                             quick=key in QUICK_ORACLE_OPS))
    return ops


# ---------------------------------------------------------------------------
# reduce-stream

# small contexts; every level 1..c_n+1 of each is a descriptor of the stream
STREAM_CONTEXTS = [
    dict(p=2, f=1, r=2, e=2, n=2, q=2, a="t1^1"),
    dict(p=3, f=1, r=2, e=6, n=2, q=2, a="t1^1"),
    dict(p=2, f=2, r=2, e=4, n=2, q=2, a="g^1*t1^1"),
    dict(p=2, f=1, r=3, e=4, n=2, q=3, a="t1^1"),
]
EXP = 3                  # exponents are drawn from [-EXP, EXP]
SYMBOL_SHARE = 0.25      # share of queries that evaluate a symbol first
SAMPLE = 150             # queries checked for idempotence and coset constancy
# Streams with a recorded golden digest; --seed s runs stream s mod STREAM_SEEDS,
# so the results of every seed are checked against the seed commit.
STREAM_SEEDS = 64


def _top_level(ctx):
    e0 = ctx["e"] // (ctx["p"] - 1)
    return ctx["n"] * ctx["e"] + e0 + 1


def _rand_coeff(rng, ctx):
    if ctx["f"] == 1:
        return str(rng.randint(1, ctx["p"] - 1))
    return f"g^{rng.randint(0, ctx['p'] ** ctx['f'] - 2)}"


def _rand_alpha(rng, ctx, nonzero=False):
    while True:
        alpha = tuple(rng.randint(-EXP, EXP) for _ in range(ctx["r"]))
        if any(alpha) or not nonzero:
            return alpha


def _elem_text(coeff, alpha):
    pieces = [] if coeff == "1" else [coeff]
    pieces += [f"t{i + 1}^{a}" for i, a in enumerate(alpha) if a]
    return "*".join(pieces) or "1"


def _rand_element(rng, ctx, max_terms=2):
    alphas = {_rand_alpha(rng, ctx) for _ in range(rng.randint(1, max_terms))}
    return "+".join(_elem_text(_rand_coeff(rng, ctx), a) for a in sorted(alphas))


def _rand_form(rng, ctx, deg, max_terms):
    """Form text of degree deg with up to max_terms dlog terms ('0' if none)."""
    if deg < 0 or deg > ctx["r"]:
        return None
    subsets = list(itertools.combinations(range(1, ctx["r"] + 1), deg))
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        # the form grammar splits on '+', so each term is one monomial
        elem = _elem_text(_rand_coeff(rng, ctx), _rand_alpha(rng, ctx))
        sub = rng.choice(subsets)
        terms.append(f"{elem}*dlog[{','.join(map(str, sub))}]" if sub else elem)
    return "+".join(terms) or "0"


def _rand_symbol(rng, ctx, m):
    tail = [_elem_text("1", _rand_alpha(rng, ctx, nonzero=True))
            for _ in range(ctx["q"] - 1)]
    if tail and rng.random() < 0.3:
        tail[rng.randrange(len(tail))] = "pi"
    u = _rand_element(rng, ctx)
    return "{" + ";".join([f"1+pi^{m}*({u})"] + tail) + "}"


def stream_queries(seed, per_descriptor):
    """The query texts of a stream: per_descriptor queries at every level
    of every context, in a seeded order."""
    rng = random.Random(seed)
    queries = []
    for ci, ctx in enumerate(STREAM_CONTEXTS):
        for m in range(1, _top_level(ctx) + 1):
            for _ in range(per_descriptor):
                if rng.random() < SYMBOL_SHARE:
                    queries.append((ci, m, "symbol", _rand_symbol(rng, ctx, m), None))
                else:
                    queries.append((ci, m, "reduce",
                                    _rand_form(rng, ctx, ctx["q"] - 1, 3),
                                    _rand_form(rng, ctx, ctx["q"] - 2, 2)))
    rng.shuffle(queries)
    return queries


def stream_digest(g, results):
    h = hashlib.sha256()
    fmt = g.forms.format_form
    for red in results:
        h.update(f"{fmt(red.w1)};{fmt(red.w2)}\n".encode())
    return h.hexdigest()


class ReduceStream:
    """A seeded stream of `reduce` and `symbol_to_forms` + `reduce` calls."""

    def __init__(self, per_descriptor=200, golden=None, sample=SAMPLE):
        self.per_descriptor = per_descriptor
        self.golden = load_golden("reduce-stream.json") if golden is None else golden
        self.sample = sample

    def golden_key(self, stream):
        return f"{self.per_descriptor}/{stream}"

    def setup(self, g, seed):
        seed %= STREAM_SEEDS
        params = [g.graded.CDVFParams(c["p"], c["f"], c["r"], c["e"], c["n"], c["q"], c["a"])
                  for c in STREAM_CONTEXTS]
        inputs = []
        for ci, m, kind, t1, t2 in stream_queries(seed, self.per_descriptor):
            prm = params[ci]
            if kind == "symbol":
                inputs.append((prm, m, g.graded.parse_symbol(prm.kctx, t1), None))
            else:
                w1 = g.forms.parse_form(prm.kctx, prm.q - 1, t1)
                w2 = g.forms.parse_form(prm.kctx, prm.q - 2, t2) if t2 else None
                inputs.append((prm, m, w1, w2))
        return SimpleNamespace(seed=seed, params=params, inputs=inputs)

    def _query(self, g, prm, m, x, w2):
        if isinstance(x, g.graded.SymbolExpr):
            return g.graded.symbol_to_forms(prm, x)
        return g.graded.descriptor(prm, m).element(x, w2)

    def run_pass(self, g, state, tracer=None, reimport=None):
        res = PassResult()
        clock = time.perf_counter
        results = []
        for i, (prm, m, x, w2) in enumerate(state.inputs):
            t0 = clock()
            try:
                red = g.graded.reduce(self._query(g, prm, m, x, w2))
            except Exception:
                res.latencies[i] = clock() - t0
                _op_error(f"query {i}")
                res.failed += 1
                results.append(None)
                continue
            res.latencies[i] = clock() - t0
            results.append(red)
        res.results = results
        if res.failed:
            return res
        res.digest = stream_digest(g, results)
        want = self.golden.get(self.golden_key(state.seed))
        if res.digest != want:
            sys.stderr.write(f"reduce-stream digest {res.digest} differs from golden {want}\n")
            res.failed = len(results)
        return res

    def final_check(self, g, state, last):
        """Idempotence and coset constancy on a seeded sample of the last pass."""
        rng = random.Random(f"check-{state.seed}")
        picks = rng.sample(range(len(state.inputs)), min(self.sample, len(state.inputs)))
        failed = 0
        for i in picks:
            prm, m, x, w2 = state.inputs[i]
            red = last.results[i]
            if red is None:
                continue
            try:
                el = self._query(g, prm, m, x, w2)
                rel = _relation(g, rng, el.desc)
                ok = g.graded.reduce(red) == red and g.graded.reduce(el + rel) == red
            except Exception:
                _op_error(f"check of query {i}")
                ok = False
            if not ok:
                sys.stderr.write(f"query {i} failed idempotence or coset constancy\n")
                failed += 1
        return failed


def _relation(g, rng, desc):
    """A random element of the relation subgroup of desc's presentation."""
    prm = desc.params
    k = prm.kctx
    ctx = dict(p=prm.p, f=prm.f, r=prm.r, q=prm.q)
    forms = g.forms

    def rand(deg):
        text = _rand_form(rng, ctx, deg, 2)
        if text is None:
            return forms.DiffForm.zero(k, deg)
        return forms.parse_form(k, deg, text)

    def b_member(deg, s):
        w = forms.DiffForm.zero(k, deg)
        for j in range(s):
            w = w + forms.inv_cartier_iter(forms.d(rand(deg - 1)), j)
        return w

    q = prm.q
    if desc.branch == "theta":
        t1, t2 = g.graded.theta(prm, desc.m, rand(q - 2))
        return desc.element(t1 + b_member(q - 1, desc.b_level),
                            t2 + b_member(q - 2, desc.b_level))
    if desc.branch == "zmod":
        return desc.element(forms.inv_cartier_iter(rand(q - 1), desc.z_level),
                            forms.inv_cartier_iter(rand(q - 2), desc.z_level))
    if desc.branch == "ac":
        z = lambda deg: g.graded.make_z_tower_element(k, rand(deg), desc.z_level)
        return desc.element(g.graded.one_plus_ac(prm, z(q - 1)),
                            g.graded.one_plus_ac(prm, z(q - 2)))
    return desc.element(rand(q - 1), rand(q - 2))


# ---------------------------------------------------------------------------

WORKLOADS = ("gr-sweep", "reduce-stream", "oracle-q1")


def make(name, root):
    if name == "gr-sweep":
        return CliList(gr_sweep_ops(), load_golden("gr-sweep.json.gz"))
    if name == "oracle-q1":
        return CliList(oracle_ops(root), load_golden("oracle-q1.json"), QUICK_ROUNDS)
    if name == "reduce-stream":
        return ReduceStream()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
