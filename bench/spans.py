"""Layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side: after a fresh import of grmk,
`Tracer.install` replaces module attributes (functions, and methods on the
shared classes) with wrappers that time each call.  A span's self time is
its duration minus the time covered by the spans it directly encloses, so
the self times of all spans plus the time outside any span add up to the
traced wall time exactly.

Spans are aggregated as they close (calls and self time per name) rather
than kept as a list: the gr-sweep pass alone opens several hundred thousand
of them.  The base-ring scalar ops of the oracle (`PadicBase.*`,
`GaloisBase.*`) are never wrapped; there are millions of calls per op.
`FqContext.mul`, `LaurentPoly.__mul__` and `FieldContext.mul` are only
counted, without a span.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.stack = []            # one [child_ns] cell per open span
        self.active = Counter()    # open spans per name
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()    # event counters (not spans)
        self.root_ns = 0           # summed duration of outermost spans
        self.keys = {}             # name -> list of call keys, for ratios

    # -- wrappers

    def span(self, name, fn, before=None, after=None, outermost=False):
        """Wrap fn in a span called name.

        before(args, kwargs) runs at entry, after(result, args) at exit.
        With outermost=True, calls made while a span of the same name is
        open run unwrapped, so recursion is one span.
        """
        stack, active = self.stack, self.active
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            cell = [0]
            stack.append(cell)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[name] -= 1
                stack.pop()
                self_ns[name] += dur - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.root_ns += dur
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        """Count calls of fn in counts[name] without opening a span."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def record_key(self, name, key):
        self.keys.setdefault(name, []).append(key)

    # -- installation on a freshly imported grmk

    def install(self, g):
        """Wrap the layer entry points of the grmk modules in namespace g."""
        mods = [g.ffield, g.linalg, g.forms, g.graded, g.oracle, g.reports,
                g.cli, g.grmk]

        def patch(owner, attr, make):
            original = getattr(owner, attr)
            wrapped = make(original)
            setattr(owner, attr, wrapped)
            # rebind every `from .x import name` copy of a module function
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        def span(owner, attr, name, **kw):
            patch(owner, attr, lambda fn: self.span(name, fn, **kw))

        # cli: parser construction and argument parsing
        def traced_build_parser(fn):
            def build():
                parser = fn()
                parser.parse_args = self.span("cli.parse", parser.parse_args)
                return parser
            return self.span("cli.parse", build)

        span(g.cli, "main", "cli.main")
        patch(g.cli, "build_parser", traced_build_parser)
        for attr in [a for a in vars(g.reports) if a.startswith("render_")]:
            span(g.reports, attr, "reports.render")

        # graded
        span(g.graded, "_ac_window", "graded.window",
             after=lambda res, args: self.counts.update(
                 {"graded.window.slices": len(res)}))
        span(g.graded, "_ac_relation_space", "graded.relations")
        span(g.graded, "_theta_relation_space", "graded.relations")
        span(g.graded, "graded_order", "graded.table")
        span(g.graded, "reduce", "graded.reduce")
        span(g.graded, "level_shift_consistency", "graded.shift")
        span(g.graded, "descriptor", "graded.descriptor",
             before=lambda args, kw: self.record_key(
                 "graded.descriptor", (repr(args[0]), args[1])))

        # forms
        def before_subspace_basis(args, kw):
            kctx, alpha, q, kind, s = args + tuple(
                kw[k] for k in ("kctx", "alpha", "q", "kind", "s")[len(args):])
            self.record_key("forms.subspace_basis", (kctx, tuple(alpha), q, kind, s))

        span(g.forms, "subspace_basis", "forms.subspace_basis", outermost=True,
             before=before_subspace_basis)
        for attr in ("d", "cartier", "inv_cartier", "nf_mod"):
            span(g.forms, attr, f"forms.{attr}")

        # linalg
        rowspace = g.linalg.RowSpace

        def after_add(res, args):
            if res is not None:
                self.counts["linalg.add.independent"] += 1
            if self.active["graded.relations"]:
                self.counts["graded.relations.rows"] += 1

        rowspace.add = self.span("linalg.add", rowspace.add, after=after_add)
        rowspace.reduce = self.span("linalg.reduce", rowspace.reduce)

        # ffield
        fq = g.ffield.FqContext
        fq.__init__ = self.span("ffield.fq_ctx", fq.__init__)
        fq.mul = self.counter("ffield.fq_mul", fq.mul)
        lp = g.ffield.LaurentPoly
        lp.__mul__ = self.counter("ffield.laurent_mul", lp.__mul__)

        # oracle
        def before_unit_group(args, kw):
            ctx, n = args[0], args[1]
            self.counts["oracle.units_enumerated"] += ctx.p ** (ctx.f * (ctx.N - 1))
            self.record_key("oracle.unit_group",
                            (ctx.p, ctx.f, tuple(ctx.poly.coeffs), ctx.N, n))

        span(g.oracle, "build_field", "oracle.build_field")
        span(g.oracle, "unit_group", "oracle.unit_group", before=before_unit_group)
        span(g.oracle, "compare", "oracle.compare")
        field = g.oracle.FieldContext
        field.mul = self.counter("oracle.field_mul", field.mul)

    # -- per-pass metrics

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass whose ops took wall_s."""
        s = lambda name: self.self_ns[name] / 1e9
        c = self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        sb_keys = self.keys.get("forms.subspace_basis", [])
        desc_keys = self.keys.get("graded.descriptor", [])
        ug_keys = self.keys.get("oracle.unit_group", [])
        seen, repeats = set(), 0
        for key in desc_keys:
            repeats += key in seen
            seen.add(key)
        out = {
            "linalg.add.calls": (c["linalg.add"], "count"),
            "linalg.add.self_s": (s("linalg.add"), "s"),
            "linalg.add.indep_ratio": (
                ratio(self.counts["linalg.add.independent"], c["linalg.add"]), "1"),
            "linalg.reduce.calls": (c["linalg.reduce"], "count"),
            "linalg.reduce.self_s": (s("linalg.reduce"), "s"),
            "forms.subspace_basis.calls": (c["forms.subspace_basis"], "count"),
            "forms.subspace_basis.self_s": (s("forms.subspace_basis"), "s"),
            "forms.subspace_basis.distinct_ratio": (
                ratio(len(set(sb_keys)), len(sb_keys)), "1"),
        }
        for attr in ("d", "cartier", "inv_cartier", "nf_mod"):
            out[f"forms.{attr}.calls"] = (c[f"forms.{attr}"], "count")
            out[f"forms.{attr}.self_s"] = (s(f"forms.{attr}"), "s")
        out.update({
            "graded.window.calls": (c["graded.window"], "count"),
            "graded.window.self_s": (s("graded.window"), "s"),
            "graded.window.slices": (self.counts["graded.window.slices"], "count"),
            "graded.relations.calls": (c["graded.relations"], "count"),
            "graded.relations.self_s": (s("graded.relations"), "s"),
            "graded.relations.rows": (self.counts["graded.relations.rows"], "count"),
            "graded.table.self_s": (s("graded.table"), "s"),
            "graded.reduce.self_s": (s("graded.reduce"), "s"),
            "graded.shift.self_s": (s("graded.shift"), "s"),
            "graded.descriptor_repeat_ratio": (ratio(repeats, len(desc_keys)), "1"),
            "ffield.fq_ctx.calls": (c["ffield.fq_ctx"], "count"),
            "ffield.fq_ctx.self_s": (s("ffield.fq_ctx"), "s"),
            "ffield.fq_mul.calls": (self.counts["ffield.fq_mul"], "count"),
            "ffield.laurent_mul.calls": (self.counts["ffield.laurent_mul"], "count"),
            "oracle.build_field.calls": (c["oracle.build_field"], "count"),
            "oracle.build_field.self_s": (s("oracle.build_field"), "s"),
            "oracle.unit_group.calls": (c["oracle.unit_group"], "count"),
            "oracle.unit_group.self_s": (s("oracle.unit_group"), "s"),
            "oracle.units_enumerated": (self.counts["oracle.units_enumerated"], "count"),
            "oracle.units_per_s": (ratio(self.counts["oracle.units_enumerated"],
                                         s("oracle.unit_group")), "1/s"),
            "oracle.distinct_enum_ratio": (ratio(len(set(ug_keys)), len(ug_keys)), "1"),
            "oracle.field_mul.calls": (self.counts["oracle.field_mul"], "count"),
            "oracle.compare.self_s": (s("oracle.compare"), "s"),
            "cli.parse.self_s": (s("cli.parse"), "s"),
            "reports.render.self_s": (s("reports.render"), "s"),
            "reports.bytes": (self.counts["reports.bytes"], "B"),
            "trace.wall_s": (wall_s, "s"),
            "trace.outside_s": (wall_s - self.root_ns / 1e9, "s"),
        })
        return out

    def self_times(self):
        """Self seconds of every span name, for the accounting check."""
        return {name: ns / 1e9 for name, ns in sorted(self.self_ns.items())}
