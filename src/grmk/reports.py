"""Line-oriented `key: value` report rendering, shared by the CLI and the
golden-file tests.  The key set is stable and versioned by the header line;
all orderings are deterministic so equal inputs give byte-identical output.
"""

from __future__ import annotations

import functools

from .forms import format_form

HEADER = "format: grmk.v1"


def _case_lines(desc):
    lines = [f"m: {desc.m}", f"case: {desc.tag}"]
    lines += [f"{k}: {v}" for k, v in desc.index_data]
    lines += [f"c{i}: {desc.params.threshold(i)}" for i in range(1, desc.params.n + 1)]
    return lines


def _presentation(desc):
    q = desc.params.q
    if desc.branch == "zero":
        return "0"
    if desc.branch == "theta":
        s = desc.b_level
        return (f"coker(theta: O^{q - 2} -> O^{q - 1}/B_{s} (+) O^{q - 2}/B_{s}), "
                f"theta_coeff={desc.theta_coeff}")
    if desc.branch == "zmod":
        j = desc.z_level
        return f"O^{q - 1}/Z_{j} (+) O^{q - 2}/Z_{j}"
    j = desc.z_level
    return f"O^{q - 1}/(1+aC)Z_{j} (+) O^{q - 2}/(1+aC)Z_{j}"


def render_params(params):
    return [f"{key}: {getattr(params, key)}" for key in ("p", "f", "r", "e", "e0", "n", "q", "a")]


@functools.lru_cache(maxsize=4)
def _dim_rows(r, radius):
    """The `dim[...]` rows of the box |beta|_inf <= radius in r variables as
    one `%` pattern, a `%d` per entry in graded._degree_box order."""
    names = [str(x) for x in range(-radius, radius + 1)]
    heads = ["dim["]
    for _ in range(r - 1):
        heads = [head + name + "," for head in heads for name in names]
    return "\n".join([head + name + "]: %d" for head in heads for name in names])


def render_descriptor(desc, values):
    """The `gr` report from the graded.dim_values list: `order:` when r = 0,
    from its one entry, the order's exponent; else the `dim[...]` rows of
    the degree box |beta|_inf <= radius, filled from the list in one `%`
    (_dim_rows).  The radius is read off the list's length, and a list of a
    length that is no box raises."""
    lines = [HEADER, "report: gr"]
    lines += render_params(desc.params)
    lines += _case_lines(desc)
    lines.append(f"branch: {desc.branch}")
    lines.append(f"presentation: {_presentation(desc)}")
    r = desc.params.r
    radius = round(len(values) ** (1 / r)) // 2 if r else 0
    if (2 * radius + 1) ** r != len(values):
        raise ValueError(f"a list of {len(values)} entries is no degree box in {r} variables")
    if r == 0:
        lines.append(f"order: {desc.params.p ** values[0]}")
        return lines
    lines.append("dim_units: GF(p)")
    lines.append(_dim_rows(r, radius) % tuple(values))
    return lines


def render_element(el):
    """The lines of a reduced element: its forms, and `is_zero` read off them."""
    return [
        f"w1: {format_form(el.w1)}",
        f"w2: {format_form(el.w2)}",
        f"is_zero: {'yes' if el.is_zero_pair() else 'no'}",
    ]


def render_reduce(reduced):
    lines = [HEADER, "report: reduce"]
    lines += render_params(reduced.desc.params)
    lines += _case_lines(reduced.desc)
    lines += render_element(reduced)
    return lines


def render_symbol(sym_text, el, reduced):
    lines = [HEADER, "report: symbol"]
    lines += render_params(el.desc.params)
    lines.append(f"symbol: {sym_text}")
    lines.append(f"image_w1: {format_form(el.w1)}")
    lines.append(f"image_w2: {format_form(el.w2)}")
    lines += render_element(reduced)
    return lines


def render_compare(cmp_report, stabilization_ok):
    lines = [HEADER, "report: verify-q1"]
    for m, oracle_order, engine_order, match in cmp_report.rows:
        flag = "yes" if match else "no"
        lines.append(f"m={m}: oracle={oracle_order} engine={engine_order} match={flag}")
    lines.append(f"gr0_pi: {cmp_report.gr0_pi}")
    lines.append(f"all_match: {'yes' if cmp_report.all_match else 'no'}")
    lines.append(f"stabilization: {'yes' if stabilization_ok else 'no'}")
    return lines


def render_consistency(rep):
    lines = [HEADER, "report: shift-check",
             f"m: {rep.m}", f"n: {rep.params.n}",
             f"case_high: {rep.case_high.case_text}", f"case_low: {rep.case_low.case_text}",
             f"structure: {'ok' if rep.structure_ok else 'MISMATCH'}",
             f"structure_note: {rep.structure_note}"]
    if rep.order_high is not None:
        lines.append(f"order_high: {rep.order_high}")
        lines.append(f"order_low: {rep.order_low}")
        lines.append(f"orders: {'ok' if rep.orders_ok else 'MISMATCH'}")
    for beta, hi, lo in rep.dim_mismatches:
        key = ",".join(str(x) for x in beta)
        lines.append(f"dim_mismatch[{key}]: high={hi} low={lo}")
    for w1_text, w2_text, z_high, z_low in rep.probe_flags:
        lines.append(f"probe_flag: ({w1_text}; {w2_text}) "
                     f"zero_high={z_high} zero_low={z_low}")
    lines.append(f"consistent: {'yes' if rep.consistent else 'no'}")
    return lines


def render_selftest(results, seed, cases):
    lines = [HEADER, "report: selftest", f"seed: {seed}", f"cases: {cases}"]
    ok = True
    for name, passed, detail in results:
        lines.append(f"property: {name}")
        lines.append(f"status: {'ok' if passed else 'FAIL'}")
        if not passed:
            lines.append(f"detail: {detail}")
            ok = False
    lines.append(f"all_ok: {'yes' if ok else 'no'}")
    return lines
