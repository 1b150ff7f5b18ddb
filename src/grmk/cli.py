"""Command-line front end.

Subcommands: gr (classify a level and print its presentation and order),
reduce (canonical representative of an element), symbol (evaluate a
restricted symbol), verify-q1 (comparison with the filtered p-adic oracle on
a fixture field), shift-check (consistency of the (n, m) -> (n-1, m-e)
shift), selftest.

Exit codes: 0 success, 1 mismatch or property failure, 2 usage/validation.
"""

from __future__ import annotations

import argparse
import sys

from . import graded, oracle, reports
from .ffield import ExponentOverflow, ParseError
from .forms import DiffForm, parse_form
from .graded import (CDVFParams, MalformedSymbol, OutOfRangeLevel,
                     PreconditionViolated, WindowOverflow, descriptor,
                     dim_values, level_shift_consistency,
                     parse_symbol, reduce, symbol_to_forms)


def _params_from(args):
    return CDVFParams(args.p, args.f, args.r, args.e, args.n, args.q, args.a)


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_gr(args):
    params = _params_from(args)
    desc = descriptor(params, args.m, window_cap=args.window_cap)
    _emit(reports.render_descriptor(desc, dim_values(desc, args.deg_window)))
    return 0


def cmd_reduce(args):
    params = _params_from(args)
    desc = descriptor(params, args.m, window_cap=args.window_cap)
    w1 = parse_form(params.kctx, params.q - 1, args.w1)
    w2 = parse_form(params.kctx, params.q - 2, args.w2) if args.w2 else None
    _emit(reports.render_reduce(reduce(desc.element(w1, w2))))
    return 0


def cmd_symbol(args):
    params = _params_from(args)
    sym = parse_symbol(params.kctx, args.symbol)
    el = symbol_to_forms(params, sym)
    _emit(reports.render_symbol(args.symbol, el, reduce(el)))
    return 0


def cmd_verify_q1(args):
    poly = oracle.load_fixture(args.fixture)
    # CDVFParams rejects a non-integral e_0, and filtered_unit_group a cutoff
    # N <= c_n, so the floor here only picks the default cutoff
    c_n = args.n * poly.e + poly.e // (poly.p - 1)
    N = args.N if args.N is not None else c_n + 3
    ctx = oracle.build_field(poly, N)
    params = CDVFParams(poly.p, poly.f, 0, poly.e, args.n, 1, str(ctx.a_residue()))
    orders = oracle.filtered_unit_group(ctx, args.n)
    cmp_report = oracle.compare(ctx, params, orders)
    # stabilization: the orders at N against those at c_n + 1, or at c_n + 3
    # when N = c_n + 1
    other = c_n + 3 if N == c_n + 1 else c_n + 1
    stable = oracle.same_orders(
        orders, oracle.filtered_unit_group(oracle.build_field(poly, other), args.n))
    _emit(reports.render_compare(cmp_report, stable))
    return 0 if (cmp_report.all_match and stable) else 1


def _parse_probe(params, text):
    """The pair (w1, w2) of a probe 'W1;W2'; an empty side is 0."""
    w1_text, sep, w2_text = text.partition(";")
    if not sep:
        raise ParseError("a probe is 'W1;W2', with forms of degrees q-1 and q-2", text)
    return tuple(parse_form(params.kctx, deg, side) if side.strip()
                 else DiffForm.zero(params.kctx, deg)
                 for deg, side in ((params.q - 1, w1_text), (params.q - 2, w2_text)))


def cmd_shift_check(args):
    params = _params_from(args)
    probes = [_parse_probe(params, text) for text in args.probe]
    rep = level_shift_consistency(params, args.m, probes=probes, radius=args.deg_window,
                                  window_cap=args.window_cap)
    _emit(reports.render_consistency(rep))
    return 0 if rep.consistent else 1


def cmd_selftest(args):
    from .selftest import run_selftest

    ok, results = run_selftest(seed=args.seed, cases=args.cases)
    _emit(reports.render_selftest(results, args.seed, args.cases))
    return 0 if ok else 1


# the flags of CDVFParams, shared by every command that builds one
PARAMS = (
    ("--p", dict(type=int, required=True, help="residue characteristic")),
    ("--f", dict(type=int, default=1, help="residue degree over GF(p)")),
    ("--r", dict(type=int, default=0, help="p-basis size of the residue field")),
    ("--e", dict(type=int, required=True, help="absolute ramification index")),
    ("--n", dict(type=int, required=True, help="modulus exponent of p^n")),
    ("--q", dict(type=int, default=1, help="symbol degree")),
    ("--a", dict(type=str, required=True,
                 help="residue class of p*pi^(-e), in the element grammar")),
)
DEG_WINDOW = ("--deg-window", dict(type=int, default=graded.DEFAULT_TABLE_RADIUS))
WINDOW_CAP = ("--window-cap", dict(type=int, default=graded.DEFAULT_WINDOW_CAP))
# every value prints the same grmk.v1 report; kept for compatibility
FORMAT = ("--format", dict(choices=["text", "machine"], default="text"))

# command -> (handler, help, its flags as (option, add_argument keywords)):
# the one statement of the command line, read by both `_flag_index` and
# `build_parser`
COMMANDS = {
    "gr": (cmd_gr, "classify a level and print its presentation", (
        *PARAMS, ("--m", dict(type=int, required=True, help="filtration level")),
        DEG_WINDOW, WINDOW_CAP, FORMAT)),
    "reduce": (cmd_reduce, "canonical representative of an element", (
        *PARAMS, ("--m", dict(type=int, required=True)),
        ("--w1", dict(type=str, required=True, help="degree q-1 form text")),
        ("--w2", dict(type=str, default=None, help="degree q-2 form text")),
        WINDOW_CAP, FORMAT)),
    "symbol": (cmd_symbol, "evaluate a restricted symbol", (
        *PARAMS,
        ("--symbol", dict(type=str, required=True, help="{1+pi^M*(element); entry; ...} "
                                                         "with entries monomials or 'pi'")),
        FORMAT)),
    "verify-q1": (cmd_verify_q1, "compare the q = 1 orders with the filtered p-adic "
                                 "oracle on a fixture field", (
        ("--fixture", dict(type=str, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--N", dict(type=int, default=None, help="cutoff (default c_n + 3)")),
        FORMAT)),
    "shift-check": (cmd_shift_check, "compare presentations at (n, m) and (n-1, m-e)", (
        *PARAMS, ("--m", dict(type=int, required=True)),
        ("--probe", dict(action="append", default=[], metavar="W1;W2",
                         help="element (w1, w2) whose zero test must agree at both "
                              "levels; an empty side is 0 (repeatable)")),
        DEG_WINDOW, WINDOW_CAP, FORMAT)),
    "selftest": (cmd_selftest, "run the seeded property suites", (
        ("--seed", dict(type=int, default=7)),
        ("--cases", dict(type=int, default=50)),
        FORMAT)),
}


def build_parser():
    """The argparse parser of COMMANDS, for help texts and usage errors."""
    parser = argparse.ArgumentParser(
        prog="grmk",
        description="graded quotients of unit-filtered Milnor K-groups mod p^n")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs in flags:
            command.add_argument(option, **kwargs)
        command.set_defaults(func=func)
    return parser


USAGE_ERRORS = (ValueError, ParseError, ExponentOverflow, OutOfRangeLevel,
                MalformedSymbol, PreconditionViolated, oracle.NotEisenstein,
                oracle.ParamsMismatch, FileNotFoundError, IsADirectoryError)
RUNTIME_ERRORS = (WindowOverflow,)


# the flag index, built on the first `main` call, and the argparse parser,
# built on the first argv the index cannot parse (a build costs about ten
# argparse parses).  `build_parser` is looked up at that call, so a wrapper
# installed on the module attribute sees the one build.
_parser = _index = None


def _flag_index():
    """Per subcommand of COMMANDS: the namespace argparse starts from (the
    command, its handler and every default), each flag's (dest, type,
    choices, append) and the dests that must be given."""
    index = {}
    for name, (func, _, flags) in COMMANDS.items():
        defaults, spec, required = {"command": name, "func": func}, {}, set()
        for option, kwargs in flags:
            dest = option.lstrip("-").replace("-", "_")
            defaults[dest] = kwargs.get("default")
            spec[option] = (dest, kwargs.get("type", str), kwargs.get("choices"),
                            kwargs.get("action") == "append")
            if kwargs.get("required"):
                required.add(dest)
        index[name] = (defaults, spec, required)
    return index


def _parse_flags(index, argv):
    """The Namespace argparse returns for an argv `COMMAND (--FLAG VALUE)*`
    whose flags are full option strings of COMMAND, none but `--probe` given
    twice, whose values are non-empty, do not start with '-', convert and
    pass their choices, and which has every required flag; else None."""
    if not argv or argv[0] not in index or len(argv) % 2 == 0:
        return None
    defaults, flags, required = index[argv[0]]
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in flags or not text or text[0] == "-":
            return None
        dest, convert, choices, append = flags[flag]
        try:
            value = convert(text)
        except (TypeError, ValueError):
            return None
        if (choices is not None and value not in choices) or (dest in values and not append):
            return None
        if append:
            # argparse appends to a copy of the default, never to the shared list
            values.setdefault(dest, list(defaults[dest] or ())).append(value)
        else:
            values[dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


def main(argv=None):
    global _parser, _index
    if _index is None:
        _index = _flag_index()
    args = _parse_flags(_index, sys.argv[1:] if argv is None else argv)
    if args is None:
        # help, abbreviations, --flag=value and every usage error
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RUNTIME_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        # a degree box too large to allocate, say; str() of it is empty
        sys.stderr.write("error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
