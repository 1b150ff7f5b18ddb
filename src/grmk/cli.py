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
    el = desc.element(w1, w2)
    red = reduce(el)
    _emit(reports.render_reduce(desc, red, red.is_zero_pair()))
    return 0


def cmd_symbol(args):
    params = _params_from(args)
    sym = parse_symbol(params.kctx, args.symbol)
    el = symbol_to_forms(params, sym)
    red = reduce(el)
    _emit(reports.render_symbol(el.desc, args.symbol, el, red, red.is_zero_pair()))
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
    # stabilization between cutoffs c_n + 1 and c_n + 3, reusing the orders at N
    lo, hi = (orders if cutoff == N else oracle.filtered_unit_group(
                  oracle.build_field(poly, cutoff), args.n)
              for cutoff in (c_n + 1, c_n + 3))
    stable = oracle.same_orders(lo, hi)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grmk",
        description="graded quotients of unit-filtered Milnor K-groups mod p^n")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of CDVFParams, shared by every command that builds one
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=int, required=True, help="residue characteristic")
    params.add_argument("--f", type=int, default=1, help="residue degree over GF(p)")
    params.add_argument("--r", type=int, default=0, help="p-basis size of the residue field")
    params.add_argument("--e", type=int, required=True, help="absolute ramification index")
    params.add_argument("--n", type=int, required=True, help="modulus exponent of p^n")
    params.add_argument("--q", type=int, default=1, help="symbol degree")
    params.add_argument("--a", type=str, required=True,
                        help="residue class of p*pi^(-e), in the element grammar")

    p_gr = sub.add_parser("gr", parents=[params],
                          help="classify a level and print its presentation")
    p_gr.add_argument("--m", type=int, required=True, help="filtration level")
    p_gr.add_argument("--deg-window", type=int, default=graded.DEFAULT_TABLE_RADIUS)
    p_gr.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_gr.set_defaults(func=cmd_gr)

    p_red = sub.add_parser("reduce", parents=[params],
                           help="canonical representative of an element")
    p_red.add_argument("--m", type=int, required=True)
    p_red.add_argument("--w1", type=str, required=True, help="degree q-1 form text")
    p_red.add_argument("--w2", type=str, default=None, help="degree q-2 form text")
    p_red.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_red.set_defaults(func=cmd_reduce)

    p_sym = sub.add_parser("symbol", parents=[params], help="evaluate a restricted symbol")
    p_sym.add_argument("--symbol", type=str, required=True,
                       help="{1+pi^M*(element); entry; ...} with entries monomials or 'pi'")
    p_sym.set_defaults(func=cmd_symbol)

    p_ver = sub.add_parser(
        "verify-q1",
        help="compare the q = 1 orders with the filtered p-adic oracle on a fixture field")
    p_ver.add_argument("--fixture", type=str, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--N", type=int, default=None, help="cutoff (default c_n + 3)")
    p_ver.set_defaults(func=cmd_verify_q1)

    p_shift = sub.add_parser("shift-check", parents=[params],
                             help="compare presentations at (n, m) and (n-1, m-e)")
    p_shift.add_argument("--m", type=int, required=True)
    p_shift.add_argument("--probe", action="append", default=[], metavar="W1;W2",
                         help="element (w1, w2) whose zero test must agree at both "
                              "levels; an empty side is 0 (repeatable)")
    p_shift.add_argument("--deg-window", type=int, default=graded.DEFAULT_TABLE_RADIUS)
    p_shift.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_shift.set_defaults(func=cmd_shift_check)

    p_self = sub.add_parser("selftest", help="run the seeded property suites")
    p_self.add_argument("--seed", type=int, default=7)
    p_self.add_argument("--cases", type=int, default=50)
    p_self.set_defaults(func=cmd_selftest)

    # every value prints the same grmk.v1 report; kept for compatibility
    for command in sub.choices.values():
        command.add_argument("--format", choices=["text", "machine"], default="text")
    return parser


USAGE_ERRORS = (ValueError, ParseError, ExponentOverflow, OutOfRangeLevel,
                MalformedSymbol, PreconditionViolated, oracle.NotEisenstein,
                oracle.ParamsMismatch, FileNotFoundError, IsADirectoryError)
RUNTIME_ERRORS = (WindowOverflow,)


# the parser and its flag index, built on the first `main` call: building
# costs about ten argparse parses.  `build_parser` is looked up at that call,
# so a wrapper installed on the module attribute sees the one build.
_parser = _index = None


def _flag_index(parser):
    """Per subcommand, read off its argparse actions: the namespace argparse
    starts from (the command and every default), each `--FLAG VALUE`
    option's (dest, type, choices, append) and the dests that must be given."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    index = {}
    for name, command in sub.choices.items():
        defaults, flags = {}, {}
        for a in command._actions:
            if argparse.SUPPRESS not in (a.dest, a.default):
                defaults.setdefault(a.dest, a.default)
            if type(a) in (argparse._StoreAction, argparse._AppendAction) and a.nargs is None:
                for option in a.option_strings:
                    flags[option] = (a.dest, a.type or str, a.choices,
                                     type(a) is argparse._AppendAction)
        for dest, value in command._defaults.items():
            defaults.setdefault(dest, value)
        index[name] = ({sub.dest: name, **defaults}, flags,
                       {a.dest for a in command._actions if a.required})
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
    if _parser is None:
        _parser = build_parser()
        _index = _flag_index(_parser)
    args = _parse_flags(_index, sys.argv[1:] if argv is None else argv)
    if args is None:
        # help, abbreviations, --flag=value and every usage error
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
