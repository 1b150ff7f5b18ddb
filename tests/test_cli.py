import contextlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from grmk import cli, oracle
from grmk.forms import NotClosed
from grmk.selftest import PROPERTIES

import reference

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--p", "2", "--f", "1", "--r", "0", "--e", "2", "--n", "2", "--q", "1", "--a", "1"]


class TestGr:
    def test_case_ii_order(self, capsys):
        code, out, _ = run_cli(capsys, "gr", *BASE, "--m", "4", "--format", "machine")
        assert code == 0
        assert "case: II" in out and "i: 1" in out
        assert "order: 2" in out

    def test_case_iii(self, capsys):
        code, out, _ = run_cli(capsys, "gr", *BASE, "--m", "7", "--format", "machine")
        assert code == 0
        assert "case: III" in out and "order: 1" in out

    def test_thresholds_printed(self, capsys):
        _, out, _ = run_cli(capsys, "gr", *BASE, "--m", "5", "--format", "machine")
        assert "c1: 4" in out and "c2: 6" in out and "s: 0" in out

    def test_validation_rejects_bad_e(self, capsys):
        code, _, err = run_cli(capsys, "gr", "--p", "3", "--f", "1", "--r", "0",
                               "--e", "3", "--n", "1", "--q", "1", "--a", "1",
                               "--m", "1")
        assert code == 2
        assert "e_0" in err

    def test_field_without_stored_modulus_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gr", "--p", "2", "--f", "5", "--r", "0",
                                 "--e", "2", "--n", "2", "--q", "1", "--a", "1",
                                 "--m", "4")
        assert code == 2 and out == ""
        assert err == "error: no default modulus stored for (p, f) = (2, 5)\n"

    def test_dim_table_r1(self, capsys):
        code, out, _ = run_cli(capsys, "gr", "--p", "2", "--f", "1", "--r", "1",
                               "--e", "2", "--n", "2", "--q", "1", "--a", "1",
                               "--m", "5", "--deg-window", "2", "--format", "machine")
        assert code == 0
        assert "dim_units: GF(p)" in out
        assert "dim[0]: 1" in out

    @pytest.mark.parametrize("command", ["gr", "shift-check"])
    def test_negative_deg_window_is_a_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--p", "2", "--r", "2", "--e", "2",
                                 "--n", "2", "--q", "2", "--a", "t1^1", "--m", "6",
                                 "--deg-window", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command,extra", [("gr", []), ("reduce", ["--w1", "t1^1*dlog[1]"]),
                                               ("shift-check", [])])
    def test_window_cap_below_one_is_a_usage_error(self, capsys, command, extra):
        # m = 5, 6, 7 are Case I, II and III: the cap is checked on every branch
        for m in ("5", "6", "7"):
            for cap in ("0", "-1"):
                code, out, err = run_cli(capsys, command, "--p", "2", "--r", "2", "--e", "2",
                                         "--n", "2", "--q", "2", "--a", "t1^1", "--m", m,
                                         "--window-cap", cap, *extra)
                assert code == 2 and out == "", (m, cap)
                assert err == f"error: the window cap must be at least 1, not {cap}\n"

    @pytest.mark.parametrize("command", ["gr", "shift-check"])
    def test_degree_box_out_of_memory_is_a_runtime_error(self, capsys, monkeypatch, command):
        # a box of (2R+1)^r entries too large to allocate; gr calls the name
        # it imported, shift-check the one in graded
        def values(desc, radius=3):
            raise MemoryError

        monkeypatch.setattr("grmk.cli.dim_values", values)
        monkeypatch.setattr("grmk.graded.dim_values", values)
        code, out, err = run_cli(capsys, command, *BASE, "--m", "5")
        assert (code, out, err) == (1, "", "error: out of memory\n")


GOLDEN_GR_M4 = """\
format: grmk.v1
report: gr
p: 2
f: 1
r: 0
e: 2
e0: 2
n: 2
q: 1
a: 1
m: 4
case: II
i: 1
c1: 4
c2: 6
branch: ac
presentation: O^0/(1+aC)Z_1 (+) O^-1/(1+aC)Z_1
order: 2
"""


class TestGoldenReport:
    def test_gr_machine_report_frozen(self, capsys):
        code, out, _ = run_cli(capsys, "gr", *BASE, "--m", "4",
                               "--format", "machine")
        assert code == 0
        assert out == GOLDEN_GR_M4


class TestReduce:
    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", *BASE, "--m", "5", "--w1", "0",
                               "--format", "machine")
        assert code == 0 and "is_zero: yes" in out

    def test_theta_image_via_symbol_round_trip(self, capsys):
        # {1+pi^2 t1, t1} maps to t1 dlog t1 = d(t1), which dies mod B_1
        args = ["--p", "2", "--f", "1", "--r", "2", "--e", "2", "--n", "2",
                "--q", "2", "--a", "1"]
        code, out, _ = run_cli(capsys, "symbol", *args,
                               "--symbol", "{1+pi^2*(t1^1);t1^1}",
                               "--format", "machine")
        assert code == 0
        assert "image_w1: t1^1*dlog[1]" in out
        assert "is_zero: yes" in out
        code, out, _ = run_cli(capsys, "reduce", *args, "--m", "2",
                               "--w1", "t1^1*dlog[1]", "--format", "machine")
        assert code == 0 and "is_zero: yes" in out

    def test_case_ii_unit_class_survives(self, capsys):
        # at m = 4 over F_2 the 1+aC image is trivial (the measured order
        # is 2), so the class of 1 must stay nonzero
        code, out, _ = run_cli(capsys, "reduce", *BASE, "--m", "4", "--w1", "1",
                               "--format", "machine")
        assert code == 0 and "is_zero: no" in out

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "reduce", *BASE, "--m", "5", "--w1", "t9^1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("w1, error", [
        ("t1^x*dlog[1]+1*dlog[2", "missing ']' after dlog[ (at '1*dlog[2')"),
        ("t1^x*dlog[1]+1*dlog[2]", "unrecognized token (at 't1^x')"),
    ], ids=["syntax-and-element-fault", "element-fault"])
    def test_syntax_fault_is_reported_first(self, capsys, w1, error):
        # every term's dlog syntax is checked before any element is parsed
        code, out, err = run_cli(capsys, "reduce", "--p", "2", "--r", "2", "--e", "4",
                                 "--n", "2", "--q", "2", "--a", "t1^1", "--m", "9",
                                 "--w1", w1)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_bare_dlog_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--p", "2", "--r", "1", "--e", "2",
                                 "--n", "2", "--q", "2", "--a", "1", "--m", "4",
                                 "--w1", "dlog[1]")
        assert (code, out) == (2, "")
        assert err == ("error: dlog[...] needs an element and '*' before it, "
                       "as in 1*dlog[...] (at 'dlog[1]')\n")

    def test_exponent_overflow_is_a_usage_error(self):
        # 2^40 + 1 is past the exponent bound: one error line, exit 2
        argv = ["reduce", "--p", "2", "--r", "2", "--e", "4", "--n", "2",
                "--q", "2", "--a", "t1^1", "--m", "8",
                "--w1", "t1^1099511627777*dlog[1]"]
        script = f"import sys; from grmk import cli; sys.exit(cli.main({argv!r}))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr


R1 = ["--p", "2", "--r", "1", "--e", "2", "--a", "1"]


class TestDlogIndexPastR:
    # Omega^q = 0 above r = 1, yet a dlog index past r is a usage error at
    # every degree, as it is at q - 1 <= r
    @pytest.mark.parametrize("argv, subset", [
        (["reduce", *R1, "--n", "1", "--m", "1", "--q", "3", "--w1", "t1^1*dlog[1,2]"],
         "(1, 2)"),
        (["reduce", *R1, "--n", "1", "--m", "1", "--q", "3", "--w1", "t1^1*dlog[7,9]"],
         "(7, 9)"),
        (["reduce", *R1, "--n", "1", "--m", "1", "--q", "4", "--w1", "0",
          "--w2", "t1^1*dlog[1,2]"], "(1, 2)"),
        (["reduce", *R1, "--n", "1", "--m", "1", "--q", "2", "--w1", "t1^1*dlog[7]"],
         "(7,)"),
        (["shift-check", *R1, "--n", "2", "--m", "5", "--q", "3",
          "--probe", "t1^1*dlog[1,5];"], "(1, 5)"),
    ])
    def test_subset_out_of_range(self, capsys, argv, subset):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: subset {subset} out of range 1..1\n"


class TestSymbol:
    def test_q1(self, capsys):
        args = ["--p", "2", "--f", "1", "--r", "1", "--e", "2", "--n", "2",
                "--q", "1", "--a", "1"]
        code, out, _ = run_cli(capsys, "symbol", *args,
                               "--symbol", "{1+pi^3*(1)}", "--format", "machine")
        assert code == 0 and "image_w1: 1" in out

    def test_prime_tail(self, capsys):
        args = ["--p", "2", "--f", "1", "--r", "1", "--e", "2", "--n", "2",
                "--q", "2", "--a", "1"]
        code, out, _ = run_cli(capsys, "symbol", *args,
                               "--symbol", "{1+pi^2*(t1^1);pi}", "--format", "machine")
        assert code == 0
        assert "image_w1: 0" in out and "image_w2: t1^1" in out

    def test_malformed(self, capsys):
        args = ["--p", "2", "--f", "1", "--r", "1", "--e", "2", "--n", "2",
                "--q", "3", "--a", "1"]
        code, _, err = run_cli(capsys, "symbol", *args,
                               "--symbol", "{1+pi^2*(1);pi;pi}")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("entry", ["0", "1+t1^1"])
    def test_tail_entry_printed_in_the_element_grammar(self, capsys, entry):
        code, out, err = run_cli(capsys, "symbol", "--p", "2", "--r", "1", "--e", "2",
                                 "--n", "2", "--q", "2", "--a", "1",
                                 "--symbol", f"{{1+pi^3*(t1^1);{entry}}}")
        assert (code, out) == (2, "")
        assert err == f"error: tail entry '{entry}' is not a monomial\n"


GOLDEN_VERIFY_Q2I = """\
format: grmk.v1
report: verify-q1
m=1: oracle=2 engine=2 match=yes
m=2: oracle=2 engine=2 match=yes
m=3: oracle=2 engine=2 match=yes
m=4: oracle=2 engine=2 match=yes
m=5: oracle=2 engine=2 match=yes
m=6: oracle=2 engine=2 match=yes
m=7: oracle=1 engine=1 match=yes
m=8: oracle=1 engine=1 match=yes
gr0_pi: 4
all_match: yes
stabilization: yes
"""


class TestVerifyQ1:
    def test_gaussian(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q2_gaussian.field"),
                               "--n", "2", "--format", "machine")
        assert code == 0
        assert out == GOLDEN_VERIFY_Q2I

    def test_zeta3(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q3_zeta3.field"),
                               "--n", "1", "--format", "machine")
        assert code == 0 and "all_match: yes" in out

    @pytest.mark.parametrize("N, other", [("7", 9), ("11", 7)])
    def test_stabilization_reads_the_printed_cutoff(self, capsys, monkeypatch,
                                                    fixtures_dir, N, other):
        # c_n = 6: the orders at N are compared with one run at c_n + 1, or
        # at c_n + 3 when N = c_n + 1
        cutoffs = []
        build = oracle.build_field
        monkeypatch.setattr(oracle, "build_field",
                            lambda poly, cutoff: cutoffs.append(cutoff) or build(poly, cutoff))
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q2_gaussian.field"),
                               "--n", "2", "--N", N)
        assert code == 0 and cutoffs == [int(N), other]
        assert "all_match: yes" in out and "stabilization: yes" in out

    def test_bad_order_at_the_printed_cutoff_fails_stabilization(self, capsys,
                                                                 monkeypatch, fixtures_dir):
        # an order wrong only at N = 11, at level 10 past c_n = 6
        orders_at = oracle.filtered_unit_group

        def patched(ctx, n):
            orders = orders_at(ctx, n)
            if ctx.N == 11:
                orders[10] = 2
            return orders

        monkeypatch.setattr(oracle, "filtered_unit_group", patched)
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q2_gaussian.field"),
                               "--n", "2", "--N", "11")
        assert code == 1 and "stabilization: no" in out

    def test_low_cutoff_names_threshold(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q2_gaussian.field"),
                               "--n", "2", "--N", "5")
        assert code == 2 and "c_n" in err and "6" in err

    def test_non_integral_e0_is_a_usage_error(self, capsys, tmp_path):
        # x^3 - 3 is Eisenstein at p = 3 with e = 3, which p - 1 = 2 does not divide
        fixture = tmp_path / "q3_cbrt3.field"
        fixture.write_text("p: 3\nf: 1\ncoeffs: -3 0 0 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-q1", "--fixture", str(fixture), "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "e_0 is not integral" in err

    @pytest.mark.parametrize("text, error", [
        ("p: 4\ncoeffs: 4 1\n", "p = 4 is not prime"),
        ("p: 2\nf: 5\ncoeffs: 2 1\n", "no default modulus stored for (p, f) = (2, 5)"),
    ], ids=["p-not-prime", "no-stored-modulus"])
    def test_residue_field_without_modulus_is_a_usage_error(self, capsys, tmp_path,
                                                            text, error):
        # both polynomials are Eisenstein, so the residue field is what fails
        fixture = tmp_path / "field.field"
        fixture.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-q1", "--fixture", str(fixture), "--n", "1")
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("case", ["missing-p", "missing-coeffs", "directory"])
    def test_malformed_fixture_is_a_usage_error(self, capsys, tmp_path, case):
        # "p 2" has no colon, so the fixture has no p: line
        texts = {"missing-p": "p 2\ncoeffs: 2 0 1\n", "missing-coeffs": "p: 2\nf: 1\n"}
        fixture = tmp_path / "bad.field"
        if case in texts:
            fixture.write_text(texts[case], encoding="utf-8")
        else:
            fixture.mkdir()
        code, out, err = run_cli(capsys, "verify-q1", "--fixture", str(fixture), "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        if case in texts:
            assert f"no '{case.split('-')[1]}:' line" in err

    def test_zeta9_n2_past_brute_force(self, capsys, fixtures_dir):
        # |H| = 3^17 at the default cutoff: only the filtered oracle gets here
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q3_zeta9.field"),
                               "--n", "2")
        assert code == 0
        assert "all_match: yes" in out and "stabilization: yes" in out

    def test_sqrt2_mismatch_detected_at_n2(self, capsys, fixtures_dir):
        # the divisibility 2 | e holds but zeta_4 is not in Q_2(sqrt 2), so
        # the presentation is wrong there and the oracle must catch it
        code, out, _ = run_cli(capsys, "verify-q1",
                               "--fixture", str(fixtures_dir / "q2_sqrt2.field"),
                               "--n", "2", "--format", "machine")
        assert code == 1
        assert "all_match: no" in out
        assert "m=5: oracle=1 engine=2 match=no" in out


def parser_argvs(fixtures_dir):
    fixture = str(fixtures_dir / "q2_gaussian.field")
    return [
        ["gr", *BASE, "--m", "4"],
        ["gr", *BASE],                                         # no --m
        ["verify-q1", "--fixture", fixture, "--n", "2", "--cap", "64"],
        ["verify-q1", "--fixture", fixture, "--n", "2", "--N", "5"],
        ["selftest", "--cases", "0"],
        ["verify-q1", "--fixture", fixture, "--n", "2"],
        ["gr", *BASE, "--m", "7"],
    ]


def bench_argvs():
    """The argv of every gr-sweep and oracle-q1 op, read from
    bench/workloads.py by file path."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.gr_sweep_ops() + workloads.oracle_ops(ROOT)
    assert len(ops) > 50
    return {op.key: list(op.argv) for op in ops}


class TestParser:
    def test_built_once_and_same_output_as_fresh_runs(self, capsys, monkeypatch,
                                                      fixtures_dir):
        argvs = parser_argvs(fixtures_dir)
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            captured = capsys.readouterr()
            script = f"import sys; from grmk import cli; sys.exit(cli.main({argv!r}))"
            fresh = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert len(builds) == 1

    def test_well_formed_argvs_build_no_parser(self, capsys, monkeypatch):
        # every benchmark argv is answered from the flag table alone; the
        # first fallback builds the parser, and no later one builds it again
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_index", None)
        for argv in bench_argvs().values():
            assert cli.main(argv) in (0, 1), argv
        capsys.readouterr()
        assert builds == []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "gr", *BASE, "--m", "4", "--deg", "1")
            assert code == 0 and out.startswith("format: grmk.v1\n")
        assert builds == [1]


def _outcome(parser, argv):
    """parser's Namespace for argv, or (exit code, stdout, stderr) where it
    exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestReferenceParser:
    """The parser built from cli's flag table against tests/reference.py's
    parser, whose flags are added one by one: the same help, usage, errors
    and Namespaces on the running Python, whose argparse version decides
    how help is laid out."""

    def test_same_help_and_usage(self):
        ours, ref = cli.build_parser(), reference.build_parser()
        assert ours.format_help() == ref.format_help()
        assert ours.format_usage() == ref.format_usage()
        commands = next(a.choices for a in ours._actions if isinstance(a.choices, dict))
        ref_commands = next(a.choices for a in ref._actions if isinstance(a.choices, dict))
        assert list(commands) == list(ref_commands)
        for name, command in commands.items():
            assert command.format_help() == ref_commands[name].format_help(), name
            assert command.format_usage() == ref_commands[name].format_usage(), name

    def test_same_parse_as_reference(self, fixtures_dir):
        ours, ref = cli.build_parser(), reference.build_parser()
        index = cli._flag_index()
        wellformed = {
            "gr": ["gr", *BASE, "--m", "4"],
            "reduce": ["reduce", *BASE, "--m", "4", "--w1", "1"],
            "symbol": ["symbol", *BASE, "--symbol", "{1+pi^3*(1)}"],
            "verify-q1": ["verify-q1", "--fixture", "x.field", "--n", "1"],
            "shift-check": ["shift-check", *BASE, "--m", "5", "--probe", "1;", "--probe", ";1"],
            "selftest": ["selftest"],
        }
        argvs = [*bench_argvs().values(), *parser_argvs(fixtures_dir), *wellformed.values(),
                 [], ["--zz"], ["-h"]]
        for argv in wellformed.values():
            for token in ODD_TOKENS:
                argvs += [argv + [token], argv + [token, "1"], argv[:1] + [token]]
        for argv in argvs:
            want = _outcome(ref, argv)
            assert _outcome(ours, argv) == want, argv
            fast = cli._parse_flags(index, argv)
            assert fast is None or fast == want, argv


PARSER = cli.build_parser()
INDEX = cli._flag_index()
# subcommand name -> its argparse parser, to draw argvs from the real flags
COMMANDS = next(a.choices for a in PARSER._actions if isinstance(a.choices, dict))
# values that argparse takes apart from the flags' own: empty, a negative
# number, a non-number and a form that starts with '-'
ODD_VALUES = ["", "-1", "x", "-t1^1*dlog[1]"]
# tokens the fast path must leave to argparse: prefixes, --flag=value,
# unknown flags, help and the end of options
ODD_TOKENS = ["--deg", "--w", "--m=4", "--deg-window=1", "--zz", "-h", "--help", "--"]


def _good_values(action):
    """Values argparse converts for the flag of action."""
    if action.choices is not None:
        return list(action.choices)
    return ["0", "3", "12"] if action.type is int else ["t1^1", "1;t1^1"]


@st.composite
def argvs(draw):
    """An argv from one subcommand's real flags: every required flag and
    some optional ones with good values in shuffled order, then up to three
    changes: a flag dropped, repeated or cut to a prefix, an odd value, a
    `--flag=value`, an odd token or a top-level option."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[command]._actions if a.option_strings and a.nargs != 0]
    pairs = [[a.option_strings[-1], draw(st.sampled_from(_good_values(a)))]
             for a in actions if a.required or draw(st.booleans())]
    pairs, head = draw(st.permutations(pairs)), []
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        change = draw(st.sampled_from(["drop", "repeat", "prefix", "value", "equals",
                                       "token", "top"]))
        at = draw(st.integers(0, len(pairs)))
        if change == "top":
            head = [draw(st.sampled_from(["-h", "--zz"]))]
        elif change == "token" or at == len(pairs):
            pairs.insert(at, [draw(st.sampled_from(ODD_TOKENS))])
        else:
            pair = pairs[at]
            pairs[at:at + 1] = {"drop": [], "repeat": [pair, pair],
                                "prefix": [[pair[0][:max(3, len(pair[0]) - 2)], *pair[1:]]],
                                "value": [[pair[0], draw(st.sampled_from(ODD_VALUES))]],
                                "equals": [["=".join(pair)]]}[change]
    return head + [command] + [token for pair in pairs for token in pair]


class TestFlagIndex:
    @settings(max_examples=400, deadline=None)
    @given(argvs())
    @example(["reduce", *BASE, "--m", "5", "--w1", "-t1^1*dlog[1]"])
    @example(["shift-check", *BASE, "--m", "5", "--probe", "-1;"])
    @example(["gr", *BASE])
    @example(["verify-q1", "--n", "2"])
    @example(["gr", *BASE, "--m", "4", "--m", "5"])
    @example(["gr", *BASE, "--m", "4", "--format", "json"])
    @example(["selftest", "--cases", "x"])
    def test_same_namespace_as_argparse(self, argv):
        # the fast path declines, or returns exactly what argparse returns;
        # argparse never rejects an argv the fast path took
        fast = cli._parse_flags(INDEX, argv)
        if fast is not None:
            assert fast == _outcome(PARSER, argv), argv

    def test_dash_value_stays_an_argparse_error(self, capsys):
        # a value that starts with '-' is an option to argparse, whatever
        # the fast path could make of it
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", *BASE, "--m", "5", "--w1", "-t1^1*dlog[1]"])
        assert exc.value.code == 2
        assert "argument --w1: expected one argument" in capsys.readouterr().err

    def test_every_bench_argv_takes_the_fast_path(self):
        # the benchmark's CLI workloads, read from bench/workloads.py
        for key, argv in bench_argvs().items():
            fast = cli._parse_flags(INDEX, argv)
            assert fast is not None and fast == PARSER.parse_args(argv), key


class TestShiftCheck:
    def test_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "shift-check", *BASE, "--m", "5",
                               "--format", "machine")
        assert code == 0 and "consistent: yes" in out

    def test_precondition(self, capsys):
        code, _, err = run_cli(capsys, "shift-check", *BASE, "--m", "3")
        assert code == 2 and "error:" in err

    def test_dim_mismatch_fails(self, capsys, monkeypatch):
        # a stand-in list that reads the level n differs between the sides
        def values(desc, radius=3):
            return [desc.params.n] * (2 * radius + 1) ** desc.params.r

        monkeypatch.setattr("grmk.graded.dim_values", values)
        code, out, _ = run_cli(capsys, "shift-check", "--p", "2", "--r", "1", "--e", "2",
                               "--n", "2", "--q", "1", "--a", "1", "--m", "5")
        assert code == 1 and "consistent: no" in out
        assert [line for line in out.splitlines() if line.startswith("dim_mismatch[")] == [
            f"dim_mismatch[{b}]: high=2 low=1" for b in range(-3, 4)]

    def test_dim_mismatch_rows_in_box_order(self, capsys, monkeypatch):
        # lists that differ only at the first and the last box position:
        # the rows come in box order after the whole-list comparison
        def values(desc, radius=3):
            out = [0] * (2 * radius + 1) ** desc.params.r
            out[0] = out[-1] = desc.params.n
            return out

        monkeypatch.setattr("grmk.graded.dim_values", values)
        code, out, _ = run_cli(capsys, "shift-check", "--p", "2", "--r", "2", "--e", "2",
                               "--n", "2", "--q", "1", "--a", "1", "--m", "5",
                               "--deg-window", "2")
        assert code == 1 and "consistent: no" in out
        assert [line for line in out.splitlines() if line.startswith("dim_mismatch[")] == [
            "dim_mismatch[-2,-2]: high=2 low=1", "dim_mismatch[2,2]: high=2 low=1"]

    def test_order_mismatch_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("grmk.graded.dim_values",
                            lambda desc, radius=3: [desc.params.n])
        code, out, _ = run_cli(capsys, "shift-check", *BASE, "--m", "5")
        assert code == 1
        assert "orders: MISMATCH" in out and "consistent: no" in out


PROBE_BASE = ["--p", "2", "--r", "2", "--e", "4", "--n", "2", "--q", "2",
              "--a", "t1^1", "--m", "12"]


class TestShiftCheckProbes:
    def test_real_probes_are_consistent(self, capsys):
        # a probe that passes adds no line: the report equals the one
        # without probes
        _, plain, _ = run_cli(capsys, "shift-check", *PROBE_BASE)
        code, out, _ = run_cli(capsys, "shift-check", *PROBE_BASE,
                               "--probe", "t1^1*dlog[1];t2^1", "--probe", ";t1^2")
        assert code == 0 and out == plain
        assert out.endswith("consistent: yes\n") and "probe_flag" not in out

    def test_probe_flag(self, capsys, monkeypatch):
        # a stand-in is_zero that reads the level n differs between the sides
        monkeypatch.setattr("grmk.graded.is_zero", lambda el: el.desc.params.n > 1)
        code, out, _ = run_cli(capsys, "shift-check", *PROBE_BASE,
                               "--probe", "t1^1*dlog[1];t2^1", "--probe", ";t1^2")
        assert code == 1 and out.endswith("consistent: no\n")
        assert [line for line in out.splitlines() if line.startswith("probe_flag:")] == [
            "probe_flag: (t1^1*dlog[1]; t2^1) zero_high=True zero_low=False",
            "probe_flag: (0; t1^2) zero_high=True zero_low=False"]

    def test_probe_list_is_not_kept_between_runs(self, capsys, monkeypatch):
        # a run with --probe leaves nothing for the next run without it:
        # its report is that of a run on a freshly built flag index
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_index", None)
        fresh = run_cli(capsys, "shift-check", *PROBE_BASE)
        assert fresh[0] == 0
        assert run_cli(capsys, "shift-check", *PROBE_BASE, "--probe", "t1^1")[0] == 2
        assert run_cli(capsys, "shift-check", *PROBE_BASE) == fresh

    @pytest.mark.parametrize("probe", ["t1^1*dlog[1]", "t1^1;t2^1", "t1^1*dlog[1];t2^1;0",
                                       "t1^1*dlog[2,1];", ";x^1"])
    def test_malformed_probe_is_a_usage_error(self, capsys, probe):
        code, out, err = run_cli(capsys, "shift-check", *PROBE_BASE, "--probe", probe)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSelftest:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--cases", "5",
                               "--format", "machine")
        assert code == 0 and "all_ok: yes" in out

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_cases_below_one_is_a_usage_error(self, capsys, cases):
        code, out, err = run_cli(capsys, "selftest", "--cases", cases)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_seed_reproducibility(self, capsys):
        _, out1, _ = run_cli(capsys, "selftest", "--seed", "7", "--cases", "5",
                             "--format", "machine")
        _, out2, _ = run_cli(capsys, "selftest", "--seed", "7", "--cases", "5",
                             "--format", "machine")
        assert out1 == out2

    def test_corrupted_build_names_failure(self, capsys, monkeypatch):
        def broken(rng, cases):
            raise AssertionError("deliberately broken")

        monkeypatch.setattr("grmk.selftest.PROPERTIES",
                            PROPERTIES + [("mutation.broken", broken)])
        code, out, _ = run_cli(capsys, "selftest", "--cases", "2",
                               "--format", "machine")
        assert code == 1
        assert "property: mutation.broken" in out
        assert "status: FAIL" in out and "deliberately broken" in out

    def test_any_exception_is_a_failure(self, capsys, monkeypatch):
        def crashes(rng, cases):
            raise NotClosed("not closed")

        monkeypatch.setattr("grmk.selftest.PROPERTIES",
                            [("mutation.crashes", crashes)])
        code, out, _ = run_cli(capsys, "selftest", "--cases", "2")
        assert code == 1
        assert "status: FAIL" in out and "detail: NotClosed: not closed" in out

    def test_broken_operator_fails_under_optimize(self):
        # d replaced by the identity: d(d(w)) = w must fail even with -O
        script = ("import sys; import grmk.selftest as st; from grmk import cli; "
                  "st.d = lambda w: w; "
                  "sys.exit(cli.main(['selftest', '--cases', '5']))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "property: forms.dd_zero\nstatus: FAIL" in proc.stdout
        assert "all_ok: no" in proc.stdout


FORMAT_CASES = {
    "gr": ["gr", "--p", "2", "--r", "1", "--e", "2", "--n", "2", "--q", "2",
           "--a", "1", "--m", "4", "--deg-window", "1"],
    "reduce": ["reduce", *BASE, "--m", "4", "--w1", "1"],
    "symbol": ["symbol", "--p", "2", "--r", "1", "--e", "2", "--n", "2",
               "--q", "2", "--a", "1", "--symbol", "{1+pi^2*(t1^1);pi}"],
    "shift-check": ["shift-check", *BASE, "--m", "5"],
    "selftest": ["selftest", "--cases", "2"],
}


@pytest.mark.parametrize("command", sorted(FORMAT_CASES))
def test_text_and_machine_formats_identical(capsys, command):
    outs = []
    for fmt in ("text", "machine"):
        code, out, _ = run_cli(capsys, *FORMAT_CASES[command], "--format", fmt)
        outs.append((code, out))
    assert outs[0] == outs[1]
    assert outs[0][1].startswith("format: grmk.v1\n")
