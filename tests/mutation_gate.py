"""Mutation gate: every recorded mutant of the program must fail its check.

    python3 tests/mutation_gate.py

A mutant is (name, file under src/, exact old snippet, new snippet, pytest
selector).  For each one the gate copies src/, tests/ and fixtures/ to a
temporary directory, replaces the snippet in the copy of src/ and runs the
selector there with PYTHONPATH on that copy (the copied tests/conftest.py
puts the copied src/ first on sys.path, so the copy is the one imported).
The selector must fail, and every selector must first pass on an unmutated
copy.  Every snippet must occur exactly once in its file,
checked before anything runs: code that moved makes the gate fail loudly,
and its mutant is updated with it.

Each selector names the check that says why the mutant is wrong, rather
than tests/test_output_digest.py, which only says that an output changed.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MUTANTS = [
    ("theta-sign-parity", "grmk/graded.py",
     "if params.q % 2 == 1:", "if params.q % 2 == 0:",
     "tests/test_symbol_relations.py::test_steinberg_relation_vanishes"),
    ("prime-slot-sign", "grmk/graded.py",
     "((q - 2) - prime_pos[0]) % 2 == 1", "((q - 2) - prime_pos[0]) % 2 == 0",
     "tests/test_symbol_relations.py::test_steinberg_relation_vanishes"),
    ("koszul-pivot-last-index", "grmk/forms.py",
     "i0 = next((i for i, x in enumerate(alpha, 1) if x % kctx.p), None)",
     "i0 = next((i for i, x in reversed(list(enumerate(alpha, 1))) if x % kctx.p), None)",
     "tests/test_forms.py::TestSubspaceBasis::test_rows_are_reduced_echelon"),
    ("koszul-homotopy-sign", "grmk/forms.py",
     "signed[pos % 2]", "signed[(pos + 1) % 2]",
     "tests/test_forms.py::TestSubspaceBasis::test_koszul_rows_are_the_rref_of_the_columns"),
    ("inv-cartier-without-frobenius", "grmk/forms.py",
     "out[subset, alpha] = frob(c)", "out[subset, alpha] = c",
     "tests/test_ffield.py::TestLaurentPoly::test_pth_root_with_coefficient"),
    ("trailing-strict-order", "grmk/graded.py",
     "<= key", "< key",
     "tests/test_graded.py::TestTablesByClass::test_trailing_slices_match_ball_positions"),
    ("trailing-multiples-from-minus-radius", "grmk/graded.py",
     "multiples = range(-(radius // p) * p, radius + 1, p)",
     "multiples = range(-radius, radius + 1, p)",
     "tests/test_graded.py::TestTablesByClass::test_trailing_slices_match_ball_positions"),
    ("closure-index-reversed", "grmk/graded.py",
     "for x in beta:", "for x in reversed(beta):",
     "tests/test_graded.py::TestDimValues::test_closure_past_small_boxes"),
    ("brute-force-drops-a-power", "grmk/oracle.py",
     "        p_elems.add(ctx.pow(u, pn))\n",
     "        p_elems.add(ctx.pow(u, pn))\n    p_elems.discard(max(p_elems - {one}))\n",
     "tests/test_oracle.py::TestFilteredOracle::test_matches_brute_force"),
    ("trailing-first-shift-only", "grmk/graded.py",
     "for delta in params.a.terms):", "for delta in sorted(params.a.terms)[:1]):",
     "tests/test_symmetries.py::test_case_ii_shell_sums_are_invariant"),
    ("case-ii-minus-a", "grmk/graded.py",
     "fq.mul(a_code, root)", "fq.mul(fq.neg(a_code), root)",
     "tests/test_oracle.py::TestElementsAtRZero"),
    ("closure-memo-key-without-z-level", "grmk/graded.py",
     "memo_key = (params.q, desc.z_level, frozenset(params.a.terms.items()))",
     "memo_key = (params.q, frozenset(params.a.terms.items()))",
     "tests/test_graded.py::TestTablesByClass::test_warm_tables_match_cold_at_every_case_ii_level"),
    ("closure-memo-key-without-a", "grmk/graded.py",
     "memo_key = (params.q, desc.z_level, frozenset(params.a.terms.items()))",
     "memo_key = (params.q, desc.z_level)",
     "tests/test_graded.py::TestTablesByClass::test_warm_tables_match_cold_for_two_values_of_a"),
    ("closure-memo-hit-skips-the-cap", "grmk/graded.py",
     "if (2 * radius + 1) ** r > cap:", "if memo_key not in memo and (2 * radius + 1) ** r > cap:",
     "tests/test_graded.py::TestTablesByClass::test_window_cap_bounds_only_the_ball"),
    ("probe-appends-to-the-shared-default", "grmk/cli.py",
     "values.setdefault(dest, list(defaults[dest] or ())).append(value)",
     "values.setdefault(dest, defaults[dest]).append(value)",
     "tests/test_cli.py::TestShiftCheckProbes::test_probe_list_is_not_kept_between_runs"),
    ("fast-path-takes-dash-values", "grmk/cli.py",
     'if flag not in flags or not text or text[0] == "-":', "if flag not in flags or not text:",
     "tests/test_cli.py::TestFlagIndex::test_same_namespace_as_argparse"),
    ("fast-path-without-required-check", "grmk/cli.py",
     "if not required <= values.keys():", "if False:",
     "tests/test_cli.py::TestFlagIndex::test_same_namespace_as_argparse"),
]


def check_snippets():
    """The mutants whose snippet does not occur exactly once, with the count."""
    bad = []
    for name, path, old, _new, _selector in MUTANTS:
        count = (SRC / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append((name, count))
    return bad


def run_on_copy(selectors, path=None, old=None, new=None):
    """pytest's exit code for the selectors on a copy of the repository's
    src/, tests/ and fixtures/, with old replaced by new in the file at path
    under src/ when one is given."""
    with tempfile.TemporaryDirectory(prefix="grmk-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if path is not None:
            target = copy / "src" / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600).returncode


def main():
    bad = check_snippets()
    for name, count in bad:
        print(f"{name}: snippet occurs {count} times, not once")
    if bad:
        return 1
    # the selectors must pass on the unmutated copy, or a failure below
    # would say nothing about the mutants
    selectors = sorted({m[4] for m in MUTANTS})
    if run_on_copy(selectors) != 0:
        print("the selectors fail on the unmutated program")
        return 1
    survivors = []
    for name, path, old, new, selector in MUTANTS:
        start = time.monotonic()
        # exit 1 is a failing test; anything else (an interrupted run, a
        # usage error, no tests collected) is no verdict on the mutant
        ok = run_on_copy([selector], path, old, new) == 1
        print(f"{name}: {'killed' if ok else 'SURVIVED'} by {selector} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if not ok:
            survivors.append(name)
    print(f"mutants: {len(MUTANTS)} killed: {len(MUTANTS) - len(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
