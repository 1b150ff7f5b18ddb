"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact: group orders, dimensions and report bytes
are integers and strings, never floats.
"""

import math
import random
import time

from grmk import cli
from grmk.graded import (CASE_III, CDVFParams, descriptor,
                         graded_order, level_shift_consistency)
from grmk.oracle import build_field, load_fixture, same_orders, unit_group
from grmk.selftest import PROPERTIES

SEED = 7

GOLDEN_Q2I = [2, 2, 2, 2, 2, 2]       # orders of gr^m, m = 1..6, total 64
GOLDEN_Q3Z = [3, 3, 3]                # orders of gr^m, m = 1..3, total 27

FIXTURE_SPECS = [
    ("q2_gaussian.field", 2),
    ("q3_zeta3.field", 1),
    ("q2_sqrt2.field", 1),
]


def _fixture_params(poly, n, ctx):
    a_code = ctx.a_residue()
    return CDVFParams(poly.p, poly.f, 0, poly.e, n, 1, str(a_code))


def _c_n(poly, n):
    return n * poly.e + poly.e // (poly.p - 1)


def test_criterion_1_oracle_equivalence_q2_gaussian(fixtures_dir):
    start = time.monotonic()
    poly = load_fixture(fixtures_dir / "q2_gaussian.field")
    ctx = build_field(poly, _c_n(poly, 2) + 1)
    rep = unit_group(ctx, 2)
    oracle_orders = [rep[m] for m in range(1, 7)]
    assert oracle_orders == GOLDEN_Q2I
    assert math.prod(rep.values()) == 64
    params = _fixture_params(poly, 2, ctx)
    engine_orders = [graded_order(descriptor(params, m)) for m in range(1, 7)]
    assert engine_orders == oracle_orders
    for m in range(7, 11):
        assert graded_order(descriptor(params, m)) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: Q_2(i) oracle equivalence, orders {oracle_orders}, "
          f"total 64, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence_q3_zeta3(fixtures_dir):
    start = time.monotonic()
    poly = load_fixture(fixtures_dir / "q3_zeta3.field")
    ctx = build_field(poly, _c_n(poly, 1) + 1)
    rep = unit_group(ctx, 1)
    oracle_orders = [rep[m] for m in range(1, 4)]
    assert oracle_orders == GOLDEN_Q3Z
    assert math.prod(rep.values()) == 27
    params = _fixture_params(poly, 1, ctx)
    engine_orders = [graded_order(descriptor(params, m)) for m in range(1, 4)]
    assert engine_orders == oracle_orders
    for m in range(4, 8):
        assert graded_order(descriptor(params, m)) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: Q_3(zeta_3) oracle equivalence, orders "
          f"{oracle_orders}, total 27, {elapsed:.2f}s")


def test_criterion_3_vanishing_beyond_top_threshold(fixtures_dir):
    checked = []
    for name, n in FIXTURE_SPECS:
        poly = load_fixture(fixtures_dir / name)
        c_n = _c_n(poly, n)
        ctx = build_field(poly, c_n + 5)
        rep = unit_group(ctx, n)
        params = _fixture_params(poly, n, ctx)
        for m in range(c_n + 1, c_n + 5):
            assert rep[m] == 1, (name, m, rep[m])
            assert descriptor(params, m).tag == CASE_III
        checked.append(name)
    print(f"PASS criterion 3: vanishing beyond c_n on {checked}")


def test_criterion_4_stabilization(fixtures_dir):
    for name, n in FIXTURE_SPECS:
        poly = load_fixture(fixtures_dir / name)
        c_n = _c_n(poly, n)
        rep_lo = unit_group(build_field(poly, c_n + 1), n)
        rep_hi = unit_group(build_field(poly, c_n + 3), n)
        assert same_orders(rep_lo, rep_hi), name
        for m in rep_lo:
            assert rep_lo[m] == rep_hi[m], (name, m)
    print("PASS criterion 4: oracle reports stable from N = c_n+1 to c_n+3")


def test_criterion_5_forms_property_suite():
    cases = 500
    names = [n for n, _ in PROPERTIES if n.startswith(("forms.", "ffield."))]
    failures = []
    for name, fn in PROPERTIES:
        if name not in names:
            continue
        rng = random.Random((SEED, name).__repr__())
        try:
            fn(rng, cases)
        except AssertionError as exc:
            failures.append((name, str(exc)))
    assert not failures, failures
    print(f"PASS criterion 5: {len(names)} form/field properties x {cases} cases, "
          f"zero failures")


def test_criterion_6_graded_quotient_suite():
    cases = 200
    names = [n for n, _ in PROPERTIES if n.startswith("graded.")]
    failures = []
    for name, fn in PROPERTIES:
        if name not in names:
            continue
        rng = random.Random((SEED, name).__repr__())
        try:
            fn(rng, cases)
        except AssertionError as exc:
            failures.append((name, str(exc)))
    assert not failures, failures
    print(f"PASS criterion 6: {len(names)} graded properties x {cases} cases, "
          f"zero failures")


def test_criterion_7_shift_consistency_grid():
    grid = [(2, 2, 2), (2, 4, 2), (3, 6, 2)]
    count = 0
    for p, e, n in grid:
        for r in (0, 1):
            for q in (1, 2):
                params = CDVFParams(p, 1, r, e, n, q, "1")
                lo = params.e + params.e0 + 1
                hi = params.threshold(params.n)
                for m in range(lo, hi + 1):
                    rep = level_shift_consistency(params, m)
                    assert rep.consistent, (
                        p, e, n, r, q, m, rep.structure_note,
                        rep.dim_mismatches, rep.order_high, rep.order_low)
                    if r == 0:
                        assert rep.order_high == rep.order_low
                    count += 1
    print(f"PASS criterion 7: level-shift consistency on {count} grid points")


def test_criterion_8_determinism(capsys, fixtures_dir):
    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    code1, out1 = run("selftest", "--seed", "7", "--cases", "20",
                      "--format", "machine")
    code2, out2 = run("selftest", "--seed", "7", "--cases", "20",
                      "--format", "machine")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()

    fixture = str(fixtures_dir / "q2_gaussian.field")
    code3, out3 = run("verify-q1", "--fixture", fixture, "--n", "2",
                      "--format", "machine")
    code4, out4 = run("verify-q1", "--fixture", fixture, "--n", "2",
                      "--format", "machine")
    assert code3 == code4 == 0
    assert out3.encode() == out4.encode()
    with capsys.disabled():
        print("\nPASS criterion 8: byte-identical machine output across reruns")


# fields with mu_{p^n} inside K for n up to the given level
MU_FIXTURES = [
    ("q2_gaussian.field", 2),
    ("q3_zeta3.field", 1),
    ("q2_zeta8.field", 3),
    ("q3_zeta9.field", 2),
]


def _global_orders(poly, n, a_code):
    """prod_m |gr^m K_q/p^n| over all levels, for q = 1 and q = 2 at r = 0."""
    out = []
    for q in (1, 2):
        params = CDVFParams(poly.p, poly.f, 0, poly.e, n, q, str(a_code))
        out.append(math.prod(graded_order(descriptor(params, m))
                             for m in range(1, _c_n(poly, n) + 1)))
    return out


def test_criterion_9_closed_form_global_identities(fixtures_dir):
    # with mu_{p^n} in K: |U^1/(U^1)^{p^n}| = p^{nef} p^n for K_1, and
    # K_2(K)/p^n = mu_{p^n} (Moore) for K_2; no brute force involved
    checked = []
    for name, top in MU_FIXTURES:
        poly = load_fixture(fixtures_dir / name)
        a_code = build_field(poly, _c_n(poly, 1) + 1).a_residue()
        for n in range(1, top + 1):
            k1, k2 = _global_orders(poly, n, a_code)
            assert k1 == poly.p ** (n * poly.e * poly.f) * poly.p ** n, (name, n, k1)
            assert k2 == poly.p ** n, (name, n, k2)
            checked.append((name, n))
    # Q_3(zeta_9) at n = 2 is past the brute-force enumeration cap
    poly = load_fixture(fixtures_dir / "q3_zeta9.field")
    assert _global_orders(poly, 2, 2) == [4_782_969, 9]
    print(f"PASS criterion 9: global K_1 and K_2 identities on {checked}")
