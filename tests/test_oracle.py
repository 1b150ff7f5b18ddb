import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from grmk.ffield import FqContext
from grmk.forms import DiffForm
from grmk.graded import CASE_II, CDVFParams, descriptor, is_zero
from grmk import oracle
from grmk.oracle import (EisensteinPoly, NotEisenstein, ParamsMismatch,
                         TooLarge, build_field, compare, filtered_basis,
                         filtered_unit_group, load_fixture, same_orders,
                         unit_group)
from reference import power_landing_ok, residue, teichmuller

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

Q2I = EisensteinPoly(2, 1, [2, 2, 1])
Q3Z = EisensteinPoly(3, 1, [3, 3, 1])
Q2S = EisensteinPoly(2, 1, [-2, 0, 1])
Q2Z8 = EisensteinPoly(2, 1, [2, 4, 6, 4, 1])
Q3Z9 = EisensteinPoly(3, 1, [3, 9, 18, 21, 15, 6, 1])
# unramified quadratic extensions of Q_2(i) and Q_3(zeta_3)
Q4I = EisensteinPoly(2, 2, [2, 2, 1])
Q9Z = EisensteinPoly(3, 2, [3, 3, 1])


class TestEisenstein:
    def test_valid(self):
        assert Q2I.e == 2
        assert EisensteinPoly(2, 2, [-2, 1]).e == 1

    def test_not_monic(self):
        with pytest.raises(NotEisenstein):
            EisensteinPoly(2, 1, [2, 2, 2])

    def test_constant_term_valuation(self):
        with pytest.raises(NotEisenstein):
            EisensteinPoly(2, 1, [4, 2, 1])
        with pytest.raises(NotEisenstein):
            EisensteinPoly(2, 1, [1, 2, 1])

    def test_middle_coefficient(self):
        with pytest.raises(NotEisenstein):
            EisensteinPoly(2, 1, [2, 1, 1])


class TestFieldContext:
    def test_pi_power_is_p_for_sqrt2(self):
        ctx = build_field(Q2S, 6)
        pi = ctx.pi()
        assert ctx.mul(pi, pi) == ctx.from_int(2)
        assert ctx.val(pi) == 1
        assert ctx.val(ctx.from_int(2)) == 2

    def test_a_residue_sqrt2(self):
        ctx = build_field(Q2S, 6)
        assert ctx.a_residue() == 1

    def test_a_residue_gaussian(self):
        ctx = build_field(Q2I, 7)
        assert ctx.a_residue() == 1

    def test_a_residue_zeta3(self):
        # the classical value p/pi^(p-1) = -1 mod pi
        ctx = build_field(Q3Z, 5)
        assert ctx.a_residue() == (-1) % 3

    def test_a_residue_identity(self):
        # independent check: p = a * pi^e up to higher valuation
        for poly, N in ((Q2I, 7), (Q3Z, 5), (Q2S, 6), (Q4I, 7), (Q9Z, 5),
                        (Q2Z8, 9), (Q3Z9, 13)):
            ctx = build_field(poly, N)
            a = ctx.a_residue()
            pi_e = ctx.pow(ctx.pi(), ctx.e)
            lhs = ctx.sub(ctx.from_int(poly.p),
                          ctx.mul(pi_e, ctx.lift(a)))
            assert ctx.val(lhs) > ctx.e

    def test_gaussian_unit_torsion(self):
        # 1 + pi = i in Q_2(i): its 4th power is exactly 1
        ctx = build_field(Q2I, 7)
        i_elem = ctx.add(ctx.one(), ctx.pi())
        assert ctx.pow(i_elem, 4) == ctx.one()
        assert ctx.pow(i_elem, 2) == ctx.from_int(-1)

    def test_teichmuller(self):
        ctx = build_field(Q3Z, 5)
        t = teichmuller(ctx, 2)
        assert ctx.pow(t, 2) == ctx.one()
        assert residue(ctx, t) == 2

    def test_teichmuller_is_multiplicative_f2(self):
        # checks the reduction by the lifted modulus against FqContext's tables
        for poly, N in ((Q4I, 7), (Q9Z, 5)):
            ctx = build_field(poly, N)
            fq = FqContext(ctx.p, ctx.f)
            teich = [teichmuller(ctx, code) for code in range(fq.q)]
            for a in range(fq.q):
                assert residue(ctx, teich[a]) == a
                for b in range(fq.q):
                    assert ctx.mul(teich[a], teich[b]) == teich[fq.mul(a, b)]

    def test_f2_unit_torsion(self):
        # 1 + pi = i in Q_4(i), as in Q_2(i)
        ctx = build_field(Q4I, 7)
        i_elem = ctx.add(ctx.one(), ctx.pi())
        assert ctx.pow(i_elem, 4) == ctx.one()
        assert ctx.pow(i_elem, 2) == ctx.from_int(-1)

    @pytest.mark.parametrize("poly", [Q2I, Q9Z], ids=["q2i", "q9z3"])
    def test_pow_matches_repeated_mul(self, poly):
        ctx = build_field(poly, 7)
        unit = ctx.add(ctx.lift(ctx.p ** ctx.f - 1), ctx.mul(ctx.pi(), ctx.lift(1)))
        # a tuple outside the canonical ranges must still give canonical powers
        raw = tuple(c - 5 * ctx.p ** 4 for c in unit)
        for x in (unit, ctx.pi(), raw):
            acc = ctx.one()
            for k in range(41):
                assert ctx.pow(x, k) == acc, (poly, x, k)
                acc = ctx.mul(acc, x)

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            build_field(Q2I, 1)


class TestUnitGroup:
    def test_levels_and_divisibility(self):
        # one order per level 1..N-1, each dividing |H_m / H_{m+1}| = p^f
        for poly, n, N in ((Q2I, 2, 7), (Q4I, 1, 5), (Q9Z, 1, 4)):
            orders = unit_group(build_field(poly, N), n)
            assert list(orders) == list(range(1, N))
            assert all(poly.p ** poly.f % order == 0 for order in orders.values())

    def test_cutoff_validation(self):
        ctx = build_field(Q2I, 6)
        with pytest.raises(ValueError):
            unit_group(ctx, 2)  # N = 6 is not beyond c_2 = 6

    def test_enumeration_cap(self):
        ctx = build_field(Q2I, 7)
        with pytest.raises(TooLarge):
            unit_group(ctx, 2, cap=32)

    def test_u1_image_order_gaussian(self):
        assert math.prod(unit_group(build_field(Q2I, 7), 2).values()) == 64

    def test_u1_image_order_zeta3(self):
        assert math.prod(unit_group(build_field(Q3Z, 5), 1).values()) == 27

    def test_power_landing(self):
        assert power_landing_ok(build_field(Q2I, 7), 2)
        assert power_landing_ok(build_field(Q3Z, 5), 1)
        assert power_landing_ok(build_field(EisensteinPoly(2, 2, [-2, 1]), 4), 1)


class TestGrOrders:
    def test_gaussian_profile(self):
        rep = unit_group(build_field(Q2I, 7), 2)
        assert [rep[m] for m in range(1, 7)] == [2] * 6

    def test_zeta3_profile(self):
        rep = unit_group(build_field(Q3Z, 5), 1)
        assert [rep[m] for m in range(1, 4)] == [3] * 3
        assert rep[4] == 1

    def test_telescoping(self):
        # the orders multiply to [H : P]; |P| is counted here on its own
        for poly, n, N in ((Q2I, 2, 8), (Q3Z, 1, 6), (Q2S, 1, 7)):
            ctx = build_field(poly, N)
            rep = unit_group(ctx, n)
            pi_pow = [ctx.pow(ctx.pi(), j) for j in range(1, N)]
            powers = set()
            for digits in itertools.product(range(ctx.p), repeat=N - 1):
                u = ctx.one()
                for c, pi_j in zip(digits, pi_pow):
                    u = ctx.add(u, ctx.mul(ctx.from_int(c), pi_j))
                powers.add(ctx.pow(u, ctx.p ** n))
            prod = math.prod(rep.values())
            assert prod == ctx.p ** (N - 1) // len(powers)

    def test_gr0_parts(self):
        ctx = build_field(Q2I, 7)
        params = CDVFParams(2, 1, 0, 2, 2, 1, "1")
        assert compare(ctx, params, unit_group(ctx, 2)).gr0_pi == 4

    def test_stabilization(self):
        for poly, n in ((Q2I, 2), (Q3Z, 1), (Q2S, 1)):
            e0 = poly.e // (poly.p - 1)
            c_n = n * poly.e + e0
            lo = unit_group(build_field(poly, c_n + 1), n)
            hi = unit_group(build_field(poly, c_n + 3), n)
            assert same_orders(lo, hi)

    def test_shift_shadow(self):
        # the level shift on the oracle side: order(gr^m at n) equals
        # order(gr^{m-e} at n-1) whenever p^(n-1)(p-1) | e
        rep2 = unit_group(build_field(Q2I, 9), 2)
        rep1 = unit_group(build_field(Q2I, 7), 1)
        for m in range(Q2I.e + 2 + 1, 7):
            assert rep2[m] == rep1[m - Q2I.e]

    def test_shift_shadow_surjectivity_only(self):
        # without a p^n-th root of unity only surjectivity is guaranteed:
        # order at level n is bounded by the shifted order at level n-1
        rep2 = unit_group(build_field(Q2S, 9), 2)
        rep1 = unit_group(build_field(Q2S, 7), 1)
        for m in range(Q2S.e + 2 + 1, 7):
            assert rep2[m] <= rep1[m - Q2S.e]
        # and the bound is strict somewhere for Q_2(sqrt 2): zeta_4 is absent
        assert any(rep2[m] < rep1[m - Q2S.e]
                   for m in range(Q2S.e + 2 + 1, 7))


class TestCompare:
    def test_gaussian_all_match(self):
        ctx = build_field(Q2I, 7)
        params = CDVFParams(2, 1, 0, 2, 2, 1, "1")
        assert compare(ctx, params, filtered_unit_group(ctx, params.n)).all_match

    def test_zeta3_all_match(self):
        ctx = build_field(Q3Z, 5)
        params = CDVFParams(3, 1, 0, 2, 1, 1, "2")
        assert compare(ctx, params, filtered_unit_group(ctx, params.n)).all_match

    def test_sqrt2_all_match(self):
        ctx = build_field(Q2S, 6)
        params = CDVFParams(2, 1, 0, 2, 1, 1, "1")
        assert compare(ctx, params, filtered_unit_group(ctx, params.n)).all_match

    def test_unramified_f2_all_match(self):
        ctx = build_field(EisensteinPoly(2, 2, [-2, 1]), 4)
        params = CDVFParams(2, 2, 0, 1, 1, 1, "1")
        assert compare(ctx, params, filtered_unit_group(ctx, params.n)).all_match

    @pytest.mark.parametrize("poly, a, u1_image", [(Q4I, "1", 32), (Q9Z, "2", 243)])
    def test_ramified_f2_all_match(self, poly, a, u1_image):
        # n = 1 at N = c_1 + 1; |U^1/(U^1)^p| = p^(n e f) * p^n, since mu_p is in K
        p, f, e = poly.p, poly.f, poly.e
        ctx = build_field(poly, e + e // (p - 1) + 1)
        table = unit_group(ctx, 1)
        assert compare(ctx, CDVFParams(p, f, 0, e, 1, 1, a), table).all_match
        assert math.prod(table.values()) == u1_image == p ** (e * f) * p

    def test_beyond_top_threshold_rows_are_one(self):
        ctx = build_field(Q2I, 10)
        params = CDVFParams(2, 1, 0, 2, 2, 1, "1")
        rows = compare(ctx, params, filtered_unit_group(ctx, params.n)).rows
        for m, oracle_order, engine_order, match in rows:
            if m > 6:
                assert oracle_order == engine_order == 1 and match

    def test_params_mismatch(self):
        ctx = build_field(Q2I, 7)
        table = filtered_unit_group(ctx, 2)
        with pytest.raises(ParamsMismatch):
            compare(ctx, CDVFParams(2, 1, 0, 4, 2, 1, "1"), table)
        with pytest.raises(ParamsMismatch):
            compare(ctx, CDVFParams(2, 1, 1, 2, 2, 1, "1"), table)


class TestFixtures:
    def test_load(self, fixtures_dir):
        poly = load_fixture(fixtures_dir / "q2_gaussian.field")
        assert (poly.p, poly.f, poly.coeffs) == (2, 1, [2, 2, 1])
        poly3 = load_fixture(fixtures_dir / "q3_zeta3.field")
        assert (poly3.p, poly3.coeffs) == (3, [3, 3, 1])
        polys = load_fixture(fixtures_dir / "q2_sqrt2.field")
        assert polys.coeffs == [-2, 0, 1]

    @pytest.mark.parametrize("key, text", [
        ("p", "p: x\ncoeffs: 2 2 1\n"),
        ("f", "p: 2\nf: 1.5\ncoeffs: 2 2 1\n"),
        ("coeffs", "p: 2\ncoeffs: 2 x 1\n"),
    ])
    def test_non_integer_names_the_fixture_and_the_key(self, capsys, tmp_path, key, text):
        from grmk import cli

        fixture = tmp_path / "bad.field"
        fixture.write_text(text, encoding="utf-8")
        line = next(line for line in text.splitlines() if line.startswith(f"{key}:"))
        message = f"fixture {fixture}: cannot read '{line}' as integers"
        with pytest.raises(ValueError) as exc:
            load_fixture(fixture)
        assert str(exc.value) == message
        code = cli.main(["verify-q1", "--fixture", str(fixture), "--n", "1"])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


# (id, field, largest n with mu_{p^n} in K): the fixture fields and the
# unramified quadratic extensions the benchmark adds
ORACLE_FIELDS = [("q2i", Q2I, 2), ("q3z3", Q3Z, 1), ("q2s", Q2S, 1),
                 ("q2z8", Q2Z8, 3), ("q3z9", Q3Z9, 2), ("q4i", Q4I, 2),
                 ("q9z3", Q9Z, 1)]
# every (field, n, N) the benchmark runs has |H| <= 2^16; the three larger
# ones brute force can enumerate (q2z8 n = 3 at N = 18, 19 and q3z9 n = 1
# at N = 12) would add about 20 s of enumeration
ENUMERABLE = 1 << 16


def _c_n(poly, n):
    return n * poly.e + poly.e // (poly.p - 1)


def _valid_levels(poly):
    # the construction condition p^(n-1)(p-1) | e
    n = 1
    while poly.e % (poly.p ** (n - 1) * (poly.p - 1)) == 0:
        yield n
        n += 1


FILTERED_CASES = [
    pytest.param(poly, n, N, n <= mu_top, id=f"{name}-n{n}-N{N}")
    for name, poly, mu_top in ORACLE_FIELDS
    for n in _valid_levels(poly)
    for N in range(_c_n(poly, n) + 1, _c_n(poly, n) + 4)
    if poly.p ** (poly.f * (N - 1)) <= ENUMERABLE]


def _phi25_shifted():
    # Phi_25(x + 1) = sum_{i<5} (x + 1)^(5i), Eisenstein at 5
    return [sum(math.comb(5 * i, k) for i in range(5)) for k in range(21)]


class TestFilteredOracle:
    @pytest.mark.parametrize("poly, n, N, has_mu", FILTERED_CASES)
    def test_matches_brute_force(self, poly, n, N, has_mu):
        ctx = build_field(poly, N)
        table = filtered_unit_group(ctx, n)
        brute = unit_group(ctx, n)
        # with |P_N| = 1 the orders and the counts |P_m| determine each
        # other, so equal orders mean equal counts and equal |P|
        assert table == brute
        # |U^1/(U^1)^{p^n}| = p^{nef} p^n holds exactly when mu_{p^n} is in
        # K; Q_2(sqrt 2) at n = 2 gives 32, not 64
        total = math.prod(table.values())
        assert (total == poly.p ** (n * poly.e * poly.f + n)) == has_mu

    @pytest.mark.parametrize("poly, N", [(Q2I, 7), (Q2S, 6), (Q3Z, 5),
                                         (Q4I, 5), (Q9Z, 4)],
                             ids=["q2i", "q2s", "q3z3", "q4i", "q9z3"])
    def test_basis_counts_the_generated_subgroup(self, poly, N):
        # the subgroup found by closure under multiplication, level by level
        ctx = build_field(poly, N)
        rng = random.Random(N * poly.p + poly.f)
        pi_pow = [ctx.pow(ctx.pi(), j) for j in range(N)]
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                u = ctx.one()
                for j in range(1, N):
                    u = ctx.add(u, ctx.mul(ctx.lift(rng.randrange(ctx.p ** ctx.f)), pi_pow[j]))
                gens.append(u)
            group, frontier = {ctx.one()}, [ctx.one()]
            while frontier:
                new = {ctx.mul(x, g) for x in frontier for g in gens} - group
                group |= new
                frontier = list(new)
            basis = filtered_basis(ctx, gens)
            levels = [pos // ctx.f for pos in basis]
            assert len(group) == ctx.p ** len(basis)
            for m in range(1, N + 1):
                inside = sum(1 for x in group if ctx.val(ctx.sub(x, ctx.one())) >= m)
                assert inside == ctx.p ** sum(1 for k in levels if k >= m), (gens, m)

    def test_basis_positions_and_leads(self):
        # each element sits at its own position, with lead 1 there
        ctx = build_field(Q9Z, 6)
        gens = [ctx.pow(ctx.add(ctx.one(), ctx.mul(ctx.lift(code), ctx.pi())), 3)
                for code in range(1, 9)]
        for pos, b in filtered_basis(ctx, gens).items():
            assert oracle._lead(ctx, b) == (pos, 1)

    def test_step_that_does_not_move_up_raises(self, monkeypatch):
        # a lead stuck at one position would loop for ever; it must fail
        calls = []

        def stuck(ctx, x):
            calls.append(x)
            if len(calls) > 100:
                raise RuntimeError("the elimination loops")
            return ctx.f, 1

        monkeypatch.setattr(oracle, "_lead", stuck)
        ctx = build_field(Q2I, 7)
        with pytest.raises(AssertionError):
            filtered_basis(ctx, [ctx.add(ctx.one(), ctx.pi())])

    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="c_n"):
            filtered_unit_group(build_field(Q2I, 6), 2)

    @pytest.mark.parametrize("poly, n", [
        (Q3Z9, 2),
        (EisensteinPoly(5, 1, _phi25_shifted()), 1),
        (EisensteinPoly(5, 1, _phi25_shifted()), 2),
    ], ids=["q3z9-n2", "q5z25-n1", "q5z25-n2"])
    def test_reach_past_brute_force(self, poly, n):
        # brute force would enumerate 3^17 and 5^27, 5^47 units here
        ctx = build_field(poly, _c_n(poly, n) + 3)
        params = CDVFParams(poly.p, poly.f, 0, poly.e, n, 1, str(ctx.a_residue()))
        rep = compare(ctx, params, filtered_unit_group(ctx, params.n))
        assert rep.all_match
        assert math.prod(o for _, o, _, _ in rep.rows) == poly.p ** (n * poly.e * poly.f + n)

    def test_builds_no_residue_field_tables(self, monkeypatch):
        # FieldContext reads only the stored modulus of GF(p^f)
        field = SRC.parent / "bench" / "fields" / "q9_zeta3.field"
        poly = load_fixture(field)
        a = build_field(poly, 4).a_residue()
        params = CDVFParams(poly.p, poly.f, 0, poly.e, 1, 1, str(a))

        def refuse(self, p, f=1):
            raise AssertionError("the oracle built an FqContext")

        monkeypatch.setattr(FqContext, "__init__", refuse)
        # the cutoffs c_n + 1 and c_n + 3 of verify-q1 at n = 1
        for N in (4, 6):
            ctx = build_field(poly, N)
            assert compare(ctx, params, filtered_unit_group(ctx, 1)).all_match

    def test_runs_without_the_forms_engine(self, fixtures_dir):
        # grmk/__init__ imports the engine, so the package is a bare stub
        # here and grmk.oracle is loaded from its path on its own
        fixture = fixtures_dir / "q3_zeta9.field"
        script = (
            "import sys, types\n"
            "sys.modules['grmk.forms'] = sys.modules['grmk.graded'] = None\n"
            "pkg = types.ModuleType('grmk')\n"
            f"pkg.__path__ = [{str(SRC / 'grmk')!r}]\n"
            "sys.modules['grmk'] = pkg\n"
            "from grmk import oracle\n"
            f"ctx = oracle.build_field(oracle.load_fixture({str(fixture)!r}), 18)\n"
            "t = oracle.filtered_unit_group(ctx, 2)\n"
            "print(sorted(t.items()))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        table = filtered_unit_group(build_field(load_fixture(fixture), 18), 2)
        assert proc.stdout == f"{sorted(table.items())}\n"


# (fixture, n): the five fixtures up to the n of tests/test_acceptance.py,
# and the two fields with f = 2, whose Case II levels have proper kernels
ELEMENT_CASES = [("q2_gaussian.field", 1), ("q2_gaussian.field", 2),
                 ("q3_zeta3.field", 1), ("q2_sqrt2.field", 1),
                 ("q2_zeta8.field", 1), ("q2_zeta8.field", 2), ("q2_zeta8.field", 3),
                 ("q3_zeta9.field", 1), ("q3_zeta9.field", 2),
                 ("q4_i.field", 1), ("q9_zeta3.field", 1)]


def _kernels(poly, n):
    """{m: (oracle, engine)} for 1 <= m <= c_n: the codes u != 0 with
    1 + [u] pi^m in P U^{m+1}, and those with (u, 0) zero in gr^m at q = 1.

    P is the subgroup of p^n-th powers, spanned by the p^n-th powers of
    1 + lift(p^t) pi^j (oracle.filtered_basis).  An element of level m lies
    in P U^{m+1} when its lead at level m clears against the basis elements
    at level m, by the loop filtered_basis inserts with.
    """
    c_n = _c_n(poly, n)
    ctx = build_field(poly, c_n + 1)
    p, f = ctx.p, ctx.f
    one, pi = ctx.one(), ctx.pi()
    pi_pow = [one]
    for _ in range(c_n):
        pi_pow.append(ctx.mul(pi_pow[-1], pi))
    gens = [ctx.pow(ctx.add(one, ctx.mul(ctx.lift(p ** t), pi_pow[j])), p ** n)
            for j in range(1, c_n + 1) for t in range(f)]
    basis = filtered_basis(ctx, gens)
    params = CDVFParams(p, f, 0, poly.e, n, 1, str(ctx.a_residue()))
    kctx = params.kctx
    out = {}
    for m in range(1, c_n + 1):
        desc = descriptor(params, m)
        ours, engine = [], []
        for u in range(1, p ** f):
            x = ctx.add(one, ctx.mul(ctx.lift(u), pi_pow[m]))
            lead = oracle._lead(ctx, x)
            while lead is not None and lead[0] // f == m and lead[0] in basis:
                pos, c = lead
                x = ctx.mul(x, ctx.pow(basis[pos], p - c))
                lead = oracle._lead(ctx, x)
            if lead is None or lead[0] // f > m:
                ours.append(u)
            if is_zero(desc.element(DiffForm.from_poly(kctx.monomial((), u)))):
                engine.append(u)
        out[m] = ours, engine
    return out


class TestElementsAtRZero:
    """The engine against the oracle element by element at r = 0: equal
    orders can hide different subgroups, equal kernels cannot."""

    @pytest.mark.parametrize("name, n", ELEMENT_CASES,
                             ids=[f"{name.split('.')[0]}-n{n}" for name, n in ELEMENT_CASES])
    def test_kernels_match(self, fixtures_dir, name, n):
        kernels = _kernels(load_fixture(fixtures_dir / name), n)
        assert {m: o for m, (o, e) in kernels.items() if o != e} == {}

    def test_case_ii_kernels_are_proper(self, fixtures_dir):
        # at f = 2 a Case II level of order p has a kernel of p - 1 nonzero
        # codes out of p^2 - 1: the check sees which ones
        for name, m, want in (("q4_i.field", 4, [1]), ("q9_zeta3.field", 3, [4, 8])):
            poly = load_fixture(fixtures_dir / name)
            params = CDVFParams(poly.p, poly.f, 0, poly.e, 1, 1, "1")
            assert descriptor(params, m).tag == CASE_II
            assert _kernels(poly, 1)[m] == (want, want), name
