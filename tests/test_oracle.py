import math

import pytest

from grmk.graded import CDVFParams
from grmk.oracle import (EisensteinPoly, NotEisenstein, ParamsMismatch,
                         TooLarge, build_field, compare, gr_orders,
                         load_fixture, power_landing_ok, unit_group)

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

    def test_unit_inverse(self):
        ctx = build_field(Q2I, 7)
        u = ctx.add(ctx.one(), ctx.pi())
        inv = ctx.unit_inv(u)
        assert ctx.mul(u, inv) == ctx.one()

    def test_gaussian_unit_torsion(self):
        # 1 + pi = i in Q_2(i): its 4th power is exactly 1
        ctx = build_field(Q2I, 7)
        i_elem = ctx.add(ctx.one(), ctx.pi())
        assert ctx.pow(i_elem, 4) == ctx.one()
        assert ctx.pow(i_elem, 2) == ctx.from_int(-1)

    def test_teichmuller(self):
        ctx = build_field(Q3Z, 5)
        t = ctx.teichmuller(2)
        assert ctx.pow(t, 2) == ctx.one()
        assert ctx.residue(t) == 2

    def test_teichmuller_is_multiplicative_f2(self):
        # checks the reduction by the lifted modulus against FqContext's tables
        for poly, N in ((Q4I, 7), (Q9Z, 5)):
            ctx = build_field(poly, N)
            teich = [ctx.teichmuller(code) for code in range(ctx.fq.q)]
            for a in range(ctx.fq.q):
                assert ctx.residue(teich[a]) == a
                for b in range(ctx.fq.q):
                    assert ctx.mul(teich[a], teich[b]) == teich[ctx.fq.mul(a, b)]

    def test_f2_unit_torsion(self):
        # 1 + pi = i in Q_4(i), as in Q_2(i)
        ctx = build_field(Q4I, 7)
        i_elem = ctx.add(ctx.one(), ctx.pi())
        assert ctx.pow(i_elem, 4) == ctx.one()
        assert ctx.pow(i_elem, 2) == ctx.from_int(-1)

    @pytest.mark.parametrize("poly", [Q2I, Q9Z], ids=["q2i", "q9z3"])
    def test_pow_matches_repeated_mul(self, poly):
        ctx = build_field(poly, 7)
        unit = ctx.add(ctx.lift(ctx.fq.q - 1), ctx.mul(ctx.pi(), ctx.lift(1)))
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
    def test_h_size(self):
        ctx = build_field(Q2I, 7)
        table = unit_group(ctx, 2)
        assert table.h_size() == 2 ** 6

    def test_cutoff_validation(self):
        ctx = build_field(Q2I, 6)
        with pytest.raises(ValueError):
            unit_group(ctx, 2)  # N = 6 is not beyond c_2 = 6

    def test_enumeration_cap(self):
        ctx = build_field(Q2I, 7)
        with pytest.raises(TooLarge):
            unit_group(ctx, 2, cap=32)

    def test_u1_image_order_gaussian(self):
        table = unit_group(build_field(Q2I, 7), 2)
        rep = gr_orders(table)
        assert rep.total_u1_image == 64

    def test_u1_image_order_zeta3(self):
        table = unit_group(build_field(Q3Z, 5), 1)
        rep = gr_orders(table)
        assert rep.total_u1_image == 27

    def test_power_landing(self):
        assert power_landing_ok(build_field(Q2I, 7), 2)
        assert power_landing_ok(build_field(Q3Z, 5), 1)
        assert power_landing_ok(build_field(EisensteinPoly(2, 2, [-2, 1]), 4), 1)


class TestGrOrders:
    def test_gaussian_profile(self):
        rep = gr_orders(unit_group(build_field(Q2I, 7), 2))
        assert [rep.orders[m] for m in range(1, 7)] == [2] * 6

    def test_zeta3_profile(self):
        rep = gr_orders(unit_group(build_field(Q3Z, 5), 1))
        assert [rep.orders[m] for m in range(1, 4)] == [3] * 3
        assert rep.orders[4] == 1

    def test_telescoping(self):
        for poly, n, N in ((Q2I, 2, 8), (Q3Z, 1, 6), (Q2S, 1, 7)):
            rep = gr_orders(unit_group(build_field(poly, N), n))
            prod = math.prod(rep.orders.values())
            assert prod == rep.total_u1_image

    def test_gr0_parts(self):
        rep = gr_orders(unit_group(build_field(Q2I, 7), 2))
        assert rep.gr0_pi == 4
        assert rep.gr0_teich == 1

    def test_stabilization(self):
        for poly, n in ((Q2I, 2), (Q3Z, 1), (Q2S, 1)):
            e0 = poly.e // (poly.p - 1)
            c_n = n * poly.e + e0
            lo = gr_orders(unit_group(build_field(poly, c_n + 1), n))
            hi = gr_orders(unit_group(build_field(poly, c_n + 3), n))
            assert lo.same_orders(hi)

    def test_shift_shadow(self):
        # the level shift on the oracle side: order(gr^m at n) equals
        # order(gr^{m-e} at n-1) whenever p^(n-1)(p-1) | e
        rep2 = gr_orders(unit_group(build_field(Q2I, 9), 2))
        rep1 = gr_orders(unit_group(build_field(Q2I, 7), 1))
        for m in range(Q2I.e + 2 + 1, 7):
            assert rep2.orders[m] == rep1.orders[m - Q2I.e]

    def test_shift_shadow_surjectivity_only(self):
        # without a p^n-th root of unity only surjectivity is guaranteed:
        # order at level n is bounded by the shifted order at level n-1
        rep2 = gr_orders(unit_group(build_field(Q2S, 9), 2))
        rep1 = gr_orders(unit_group(build_field(Q2S, 7), 1))
        for m in range(Q2S.e + 2 + 1, 7):
            assert rep2.orders[m] <= rep1.orders[m - Q2S.e]
        # and the bound is strict somewhere for Q_2(sqrt 2): zeta_4 is absent
        assert any(rep2.orders[m] < rep1.orders[m - Q2S.e]
                   for m in range(Q2S.e + 2 + 1, 7))


class TestCompare:
    def test_gaussian_all_match(self):
        ctx = build_field(Q2I, 7)
        params = CDVFParams(2, 1, 0, 2, 2, 1, "1")
        assert compare(ctx, params).all_match

    def test_zeta3_all_match(self):
        ctx = build_field(Q3Z, 5)
        params = CDVFParams(3, 1, 0, 2, 1, 1, "2")
        assert compare(ctx, params).all_match

    def test_sqrt2_all_match(self):
        ctx = build_field(Q2S, 6)
        params = CDVFParams(2, 1, 0, 2, 1, 1, "1")
        assert compare(ctx, params).all_match

    def test_unramified_f2_all_match(self):
        ctx = build_field(EisensteinPoly(2, 2, [-2, 1]), 4)
        params = CDVFParams(2, 2, 0, 1, 1, 1, "1")
        assert compare(ctx, params).all_match

    @pytest.mark.parametrize("poly, a, u1_image", [(Q4I, "1", 32), (Q9Z, "2", 243)])
    def test_ramified_f2_all_match(self, poly, a, u1_image):
        # n = 1 at N = c_1 + 1; |U^1/(U^1)^p| = p^(n e f) * p^n, since mu_p is in K
        p, f, e = poly.p, poly.f, poly.e
        ctx = build_field(poly, e + e // (p - 1) + 1)
        table = unit_group(ctx, 1)
        assert compare(ctx, CDVFParams(p, f, 0, e, 1, 1, a), table).all_match
        assert gr_orders(table).total_u1_image == u1_image == p ** (e * f) * p

    def test_beyond_top_threshold_rows_are_one(self):
        ctx = build_field(Q2I, 10)
        params = CDVFParams(2, 1, 0, 2, 2, 1, "1")
        rows = compare(ctx, params).rows
        for m, oracle_order, engine_order, match in rows:
            if m > 6:
                assert oracle_order == engine_order == 1 and match

    def test_params_mismatch(self):
        ctx = build_field(Q2I, 7)
        with pytest.raises(ParamsMismatch):
            compare(ctx, CDVFParams(2, 1, 0, 4, 2, 1, "1"))
        with pytest.raises(ParamsMismatch):
            compare(ctx, CDVFParams(2, 1, 1, 2, 2, 1, "1"))


class TestFixtures:
    def test_load(self, fixtures_dir):
        poly = load_fixture(fixtures_dir / "q2_gaussian.field")
        assert (poly.p, poly.f, poly.coeffs) == (2, 1, [2, 2, 1])
        poly3 = load_fixture(fixtures_dir / "q3_zeta3.field")
        assert (poly3.p, poly3.coeffs) == (3, [3, 3, 1])
        polys = load_fixture(fixtures_dir / "q2_sqrt2.field")
        assert polys.coeffs == [-2, 0, 1]
