import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from grmk.ffield import (DEFAULT_MODULI, EXP_LIMIT, ContextMismatch,
                         ExponentOverflow, FqContext, KContext, LaurentPoly,
                         ParseError, format_element, modulus, parse_element,
                         residue_field)
from grmk.forms import DiffForm, NotClosed, cartier, inv_cartier, is_closed


def ctx(p=2, f=1, r=2):
    return KContext(p, f, r)


class TestFqContext:
    def test_prime_field_tables(self):
        fq = FqContext(5)
        assert fq.mul(2, 3) == 1
        assert fq.add(4, 3) == 2
        assert fq.inv(2) == 3

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), *sorted(DEFAULT_MODULI)])
    def test_frobenius_bijection(self, p, f):
        fq = FqContext(p, f)
        seen = set()
        for a in fq.elements():
            b = fq.frob(a)
            assert fq.frob_inv(b) == a
            seen.add(b)
        assert len(seen) == fq.q

    def test_qth_power_is_identity(self):
        fq = FqContext(3, 2)
        for a in fq.elements():
            assert fq.pow_int(a, fq.q) == a

    def test_generator_is_primitive(self):
        fq = FqContext(2, 3)
        orbit = {fq.gpow(i) for i in range(fq.q - 1)}
        assert len(orbit) == fq.q - 1

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            FqContext(6)

    def test_shared_context_raises_as_a_fresh_one(self):
        # residue_field caches KContext, so a bad (p, f, r) raises the same
        # error through it
        for bad in ((6, 1, 0), (2, 0, 1), (2, 1, -1), (7, 3, 0)):
            with pytest.raises(ValueError) as fresh:
                KContext(*bad)
            with pytest.raises(ValueError, match=re.escape(str(fresh.value))):
                residue_field(*bad)
        assert residue_field(2, 2, 1) is residue_field(2, 2, 1) == KContext(2, 2, 1)

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (7, 1), *sorted(DEFAULT_MODULI)])
    def test_tables_match_the_stored_modulus(self, p, f):
        # every sum, negative, difference and product of codes, and the order
        # of the generator, checked against digit-wise arithmetic mod p and
        # polynomial arithmetic modulo the stored modulus done here
        fq = FqContext(p, f)
        modulus = DEFAULT_MODULI.get((p, f), [0, 1])
        assert fq.modulus == modulus and fq.q == p ** f

        def digits(a):
            return [a // p ** i % p for i in range(f)]

        def encode(ds):
            return sum(c % p * p ** i for i, c in enumerate(ds))

        def poly_mul(a, b):
            da, db = digits(a), digits(b)
            prod = [0] * (2 * f - 1)
            for i in range(f):
                for j in range(f):
                    prod[i + j] += da[i] * db[j]
            for i in range(2 * f - 2, f - 1, -1):
                for j in range(f + 1):
                    prod[i - f + j] -= prod[i] * modulus[j]
            return encode(prod[:f])

        for a in fq.elements():
            assert fq.neg(a) == encode([-x for x in digits(a)])
            for b in fq.elements():
                assert fq.add(a, b) == encode([x + y for x, y in zip(digits(a), digits(b))])
                assert fq.sub(a, b) == encode([x - y for x, y in zip(digits(a), digits(b))])
                assert fq.mul(a, b) == poly_mul(a, b)
        # the generator has order q - 1, so the modulus is irreducible
        x, order = fq.gen, 1
        while x != 1:
            x, order = poly_mul(x, fq.gen), order + 1
        assert order == fq.q - 1

    @pytest.mark.parametrize("p,f,modulus", [(2, 2, [1, 0, 1]), (3, 2, [2, 0, 1]),
                                             (2, 4, [1, 0, 0, 0, 1])],
                             ids=["2-2", "3-2", "2-4"])
    def test_reducible_modulus_is_rejected(self, monkeypatch, p, f, modulus):
        # x^2 + 1 = (x + 1)^2 over GF(2): the powers of x + 1 reach 0, which
        # is not a unit, so no code generates the units
        monkeypatch.setitem(DEFAULT_MODULI, (p, f), modulus)
        with pytest.raises(ValueError, match="not irreducible"):
            FqContext(p, f)

    @pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (7, 1), *sorted(DEFAULT_MODULI)])
    def test_codes_below_p_are_the_prime_field(self, p, f):
        # Case II eliminates base-p digits with the residue field's own tables
        fq = FqContext(p, f)
        for a in range(p):
            for b in range(p):
                assert fq.add(a, b) == (a + b) % p
                assert fq.sub(a, b) == (a - b) % p
                assert fq.mul(a, b) == a * b % p
                assert max(fq.add(a, b), fq.sub(a, b), fq.mul(a, b)) < p
            if a:
                assert fq.inv(a) == pow(a, -1, p) and fq.inv(a) < p

    def test_modulus_checks_without_tables(self):
        assert modulus(3, 1) == [0, 1] and modulus(2, 2) == DEFAULT_MODULI[2, 2]
        for (p, f), text in (((4, 1), "p = 4 is not prime"), ((2, 0), "f must be >= 1"),
                             ((2, 5), r"no default modulus stored for \(p, f\) = \(2, 5\)")):
            with pytest.raises(ValueError, match=f"^{text}$"):
                modulus(p, f)
            with pytest.raises(ValueError, match=f"^{text}$"):
                FqContext(p, f)


class TestLaurentPoly:
    def test_add_identity(self):
        k = ctx()
        f = k.var(1) + k.var(2)
        assert f + k.zero() == f

    def test_characteristic(self):
        k = ctx()
        t1 = k.var(1)
        assert (t1 + t1).is_zero()

    def test_add_hand_arithmetic_f3(self):
        # (t1^2 + t2) + t1^2 = 2 t1^2 + t2 over F_3
        k = ctx(p=3)
        t1sq = k.monomial((2, 0))
        t2 = k.var(2)
        total = (t1sq + t2) + t1sq
        assert total == k.monomial((2, 0), 2) + t2

    def test_mul_identity_and_inverse_monomial(self):
        k = ctx()
        f = k.var(1) + k.var(2) * k.var(2)
        assert f * k.one() == f
        assert k.monomial((-1, 0)) * k.var(1) == k.one()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_freshmans_dream_by_expansion(self, p):
        k = ctx(p=p)
        t1, t2 = k.var(1), k.var(2)
        lhs = (t1 + t2) ** p
        # independent oracle: binomial expansion with integer coefficients mod p
        rhs = k.zero()
        for j in range(p + 1):
            coeff = math.comb(p, j) % p
            if coeff:
                rhs = rhs + k.monomial((p - j, j), coeff)
        assert lhs == rhs
        assert lhs == t1 ** p + t2 ** p

    # the Frobenius and the p-th root of k are C^{-1} and C on 0-forms, and
    # the p-th powers are the closed 0-forms

    def test_pth_root_examples(self):
        k = ctx()
        t1 = DiffForm.from_poly(k.var(1))
        assert cartier(DiffForm.from_poly(k.var(1) ** 2)) == t1
        one = DiffForm.from_poly(k.one())
        assert cartier(one) == one
        with pytest.raises(NotClosed):
            cartier(t1)

    def test_pth_root_with_coefficient(self):
        k = KContext(2, 2, 2)
        c = 2  # the modulus root in GF(4)
        f = k.monomial((2, 4), c)
        g = cartier(DiffForm.from_poly(f))
        root = k.monomial((1, 2), k.fq.frob_inv(c))
        assert g == DiffForm.from_poly(root)
        assert root ** 2 == f
        assert inv_cartier(g) == DiffForm.from_poly(f)

    def test_is_pth_power(self):
        k = ctx(p=3)
        assert is_closed(DiffForm.from_poly(k.monomial((3, -6))))
        assert not is_closed(DiffForm.from_poly(k.monomial((3, -5))))

    def test_frobenius_additive_random(self):
        rng = random.Random(1)
        k = ctx(p=3, r=2)
        for _ in range(100):
            terms_f = {(rng.randint(-6, 6), rng.randint(-6, 6)): rng.randint(1, 2)
                       for _ in range(3)}
            terms_g = {(rng.randint(-6, 6), rng.randint(-6, 6)): rng.randint(1, 2)
                       for _ in range(3)}
            f, g = LaurentPoly(k, terms_f), LaurentPoly(k, terms_g)
            frob_f, frob_g = (inv_cartier(DiffForm.from_poly(x)) for x in (f, g))
            assert inv_cartier(DiffForm.from_poly(f + g)) == frob_f + frob_g
            assert frob_f == DiffForm.from_poly(f ** 3)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            ctx(p=2).one() + ctx(p=3).one()


@st.composite
def laurent_pairs(draw):
    k = ctx(p=3, r=2)
    def poly():
        n = draw(st.integers(0, 3))
        terms = {}
        for _ in range(n):
            alpha = (draw(st.integers(-6, 6)), draw(st.integers(-6, 6)))
            terms[alpha] = draw(st.integers(1, 2))
        return LaurentPoly(k, terms)
    return poly(), poly(), poly()


class TestRingAxioms:
    @settings(max_examples=200, derandomize=True)
    @given(laurent_pairs())
    def test_ring_axioms(self, triple):
        f, g, h = triple
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


class TestGrammar:
    def test_round_trip_canonical(self):
        k = ctx(p=3)
        f = k.monomial((2, -1), 2) + k.var(2) + k.one()
        text = format_element(f)
        assert parse_element(k, text) == f
        assert format_element(parse_element(k, text)) == text

    def test_round_trip_gf4(self):
        k = KContext(2, 2, 1)
        f = k.monomial((3,), 2) + k.monomial((0,), 3)
        text = format_element(f)
        assert parse_element(k, text) == f
        assert format_element(parse_element(k, text)) == text

    def test_parse_examples(self):
        k = ctx(p=5)
        assert parse_element(k, "0").is_zero()
        assert parse_element(k, "7") == k.scalar(2)
        assert parse_element(k, "2*t1^3*t2^-2") == k.monomial((3, -2), 2)
        assert parse_element(k, "t1^1*t1^2") == k.monomial((3, 0))

    def test_repeated_and_cancelling_terms(self):
        # the parser sums its terms in one dict; the reference is the sum of
        # the one-term parses by LaurentPoly.__add__
        rng = random.Random(31)
        for p, f in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            k = KContext(p, f, 2)
            for _ in range(40):
                pool = [f"{c}*t1^{a}*t2^{b}" if c < p else f"g^{c}*t1^{a}*t2^{b}"
                        for c, a, b in ((rng.randrange(1, p ** f), rng.randint(-1, 1),
                                         rng.randint(0, 1)) for _ in range(3))]
                terms = [rng.choice(pool) for _ in range(rng.randint(1, 2 * p + 2))]
                want = k.zero()
                for term in terms:
                    want = want + parse_element(k, term)
                assert parse_element(k, "+".join(terms)) == want, terms
        k = ctx(p=3)
        assert parse_element(k, "t1^1+2*t1^1").is_zero()
        assert parse_element(k, "t1^1+t2^1+2*t1^1+t1^1") == k.var(1) + k.var(2)
        assert parse_element(k, "1+1+1+t2^-1") == k.monomial((0, -1))

    def test_cancelled_term_still_checks_its_exponent(self):
        k = ctx(p=2)
        big = EXP_LIMIT + 1
        with pytest.raises(ExponentOverflow):
            parse_element(k, f"t1^{big}+t1^{big}")
        # a zero coefficient makes no term, so it is not checked
        assert parse_element(k, f"0*t1^{big}+t2^1") == k.var(2)

    def test_parse_errors(self):
        k = ctx()
        with pytest.raises(ParseError):
            parse_element(k, "t3^1")
        with pytest.raises(ParseError):
            parse_element(k, "t1^")
        with pytest.raises(ParseError):
            parse_element(k, "")
