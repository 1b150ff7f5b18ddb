import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from grmk.ffield import (EXP_LIMIT, ContextMismatch, ExponentOverflow,
                         KContext, LaurentPoly, ParseError, format_element,
                         parse_element)
from grmk.forms import (B_KIND, Z_KIND, DiffForm, NotClosed, cartier, d,
                        format_form, from_slice_vectors, in_B, in_Z,
                        inv_cartier, inv_cartier_iter, is_closed,
                        koszul_matrix, koszul_slice, nf_mod, parse_form,
                        slice_vectors, subsets_of, subspace_basis, wedge)
from grmk.linalg import RowSpace, rank_of
from grmk.selftest import rand_element, rand_form
from reference import d_terms, element_times_form, gauss_jordan


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


def ctx(p=2, f=1, r=3):
    return KContext(p, f, r)


def dlog(k, *indices):
    return DiffForm(k, len(indices), {tuple(sorted(indices)): k.one()})


class TestConstructor:
    def test_repeated_index_is_rejected(self):
        k = ctx(r=3)
        # dlog t1 ^ dlog t1 = 0 is no basis element
        with pytest.raises(ValueError, match="strictly increasing"):
            DiffForm(k, 2, {(1, 1): k.var(2)})

    def test_coefficient_from_another_field_is_rejected(self):
        k = ctx(p=2, f=1, r=2)
        other = ctx(p=2, f=2, r=2).monomial((1, 0), 3)
        with pytest.raises(ContextMismatch):
            DiffForm(k, 1, {(1,): other})

    def test_no_term_outside_degrees_0_to_r(self):
        # Omega^q is zero above r and below 0: a term there is an error, not
        # silently 0, and only the empty form is built
        k = ctx(r=1)
        with pytest.raises(ValueError, match=r"^subset \(1, 2\) out of range 1\.\.1$"):
            DiffForm(k, 2, {(1, 2): k.var(1)})
        with pytest.raises(ValueError, match=r"^subset \(7, 9\) out of range 1\.\.1$"):
            DiffForm(k, 2, {(7, 9): k.one()})
        with pytest.raises(ValueError, match="strictly increasing -1-subset"):
            DiffForm(k, -1, {(): k.one()})
        for q in (-1, 2, 3):
            assert DiffForm(k, q).is_zero() and DiffForm(k, q, {}).is_zero()
        with pytest.raises(ValueError, match=r"out of range 1\.\.1"):
            parse_form(k, 2, "t1^1*dlog[1,2]")


class TestWedge:
    def test_alternating(self):
        k = ctx()
        w = dlog(k, 1)
        assert wedge(w, w).is_zero()

    def test_antisymmetry(self):
        k = ctx()
        assert wedge(dlog(k, 2), dlog(k, 1)) == -wedge(dlog(k, 1), dlog(k, 2))

    def test_hand_expansion(self):
        k = ctx()
        t1, t2 = k.var(1), k.var(2)
        w1 = DiffForm(k, 1, {(1,): t1})
        w2 = DiffForm(k, 1, {(2,): t2})
        assert wedge(w1, w2) == DiffForm(k, 2, {(1, 2): t1 * t2})

    def test_degree_overflow_is_zero(self):
        k = ctx(r=1)
        w = wedge(dlog(k, 1), dlog(k, 1))
        assert w.is_zero() and w.q == 2
        # the zero result keeps the degree q1 + q2, also past r + 1
        assert wedge(DiffForm.zero(k, 3), dlog(k, 1)) == DiffForm.zero(k, 4)

    def test_zero_form_product_is_the_element_product(self):
        # a product by an element of k is the wedge with a 0-form: the same
        # value and degree as the term-by-term product, zero forms included
        rng = random.Random(30)
        for p, f in FIELDS:
            for r in range(4):
                k = KContext(p, f, r)
                for q in range(-1, r + 2):
                    for _ in range(4):
                        a = rand_element(rng, k)
                        for w in (rand_form(rng, k, q), DiffForm.zero(k, q)):
                            got = wedge(DiffForm.from_poly(a), w)
                            assert got == element_times_form(a, w), (a, w)
                            assert got.q == q


class TestD:
    def test_dd_zero_random(self):
        rng = random.Random(5)
        for _ in range(100):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            w = rand_form(rng, k, rng.randint(0, 3))
            assert d(d(w)).is_zero()

    def test_matches_the_monomial_reference(self):
        # the selftest fields, r = 0..4 and q = -1..r+1, against a monomial
        # loop that counts its own signs
        rng = random.Random(24)
        seen = set()
        nonzero = 0
        for _ in range(2500):
            p, f = rng.choice(FIELDS)
            k = ctx(p, f, rng.randint(0, 4))
            q = rng.randint(-1, k.r + 1)
            w = rand_form(rng, k, q)
            dw = d(w)
            assert dw.q == q + 1 and dw.terms == d_terms(w), format_form(w)
            seen.add((p, f, k.r, q))
            nonzero += bool(dw)
        assert {(p, f, r) for p, f, r, _ in seen} == {
            (p, f, r) for p, f in FIELDS for r in range(5)}
        assert {(r, q) for *_, r, q in seen} == {
            (r, q) for r in range(5) for q in range(-1, r + 2)}
        assert nonzero > 300

    def test_p_divisible_exponents_die(self):
        k = ctx()
        assert d(DiffForm.from_poly(k.monomial((2, 0, 0)))).is_zero()

    def test_hand_expansion(self):
        # d(t1 t2 dlog t2) = t1 t2 dlog t1 ^ dlog t2 (the t2-term collapses)
        k = ctx()
        t1t2 = k.monomial((1, 1, 0))
        w = DiffForm(k, 1, {(2,): t1t2})
        assert d(w) == DiffForm(k, 2, {(1, 2): t1t2})


class TestCartier:
    def test_inverse_cartier_monomial(self):
        k = ctx()
        t1 = k.var(1)
        w = DiffForm(k, 1, {(1,): t1})
        assert inv_cartier(w) == DiffForm(k, 1, {(1,): t1 ** 2})

    def test_inverse_cartier_zero(self):
        k = ctx()
        assert inv_cartier(DiffForm.zero(k, 1)).is_zero()

    def test_inverse_cartier_output_closed(self):
        rng = random.Random(6)
        for _ in range(100):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            w = rand_form(rng, k, rng.randint(0, 3))
            assert is_closed(inv_cartier(w))

    def test_cartier_monomial(self):
        k = ctx()
        assert cartier(DiffForm(k, 1, {(1,): k.monomial((2, 0, 0))})) == \
            DiffForm(k, 1, {(1,): k.var(1)})

    def test_cartier_kills_exact(self):
        rng = random.Random(7)
        for _ in range(100):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(1, 3))
            eta = rand_form(rng, k, rng.randint(0, 2))
            assert cartier(d(eta)).is_zero()

    def test_cartier_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            w = rand_form(rng, k, rng.randint(0, 3))
            assert cartier(inv_cartier(w)) == w

    def test_cartier_requires_closed(self):
        k = ctx()
        with pytest.raises(NotClosed):
            cartier(DiffForm.from_poly(k.var(1)))


class TestTowers:
    def test_z0_everything(self):
        k = ctx()
        assert in_Z(DiffForm.from_poly(k.var(1)), 0)

    def test_z1_examples(self):
        k = ctx()
        # d(t1) != 0 so the 0-form t1 is not a cocycle; t1^p is
        assert not in_Z(DiffForm.from_poly(k.var(1)), 1)
        assert in_Z(DiffForm.from_poly(k.monomial((2, 0, 0))), 1)
        # a 1-form with d != 0 fails; t1^p dlog t1 is closed
        assert not in_Z(DiffForm(k, 1, {(2,): k.var(1)}), 1)
        assert in_Z(DiffForm(k, 1, {(1,): k.monomial((2, 0, 0))}), 1)

    def test_t1_dlog_t1_is_exact_hence_cocycle(self):
        # t1 dlog t1 = d(t1): the dlog[1]-component of d dies by alternation,
        # so this form is closed (and exact) despite its non-p-divisible degree
        k = ctx()
        w = DiffForm(k, 1, {(1,): k.var(1)})
        assert w == d(DiffForm.from_poly(k.var(1)))
        assert in_Z(w, 1)
        assert in_B(w, 1)

    def test_z_members_by_iterated_inverse_cartier(self):
        rng = random.Random(9)
        for _ in range(50):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            s = rng.randint(0, 3)
            w = inv_cartier_iter(rand_form(rng, k, rng.randint(0, 3)), s)
            assert in_Z(w, s)

    def test_b_examples(self):
        rng = random.Random(10)
        k = ctx()
        for _ in range(50):
            eta = rand_form(rng, k, 1)
            assert in_B(d(eta), 1)
        assert in_B(DiffForm.zero(k, 1), 0)
        assert not in_B(DiffForm(k, 1, {(1,): k.monomial((2, 0, 0))}), 1)

    def test_b2_from_generators(self):
        rng = random.Random(11)
        k = ctx()
        for _ in range(30):
            eta1 = rand_form(rng, k, 1)
            eta2 = rand_form(rng, k, 1)
            w = inv_cartier(d(eta1)) + d(eta2)
            assert in_B(w, 2)

    def test_chain_inclusions(self):
        rng = random.Random(12)
        for _ in range(60):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(1, 3))
            q = rng.randint(0, 3)
            s = rng.randint(1, 3)
            b = DiffForm.zero(k, q)
            for j in range(s):
                b = b + inv_cartier_iter(d(rand_form(rng, k, q - 1)), j)
            assert in_B(b, s)
            assert in_B(b, s + 1)
            assert in_Z(b, s)
            assert in_Z(b, max(s - 1, 0))


class TestSubspaceBasis:
    def test_b1_empty_on_p_divisible_degrees(self):
        k = ctx()
        assert subspace_basis(k, (2, 0, 4), 1, B_KIND, 1) == []

    def test_koszul_exactness_brute_force(self):
        # rank(wedge-in) + rank(wedge-out) spans the whole slice for
        # alpha not divisible by p, so B_1 and Z_1 slices coincide
        rng = random.Random(13)
        for _ in range(60):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(1, 3))
            alpha = tuple(rng.randint(-6, 6) for _ in range(k.r))
            if not any(x % k.p for x in alpha):
                continue
            for q in range(0, k.r + 1):
                rank_in = rank_of(k.fq, koszul_matrix(k, alpha, q))
                rank_out = rank_of(k.fq, koszul_matrix(k, alpha, q + 1))
                assert rank_in + rank_out == len(subsets_of(k.r, q))
                assert len(subspace_basis(k, alpha, q, B_KIND, 1)) == rank_in
                assert len(subspace_basis(k, alpha, q, Z_KIND, 1)) == rank_in

    @pytest.mark.parametrize("p,f,rmax", [(2, 1, 5), (2, 2, 5), (3, 1, 4),
                                          (3, 2, 4), (5, 1, 4), (5, 2, 4)])
    def test_koszul_rows_are_the_rref_of_the_columns(self, p, f, rmax):
        # the rows koszul_slice reads off the columns, with no elimination,
        # are the reduced echelon form of the columns' span, in pivot order,
        # at every alpha mod p (alpha = 0 included) and every degree
        for r in range(rmax + 1):
            k = ctx(p, f, r)
            for alpha in itertools.product(range(p), repeat=r):
                for q in range(r + 1):
                    cols, rows, _ = koszul_slice(k, alpha, q)
                    assert cols == koszul_matrix(k, alpha, q)
                    rref = gauss_jordan(k.fq, cols, len(subsets_of(r, q)))
                    assert rows == [rref[piv] for piv in sorted(rref)], (r, alpha, q)

    def test_r1_full_slice(self):
        k = ctx(r=1)
        basis = subspace_basis(k, (2,), 1, Z_KIND, 1)
        assert len(basis) == 1

    def test_higher_s_pulls_back(self):
        k = ctx(p=2, r=2)
        # Z_2 at degree (4, 0) pulls back from Z_1 at (2, 0), then (1, 0)
        assert len(subspace_basis(k, (4, 0), 1, Z_KIND, 2)) == \
            len(subspace_basis(k, (1, 0), 1, Z_KIND, 0))

    @staticmethod
    def _random_slices(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            k = ctx(*rng.choice(FIELDS), r=rng.randint(0, 3))
            alpha = tuple(rng.choice([0, 1, -1, 2, 3, -4, 6, 9]) for _ in range(k.r))
            yield (k, alpha, rng.randint(0, k.r), rng.choice([B_KIND, Z_KIND]),
                   rng.randint(0, 3))

    def test_rows_are_reduced_echelon(self):
        for k, alpha, q, kind, s in self._random_slices(15, 300):
            rows = subspace_basis(k, alpha, q, kind, s)
            pivots = [min(row) for row in rows]
            assert pivots == sorted(set(pivots))
            for row, piv in zip(rows, pivots):
                assert row[piv] == 1
                assert all(0 <= c < len(subsets_of(k.r, q)) and v
                           for c, v in row.items())
                assert all(c not in row for c in pivots if c != piv)

    def test_frobenius_lift_is_entrywise(self):
        for k, alpha, q, kind, s in self._random_slices(16, 300):
            if s == 0:
                continue
            lifted = subspace_basis(k, tuple(k.p * x for x in alpha), q, kind, s)
            base = subspace_basis(k, alpha, q, kind, s - 1)
            assert lifted == [{c: k.fq.frob(v) for c, v in row.items()}
                              for row in base]


    def test_rows_are_fresh(self):
        # mutating returned rows must not reach the context's memo
        k = ctx(p=3, r=3)
        alpha = (1, 2, 0)
        first = subspace_basis(k, alpha, 2, Z_KIND, 1)
        want = [dict(row) for row in first]
        for row in first:
            row[0] = 2
            row.pop(min(row), None)
        first.clear()
        assert subspace_basis(k, alpha, 2, Z_KIND, 1) == want
        lifted = subspace_basis(k, (3, 6, 0), 2, Z_KIND, 2)
        for row in lifted:
            row.clear()
        assert subspace_basis(k, (3, 6, 0), 2, Z_KIND, 2) == want

    def test_koszul_slice_depends_on_alpha_mod_p(self):
        rng = random.Random(19)
        for p, r in [(2, 3), (3, 2), (5, 1)]:
            k = ctx(p=p, r=r)
            for _ in range(40):
                alpha = tuple(rng.randint(-9, 9) for _ in range(r))
                if not any(x % p for x in alpha):
                    continue
                q = rng.randint(0, r)
                shifted = tuple(x + p * rng.randint(-3, 3) for x in alpha)
                fresh = ctx(p=p, r=r)
                assert subspace_basis(k, shifted, q, B_KIND, 1) == \
                    subspace_basis(fresh, alpha, q, Z_KIND, 2)
            assert len(k.koszul_memo) <= p ** r * (r + 1)

    def test_subsets_of_is_a_shared_tuple(self):
        assert subsets_of(3, 2) == ((1, 2), (1, 3), (2, 3))
        assert subsets_of(3, 2) is subsets_of(3, 2)
        assert subsets_of(2, 3) == () and subsets_of(2, -1) == ()


class TestNfMod:
    def test_exact_forms_die_mod_b1(self):
        rng = random.Random(14)
        k = ctx()
        for _ in range(40):
            assert nf_mod(d(rand_form(rng, k, 1)), B_KIND, 1).is_zero()

    def test_b0_is_zero_subgroup(self):
        rng = random.Random(15)
        k = ctx()
        for _ in range(20):
            w = rand_form(rng, k, 2)
            assert nf_mod(w, B_KIND, 0) == w

    def test_idempotent_coset(self):
        rng = random.Random(16)
        for _ in range(60):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            q = rng.randint(0, 3)
            s = rng.randint(0, 2)
            w = rand_form(rng, k, q)
            red = nf_mod(w, B_KIND, s)
            assert nf_mod(red - w, B_KIND, s).is_zero()
            assert nf_mod(red, B_KIND, s) == red

    def test_matches_elimination_over_the_tower_rows(self):
        # the homotopy normal form against RowSpace reduction by the rows of
        # subspace_basis, slice by slice; p-power degrees reach the towers
        rng = random.Random(18)
        for _ in range(200):
            k = ctx(*rng.choice(FIELDS), r=rng.randint(0, 4))
            q = rng.randint(0, k.r)
            s = rng.randint(0, 3)
            w = rand_form(rng, k, q) + inv_cartier_iter(rand_form(rng, k, q),
                                                        rng.randint(1, 2))
            for kind in (B_KIND, Z_KIND):
                want = {}
                for alpha, vec in slice_vectors(w).items():
                    space = RowSpace(k.fq)
                    for row in subspace_basis(k, alpha, q, kind, s):
                        space.add(row)
                    want[alpha] = space.reduce(vec)
                assert nf_mod(w, kind, s) == from_slice_vectors(k, q, want), (w, kind, s)

    def test_zero_iff_membership(self):
        rng = random.Random(17)
        for _ in range(80):
            k = ctx(p=rng.choice([2, 3]), r=rng.randint(0, 3))
            q = rng.randint(0, 3)
            s = rng.randint(0, 2)
            w = rand_form(rng, k, q)
            assert nf_mod(w, B_KIND, s).is_zero() == in_B(w, s)
            assert nf_mod(w, Z_KIND, s).is_zero() == in_Z(w, s)


class TestGrammar:
    def test_round_trip(self):
        rng = random.Random(18)
        for _ in range(60):
            k = ctx(p=rng.choice([2, 3]), f=1, r=rng.randint(0, 3))
            q = rng.randint(0, 3)
            w = rand_form(rng, k, q)
            text = format_form(w)
            assert parse_form(k, q, text) == w
            assert format_form(parse_form(k, q, text)) == text

    def test_repeated_and_cancelling_terms(self):
        # the parser sums its terms in one dict; the reference is the sum of
        # the one-term parses by DiffForm.__add__
        rng = random.Random(32)
        for p, f in [(2, 1), (3, 1), (2, 2)]:
            k = KContext(p, f, 3)
            for q in (0, 1, 2):
                pool = [format_form(DiffForm.monomial(
                            k, (rng.randint(-1, 1), 0, rng.randint(0, 2)),
                            rng.choice(subsets_of(3, q)), rng.randrange(1, p ** f)))
                        for _ in range(3)]
                for _ in range(20):
                    terms = [rng.choice(pool) for _ in range(rng.randint(1, 2 * p + 2))]
                    want = DiffForm.zero(k, q)
                    for term in terms:
                        want = want + parse_form(k, q, term)
                    assert parse_form(k, q, "+".join(terms)) == want, terms
        k = ctx()
        assert parse_form(k, 1, "t1^1*dlog[2]+t1^1*dlog[2]").is_zero()
        assert parse_form(k, 1, "t1^1*dlog[2]+1*dlog[3]+t1^1*dlog[2]") == dlog(k, 3)

    def test_checks_survive_cancellation(self):
        from grmk.ffield import ParseError
        k = ctx(p=2, r=2)
        big = EXP_LIMIT + 1
        with pytest.raises(ExponentOverflow):
            parse_form(k, 1, f"t1^{big}*dlog[1]+t1^{big}*dlog[1]")
        # a subset out of range is an error even with a zero coefficient
        with pytest.raises(ValueError, match="out of range"):
            parse_form(k, 1, "0*dlog[3]+1*dlog[1]")
        with pytest.raises(ParseError):
            parse_form(k, 1, "1*dlog[1]+1*dlog[1]+1")

    def test_one_element_parse_per_subset(self, monkeypatch):
        # the element texts of one subset are summed by one parse_element
        calls = []

        def spy(kctx, text):
            calls.append(text)
            return parse_element(kctx, text)

        monkeypatch.setattr("grmk.forms.parse_element", spy)
        k = ctx()
        w = parse_form(k, 1, "t1^1*dlog[1]+t2^1*dlog[2]+1*dlog[1]+t1^1*dlog[3]+t1^1*dlog[1]")
        assert sorted(calls) == ["t1^1", "t1^1+1+t1^1", "t2^1"]
        assert w == dlog(k, 1) + parse_form(k, 1, "t2^1*dlog[2]+t1^1*dlog[3]")

    def test_parse_degree_mismatch(self):
        from grmk.ffield import ParseError
        k = ctx()
        with pytest.raises(ParseError):
            parse_form(k, 2, "t1^1*dlog[1]")

    @pytest.mark.parametrize("text", ["dlog[1]", "t1^1dlog[1]", "1*dlog[2]+dlog[1]"])
    def test_dlog_without_an_element_before_it(self, text):
        # the grammar is ELEMENT*dlog[...]; the ']' is there, so saying it
        # is missing would point at the wrong part of the term
        from grmk.ffield import ParseError
        k = ctx()
        with pytest.raises(ParseError, match=r"needs an element and '\*' before it") as exc:
            parse_form(k, 1, text)
        assert "missing ']'" not in str(exc.value)


@st.composite
def degree_and_indices(draw):
    """(p, r, q, indices, alpha, code) with q in -1..r+2 and indices either any
    short list in -1..r+2 or a sorted subset of 1..r+2 (valid or not)."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 3))
    q = draw(st.integers(-1, r + 2))
    pool = st.integers(-1, r + 2)
    indices = draw(st.one_of(
        st.lists(pool, max_size=r + 2),
        st.sets(st.integers(1, r + 2), max_size=r + 2).map(sorted)))
    alpha = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    code = draw(st.integers(1, p - 1))
    return p, r, q, tuple(indices), tuple(alpha), code


class TestDegreeRange:
    @settings(max_examples=300, deadline=None)
    @given(degree_and_indices())
    @example((2, 1, 2, (1, 2), (1,), 1))
    @example((2, 1, 3, (1, 2, 3), (0,), 1))
    @example((3, 2, -1, (), (0, 0), 2))
    @example((2, 0, 0, (), (), 1))
    def test_terms_accepted_exactly_when_indices_fit(self, case):
        # one checked path at every degree: a term is a form iff its indices
        # strictly increase within 1..r and number q; DiffForm and the parser
        # agree, and parse o format is the identity on what they accept
        p, r, q, indices, alpha, code = case
        k = KContext(p, 1, r)
        poly = k.monomial(alpha, code)
        fits = (len(indices) == q and list(indices) == sorted(set(indices))
                and all(1 <= i <= r for i in indices))
        text = f"{format_element(poly)}*dlog[{','.join(map(str, indices))}]"
        if not fits:
            with pytest.raises(ValueError):
                DiffForm(k, q, {indices: poly})
            with pytest.raises((ValueError, ParseError)):
                parse_form(k, q, text)
            return
        w = DiffForm(k, q, {indices: poly})
        assert parse_form(k, q, text) == w
        assert parse_form(k, q, format_form(w)) == w
        assert format_form(parse_form(k, q, format_form(w))) == format_form(w)

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_zero_parses_at_every_degree(self, r):
        k = KContext(2, 1, r)
        for q in range(-1, r + 3):
            assert parse_form(k, q, "0") == DiffForm.zero(k, q)


class TestExponentBound:
    def test_iterated_inverse_cartier_overflows_checked(self):
        k = ctx(p=2, r=1)
        w = DiffForm.from_poly(k.monomial((1,)))
        with pytest.raises(ExponentOverflow):
            inv_cartier_iter(w, 50)  # exponent would reach 2^50

    @pytest.mark.parametrize("sign", [1, -1])
    def test_wedge_past_the_limit_raises(self, sign):
        k = ctx(p=2, r=2)
        edge = k.monomial((sign * EXP_LIMIT, 0))
        step = k.monomial((sign, 0))
        w = DiffForm(k, 1, {(1,): edge})
        # at the limit itself nothing is raised
        assert wedge(DiffForm.from_poly(k.one()), w) == w
        with pytest.raises(ExponentOverflow):
            wedge(DiffForm.from_poly(step), w)
        with pytest.raises(ExponentOverflow):
            wedge(w, DiffForm(k, 1, {(2,): step}))
