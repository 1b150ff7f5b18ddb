import random
from collections import Counter

import pytest

from grmk import cli, forms
from grmk.ffield import KContext, LaurentPoly
from grmk.forms import (B_KIND, Z_KIND, DiffForm, NotClosed, d, format_form,
                        inv_cartier_iter, nf_mod, parse_form, subsets_of,
                        subspace_basis)
from grmk.graded import (CASE_I, CASE_II, CASE_III, DEFAULT_WINDOW_CAP,
                         PRIME, CDVFParams, GrElement,
                         CoefficientNotIntegral, MalformedSymbol,
                         OutOfRangeLevel, PreconditionViolated, SymbolExpr,
                         WindowOverflow, _ac_closure, _ac_closure_entries,
                         _ac_relation_space, _ac_window, _degree_box,
                         _flatten_form, _shift_bound, _slice_fp_dim,
                         _theta_relation_space,
                         descriptor, dim_values, format_symbol, graded_order,
                         is_zero,
                         level_shift_consistency, make_z_tower_element,
                         one_plus_ac, parse_symbol, reduce, symbol_to_forms,
                         theta, vp)
from grmk.linalg import RowSpace
from grmk.reports import render_consistency, render_descriptor
from grmk.selftest import rand_form
from reference import dim_rows, reduce_by_slices, slice_quotient


def params_q2i(q=1, r=0):
    return CDVFParams(2, 1, r, 2, 2, q, "1")


class TestParams:
    def test_e0_must_be_integral(self):
        with pytest.raises(ValueError):
            CDVFParams(3, 1, 0, 3, 1, 1, "1")

    def test_zeta_divisibility_enforced(self):
        # p^(n-1)(p-1) | e fails for p=2, e=2, n=3
        with pytest.raises(ValueError):
            CDVFParams(2, 1, 0, 2, 3, 1, "1")

    def test_a_nonzero(self):
        with pytest.raises(ValueError):
            CDVFParams(2, 1, 0, 2, 2, 1, "0")

    def test_thresholds(self):
        P = params_q2i()
        assert [P.threshold(i) for i in range(3)] == [0, 4, 6]

    def test_with_level_shares_the_residue_field(self):
        P = CDVFParams(2, 2, 1, 4, 3, 2, "g^1*t1^1")
        low = P.with_level(1)
        assert low.kctx is P.kctx and low.a is P.a
        assert (low.n, P.n) == (1, 3)
        assert repr(low) == repr(CDVFParams(2, 2, 1, 4, 1, 2, "g^1*t1^1"))

    def test_one_residue_field_per_p_f_r(self):
        # equal (p, f, r) share one context whatever (e, n, q, a) are; a
        # different f or r, or a plain KContext, gets its own
        P = CDVFParams(3, 1, 2, 6, 2, 2, "1")
        assert CDVFParams(3, 1, 2, 18, 3, 3, "t1^1").kctx is P.kctx
        assert CDVFParams(3, 1, 2, 2, 1, 1, "1+t2^-1").kctx is P.kctx
        for other in (CDVFParams(3, 2, 2, 6, 2, 2, "1"), CDVFParams(3, 1, 1, 6, 2, 2, "1"),
                      CDVFParams(3, 1, 3, 6, 2, 2, "1")):
            assert other.kctx is not P.kctx
        assert KContext(3, 1, 2) is not P.kctx and KContext(3, 1, 2) == P.kctx

    def test_with_level_keeps_the_divisibility_check(self):
        P = params_q2i()
        # p^(n-1)(p-1) | e fails for p=2, e=2, n=3, and n = 0 is no level
        for n in (3, 0):
            with pytest.raises(ValueError):
                P.with_level(n)


class TestDescriptorCache:
    def test_one_object_per_level_and_cap(self):
        P = CDVFParams(2, 1, 2, 4, 2, 2, "t1^1")
        for m in range(1, P.threshold(2) + 1):
            desc = descriptor(P, m)
            assert descriptor(P, m) is desc
            assert descriptor(P, m, DEFAULT_WINDOW_CAP) is desc
            other = descriptor(P, m, window_cap=50)
            assert other is not desc and other.window_cap == 50
            assert descriptor(P, m, window_cap=50) is other
            assert ((other.m, other.tag, other.i, other.s, other.branch)
                    == (desc.m, desc.tag, desc.i, desc.s, desc.branch))

    def test_with_level_has_its_own_descriptors(self):
        P = CDVFParams(2, 1, 2, 4, 2, 2, "t1^1")
        m = 6  # s = 1: theta at n = 2, zmod at n = 1
        high = descriptor(P, m)
        low = P.with_level(1)
        assert low.descriptors == {}
        desc = descriptor(low, m)
        assert desc is not high and desc.params is low
        assert (high.branch, desc.branch) == ("theta", "zmod")
        assert descriptor(low, m) is desc and descriptor(P, m) is high

    def test_levels_past_the_top_threshold_are_not_kept(self):
        P = CDVFParams(2, 1, 2, 4, 2, 2, "t1^1")
        top = P.threshold(2)
        for m in (top + 1, top + 50):
            desc = descriptor(P, m)
            assert desc.branch == "zero" and descriptor(P, m) is not desc
        assert descriptor(P, top) is descriptor(P, top)
        assert set(P.descriptors) == {(top, DEFAULT_WINDOW_CAP)}

    def test_argument_checks_come_first(self):
        P = CDVFParams(2, 1, 2, 4, 2, 2, "t1^1")
        descriptor(P, 1)
        for m in (0, -3):
            with pytest.raises(OutOfRangeLevel):
                descriptor(P, m)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="window cap must be at least 1"):
                descriptor(P, 1, window_cap=cap)
        assert set(P.descriptors) == {(1, DEFAULT_WINDOW_CAP)}


class TestClassify:
    def test_case_i_low(self):
        P = params_q2i()
        case = descriptor(P, 3)
        assert case.tag == CASE_I and case.i == 0 and case.s == 0

    def test_case_ii_and_iii(self):
        P = params_q2i()
        assert descriptor(P, 4).tag == CASE_II and descriptor(P, 4).i == 1
        assert descriptor(P, 7).tag == CASE_III

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeLevel):
            descriptor(params_q2i(), 0)

    def test_partition(self):
        for P in (params_q2i(), CDVFParams(3, 1, 0, 6, 2, 1, "1")):
            for m in range(1, P.threshold(P.n) + 5):
                case = descriptor(P, m)
                assert case.tag in (CASE_I, CASE_II, CASE_III)
                if case.tag == CASE_I:
                    assert 0 <= case.i < P.n
                    assert P.threshold(case.i) < m < P.threshold(case.i + 1)
                if case.tag == CASE_II:
                    assert 0 < case.i <= P.n
                    assert m == P.threshold(case.i)


class TestTheta:
    def test_zero_map_on_zero_module(self):
        # q = 1: the source O^{-1} is the zero module
        P = params_q2i(q=1, r=1)
        pair = theta(P, 3, DiffForm.zero(P.kctx, -1))
        assert pair[0].is_zero() and pair[1].is_zero()

    def test_direct_evaluation_q2(self):
        # s=0, i=0, q=2: theta(t1) = (d t1, (m mod p) t1)
        P = CDVFParams(2, 1, 2, 2, 2, 2, "1")
        m = 3
        w = DiffForm.from_poly(P.kctx.var(1))
        t1_, t2_ = theta(P, m, w)
        assert t1_ == d(w)
        assert t2_ == w.scale(m % P.p)

    def test_theta_of_zero(self):
        P = CDVFParams(2, 1, 2, 2, 2, 2, "1")
        pair = theta(P, 3, DiffForm.zero(P.kctx, 0))
        assert pair[0].is_zero() and pair[1].is_zero()

    def test_wrong_case_rejected(self):
        P = params_q2i()
        with pytest.raises(PreconditionViolated):
            theta(P, 4, DiffForm.zero(P.kctx, -1))

    def test_zmod_level_rejected_with_its_case(self):
        # m = 10 = c_1 + 2: Case I with i = 1, s = 1 >= n - i
        P = CDVFParams(2, 1, 0, 4, 2, 1, "1")
        with pytest.raises(PreconditionViolated, match=r"m=10 gives CaseI\(i=1, s=1\)$"):
            theta(P, 10, DiffForm.zero(P.kctx, -1))

    def test_levels_below_one_rejected(self):
        # theta reads the level's descriptor, and no level starts below 1
        P = params_q2i()
        for m in (0, -2):
            with pytest.raises(OutOfRangeLevel):
                theta(P, m, DiffForm.zero(P.kctx, -1))

    def test_nonintegral_coefficient_reported(self):
        # unreachable through descriptor under the enforced divisibility, but
        # the guard must report rather than truncate
        from grmk.graded import _theta_coeff
        P = params_q2i()
        with pytest.raises(CoefficientNotIntegral):
            _theta_coeff(P, 3, 1, 1)  # p^1 does not divide 3 - 1*2


class TestOnePlusAC:
    def test_zero(self):
        P = params_q2i()
        assert one_plus_ac(P, DiffForm.zero(P.kctx, 0)).is_zero()

    def test_prime_field_identity_action(self):
        # r=0, k=F_p: C is the identity, so (1+aC)x = (1+a)x
        P = CDVFParams(3, 1, 0, 2, 1, 1, "1")
        x = DiffForm.from_poly(P.kctx.scalar(1))
        out = one_plus_ac(P, x)
        assert out == DiffForm.from_poly(P.kctx.scalar(2))

    def test_annihilates_f2_with_a_one(self):
        P = params_q2i()
        one = DiffForm.from_poly(P.kctx.one())
        assert one_plus_ac(P, one).is_zero()


def _break_d_squared(monkeypatch, deg):
    """Double the first entry of each Koszul column into degree deg, for
    contexts built from now on: over an odd p, d o d is then nonzero at
    slices with two indices prime to p.  CDVFParams then builds a fresh
    KContext, whose Koszul memo holds no entry of the shared one."""
    monkeypatch.setattr("grmk.graded.residue_field", KContext)
    real = forms.koszul_matrix

    def broken(kctx, alpha, q):
        cols = real(kctx, alpha, q)
        if q == deg:
            cols = [{j: kctx.fq.add(v, v) if j == min(col) else v
                     for j, v in col.items()} for col in cols]
        return cols

    monkeypatch.setattr(forms, "koszul_matrix", broken)


class _RecordingSpace(RowSpace):
    """A RowSpace that keeps a copy of every vector passed to add."""

    def __init__(self, fq):
        super().__init__(fq)
        self.added = []

    def add(self, vec):
        self.added.append(dict(vec))
        return super().add(vec)


def _ac_rows_by_forms(desc, deg, slices):
    """The (1+aC) rows built from forms: flatten one_plus_ac(x^l z)."""
    params = desc.params
    kctx = params.kctx
    subs = subsets_of(kctx.r, deg)
    slice_pos = {g: i for i, g in enumerate(slices)}
    vecs = []
    for gamma in slices:
        for row in subspace_basis(kctx, gamma, deg, Z_KIND, desc.z_level):
            z = DiffForm(kctx, deg, {subs[i]: kctx.monomial(gamma, c)
                                     for i, c in row.items()})
            for l in range(params.f):
                g = one_plus_ac(params, z.scale(params.p ** l))
                vecs.append(_flatten_form(params, g, slice_pos))
    return vecs


# (p, f, e, n) with p^(n-1)(p-1) | e, and a values by residue degree f
_ROW_FIELDS = [(2, 1, 2, 2), (2, 1, 4, 3), (3, 1, 6, 2), (2, 2, 4, 3),
               (3, 2, 6, 2)]
_ROW_AS = {1: ["1", "t1^1", "1+t1^1", "t1^-1+t2^1", "1+t1^1+t3^-1"],
           2: ["1", "g^1*t1^1", "g^1+t1^-1", "1+g^2*t2^1+t3^-1"]}


def _random_row_params(rng, r):
    p, f, e, n = rng.choice(_ROW_FIELDS)
    a = rng.choice([a for a in _ROW_AS[f] if all(f"t{i}" not in a
                                                 for i in range(r + 1, 4))])
    return CDVFParams(p, f, r, e, n, rng.randint(1, r + 1), a)


class TestRelationRows:
    # the coordinate builders add the same vectors, in the same order, as
    # the construction through DiffForm, d, C and _flatten_form

    def test_ac_rows_match_forms(self, monkeypatch):
        monkeypatch.setattr("grmk.graded.RowSpace", _RecordingSpace)
        rng = random.Random(41)
        seen = set()
        for _ in range(40):
            r = rng.randint(1, 3)
            P = _random_row_params(rng, r)
            levels = [P.threshold(i) for i in range(1, P.n + 1)]
            desc = descriptor(P, rng.choice(levels))
            seeds = [tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(3)]
            slices = _ac_window(P, seeds, desc.window_cap)
            for deg in range(0, r + 1):
                space = _ac_relation_space(desc, deg, slices)[0]
                assert space.added == _ac_rows_by_forms(desc, deg, slices), (P, deg)
            seen.add((P.p, P.f, r, len(P.a.terms) > 1))
        assert {(p, f) for p, f, _, _ in seen} == {(2, 1), (3, 1), (2, 2), (3, 2)}
        assert {r for _, _, r, _ in seen} == {1, 2, 3}
        assert any(several for *_, several in seen)

    def test_ac_rows_match_forms_on_a_fixed_slice(self, monkeypatch):
        # a = 1 sends gamma = 0 to itself: both codes land on one column
        monkeypatch.setattr("grmk.graded.RowSpace", _RecordingSpace)
        for p, f, e, n in _ROW_FIELDS:
            for r in (0, 1, 2):
                P = CDVFParams(p, f, r, e, n, 1, "1")
                desc = descriptor(P, P.threshold(1))
                slices = [(0,) * r]
                space = _ac_relation_space(desc, 0, slices)[0]
                want = _ac_rows_by_forms(desc, 0, slices)
                assert space.added == want and len(want) == f, (p, f, r)

    def test_not_closed_row_raises(self, monkeypatch):
        # with d o d broken into degree 1, the Z-rows of degree 1 at (1, 1)
        # are not closed, so C, and 1+aC, reject them: the Koszul memo
        # raises as the relation space fills it
        _break_d_squared(monkeypatch, 1)
        desc = descriptor(CDVFParams(3, 1, 2, 6, 2, 2, "1"), 9)
        assert desc.branch == "ac"
        with pytest.raises(NotClosed):
            _ac_relation_space(desc, 1, [(1, 1), (0, 0)])

    def test_escaped_window_raises(self):
        # a = 1 contracts slice (2,) to (1,), which the window lacks
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        desc = descriptor(P, 4)
        with pytest.raises(AssertionError, match="escaped the closed window"):
            _ac_relation_space(desc, 0, [(2,)])


# (p, f, e, n) with p^(n-1)(p-1) | e: theta levels with s = 0, 1, 2, zmod
# and Case II levels at p = 2, 3 and 5, over GF(p) and GF(p^2)
_SLICE_FIELDS = [(2, 1, 4, 3), (2, 2, 4, 3), (3, 1, 18, 3), (3, 2, 6, 2),
                 (5, 1, 20, 2), (5, 2, 20, 2)]


def _slot_vector(rng, fq, n):
    return {i: rng.randrange(1, fq.q) for i in range(n) if rng.random() < 0.6}


class TestSliceQuotient:
    # the homotopy normal forms and the subset counts of the slice-diagonal
    # quotient against the elimination of reference.slice_quotient

    def test_normal_forms_and_dims_match_elimination(self):
        rng = random.Random(42)
        seen = set()
        slices = set()
        for _ in range(600):
            p, f, e, n = rng.choice(_SLICE_FIELDS)
            r = rng.randint(0, 4)
            P = CDVFParams(p, f, r, e, n, rng.randint(1, r + 2), "1")
            desc = descriptor(P, rng.randint(1, P.threshold(n)))
            level = desc.tower[1]
            # degrees divisible by p^level, p^(level+1) or neither
            scale = p ** rng.randint(0, level + 1)
            beta = tuple(scale * rng.randint(-3, 3) for _ in range(r))
            space = slice_quotient(desc, beta)
            n1 = len(subsets_of(r, P.q - 1))
            n2 = len(subsets_of(r, P.q - 2))
            assert _slice_fp_dim(desc, beta) == f * (n1 + n2 - len(space.rows)), \
                (P, desc, beta)
            if desc.branch != "ac":
                v1 = _slot_vector(rng, P.kctx.fq, n1)
                v2 = _slot_vector(rng, P.kctx.fq, n2)
                want = space.reduce({**v1, **{n1 + i: c for i, c in v2.items()}})
                assert _theta_relation_space(desc, beta, v1, v2) == (
                    {i: c for i, c in want.items() if i < n1},
                    {i - n1: c for i, c in want.items() if i >= n1}), (P, desc, beta)
            seen.add((desc.branch, desc.b_level, p, f, r))
            if r:
                slices.add((desc.branch, min(vp(abs(x), p) if x else 9 for x in beta) - level))
        # below the tower level, at it (the theta rows for alpha prime to p)
        # and above it (for alpha divisible by p)
        assert {(b, min(max(v, -1), 1)) for b, v in slices} == {
            (b, v) for b in ("theta", "zmod", "ac") for v in (-1, 0, 1)}
        assert {(b, s) for b, s, *_ in seen} == {
            ("theta", 0), ("theta", 1), ("theta", 2), ("zmod", None), ("ac", None)}
        assert {p for _, _, p, _, _ in seen} == {2, 3, 5}
        assert {f for *_, f, _ in seen} == {1, 2}
        assert {r for *_, r in seen} == {0, 1, 2, 3, 4}


class TestDescriptorOrders:
    def test_case_i_order(self):
        P = params_q2i()
        desc = descriptor(P, 5)
        assert desc.branch == "theta"
        assert graded_order(desc) == 2

    def test_case_iii_zero_group(self):
        P = params_q2i()
        assert graded_order(descriptor(P, 7)) == 1

    def test_case_ii_order(self):
        P = params_q2i()
        desc = descriptor(P, 4)
        assert desc.branch == "ac" and desc.z_level == 1
        assert graded_order(desc) == 2

    def test_q2i_order_profile(self):
        P = params_q2i()
        assert [graded_order(descriptor(P, m)) for m in range(1, 7)] == [2] * 6

    def test_q3_order_profile(self):
        P = CDVFParams(3, 1, 0, 2, 1, 1, "2")
        assert [graded_order(descriptor(P, m)) for m in range(1, 4)] == [3] * 3

    def test_m_zero_rejected(self):
        with pytest.raises(OutOfRangeLevel):
            descriptor(params_q2i(), 0)

    def test_dim_table_r1(self):
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        table = graded_order(descriptor(P, 5), radius=2)
        assert set(table) == {(-2,), (-1,), (0,), (1,), (2,)}
        # O^0/B_0 at r=1: every slice contributes one GF(2)-dimension
        assert all(v == 1 for v in table.values())


def _reference_table(desc, radius):
    """graded_order without residue classes: every Case I slice of the box is
    eliminated on its own (reference.slice_quotient), and Case II on the
    closed window of the whole box, whose pivots are counted per slice."""
    params = desc.params
    box = _degree_box(params.r, radius)
    if desc.branch == "zero":
        table = {beta: 0 for beta in box}
    elif desc.branch == "ac":
        table = {beta: 0 for beta in box}
        slices = _ac_window(params, box, desc.window_cap)
        f = params.f
        for deg in (params.q - 1, params.q - 2):
            space, nsub, _ = _ac_relation_space(desc, deg, slices)
            pivots = Counter(slices[piv // (nsub * f)] for piv in space.rows)
            for beta in box:
                table[beta] += f * nsub - pivots[beta]
    else:
        n = len(subsets_of(params.r, params.q - 1)) + len(subsets_of(params.r, params.q - 2))
        table = {beta: params.f * (n - len(slice_quotient(desc, beta).rows))
                 for beta in box}
    return params.p ** table[()] if params.r == 0 else table


def _trailing_slices(desc):
    """The ball slices gamma with p | gamma and an image gamma/p + delta at
    or before gamma."""
    params = desc.params
    p = params.p
    ball = _ac_window(params, (), desc.window_cap)
    pos = {g: i for i, g in enumerate(ball)}
    return [g for g in ball if not any(x % p for x in g)
            and any(pos[tuple(x // p + dx for x, dx in zip(g, delta))] <= pos[g]
                    for delta in params.a.terms)]


def _trailing_rows(desc):
    """(1+aC) rows per form degree q-1, q-2 at the trailing slices."""
    params = desc.params
    return [params.f * sum(len(subspace_basis(params.kctx, g, deg, Z_KIND, desc.z_level))
                           for g in _trailing_slices(desc))
            for deg in (params.q - 1, params.q - 2)]


def _trailing_closure(desc):
    """The trailing slices and every slice they reach under the contraction."""
    params = desc.params
    p = params.p
    reach = set(_trailing_slices(desc))
    todo = list(reach)
    while todo:
        g = todo.pop()
        if any(x % p for x in g):
            continue
        for delta in params.a.terms:
            nxt = tuple(x // p + dx for x, dx in zip(g, delta))
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    return reach


# (p, f, e, n) with p^(n-1)(p-1) | e: theta levels with s = 0, 1, 2 and zmod
# levels at p = 2, 3 and 5, over GF(p) and GF(p^2)
_TABLE_FIELDS = [(2, 1, 2, 2), (2, 1, 2, 1), (2, 1, 4, 3), (3, 1, 6, 1),
                 (3, 1, 6, 2), (5, 1, 4, 1), (2, 2, 2, 2), (3, 2, 2, 1),
                 (5, 2, 4, 1)]
# values of a with |a|_inf = 0, 1 and 2, by the variables they need
_TABLE_AS = {
    0: ["1", "-1", "g^1"],
    1: ["t1^1", "1+t1^-1", "g^1*t1^-1", "t1^-2", "1+t1^2"],
    2: ["t1^1+t2^-1", "t2^2", "g^1*t1^-2+t2^1"],
    3: ["t1^1+t3^-2", "t3^1"],
}


def _table_as(p, f, r):
    out = []
    for k in range(min(r, 3) + 1):
        out += [str(p - 1) if a == "-1" else a for a in _TABLE_AS[k]
                if f == 2 or "g" not in a]
    return out


def _tables_over(monkeypatch, kctx_of, contexts):
    """dim_values at each (CDVFParams arguments, m), with the residue field
    context of each CDVFParams taken from kctx_of(p, f, r)."""
    monkeypatch.setattr("grmk.graded.residue_field", kctx_of)
    return [dim_values(descriptor(CDVFParams(*args), m)) for args, m in contexts]


class TestTablesByClass:
    # graded_order computes a slice once per residue class and corrects
    # Case II from the rows that trail in the contraction ball; its tables
    # must equal the reference's entry for entry

    def test_tables_match_reference(self, monkeypatch):
        def no_window(params, seeds, cap):
            raise AssertionError("a table built a degree window")

        # tables build no window; the reference binds _ac_window at import
        monkeypatch.setattr("grmk.graded._ac_window", no_window)
        seen = set()
        for p, f, e, n in _TABLE_FIELDS:
            for r in (0, 1, 2, 3):
                a_list = _table_as(p, f, r)
                for q in (1, 2, 3):
                    P0 = CDVFParams(p, f, r, e, n, q, "1")
                    for m in range(1, P0.threshold(n) + 2):
                        a = a_list[(m + q + r) % len(a_list)]
                        P = CDVFParams(p, f, r, e, n, q, a)
                        desc = descriptor(P, m)
                        R = _shift_bound(P)
                        # the ball is closed under the contraction, so the
                        # cap is checked against its size alone
                        ball = _degree_box(r, R)
                        assert set(_ac_closure(P, ball, desc.window_cap)) == set(ball), P
                        for radius in (0, 1, 2, 3):
                            got = graded_order(desc, radius)
                            want = _reference_table(desc, radius)
                            assert got == want, (P, m, radius)
                            where = "inside" if radius < R else "on" if radius == R else "past"
                            seen.add((desc.branch, desc.b_level, where, f, r))
        branches = {(b, s) for b, s, *_ in seen}
        assert {("theta", 0), ("theta", 1), ("theta", 2), ("zmod", None),
                ("ac", None), ("zero", None)} <= branches
        for f in (1, 2):
            for r in (1, 2, 3):
                assert {w for b, _, w, f2, r2 in seen if b == "ac" and (f2, r2) == (f, r)} \
                    == {"inside", "on", "past"}, (f, r)

    def test_window_cap_bounds_only_the_ball(self, capsys):
        # a = t1^1 at p = 2 has the ball |beta| <= 2 of 5^r slices; the box
        # of radius 3 has 7^r.  m = 4 and 6 are the Case II levels c1, c2,
        # so shift-check at m = 6 builds two Case II tables.  The table at
        # cap ball - 1 finds the closure memo entry filled at cap ball, so
        # the cap must be checked before the lookup
        for r in (1, 2, 3):
            P = CDVFParams(2, 1, r, 2, 2, 1, "t1^1")
            ball = 5 ** r
            assert (2 * _shift_bound(P) + 1) ** r == ball
            argv = ["--p", "2", "--r", str(r), "--e", "2", "--n", "2", "--q", "1",
                    "--a", "t1^1", "--deg-window", "3"]
            assert len(graded_order(descriptor(P, 4, window_cap=ball), 3)) == 7 ** r
            assert cli.main(["gr", *argv, "--m", "4", "--window-cap", str(ball)]) == 0
            assert cli.main(["shift-check", *argv, "--m", "6",
                             "--window-cap", str(ball)]) == 0
            assert capsys.readouterr().err == ""
            message = f"degree window exceeded the configured cap {ball - 1}"
            with pytest.raises(WindowOverflow) as exc:
                graded_order(descriptor(P, 4, window_cap=ball - 1), 3)
            assert type(exc.value) is WindowOverflow and str(exc.value) == message
            for command, m in (("gr", "4"), ("shift-check", "6")):
                code = cli.main([command, *argv, "--m", m, "--window-cap", str(ball - 1)])
                assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n"), r

    def test_trailing_slices_match_ball_positions(self, monkeypatch):
        # _ac_closure_entries finds the trailing slices among the ball's
        # multiples of p by sort key; the reference compares positions in
        # the sorted ball.  The set depends on p, r and a alone, so the
        # table contexts are taken at q = 2, plus the gr-sweep contexts
        seeds = []

        def recording_closure(params, slices, cap):
            slices = list(slices)
            seeds.append(set(slices))
            return _ac_closure(params, slices, cap)

        monkeypatch.setattr("grmk.graded._ac_closure", recording_closure)
        # a fresh KContext per descriptor: levels with the same z_level share
        # one closure memo entry, and each call below must fill its own
        monkeypatch.setattr("grmk.graded.residue_field", KContext)
        contexts = [(p, f, r, e, n, 2, a) for p, f, e, n in _TABLE_FIELDS
                    for r in (0, 1, 2, 3) for a in _table_as(p, f, r)]
        contexts += [(2, 1, 4, 4, 2, 3, "t1^1"), (3, 1, 3, 6, 2, 2, "t1^1"),
                     (2, 2, 3, 4, 2, 3, "g^1*t1^1")]
        descs = []
        for args in contexts:
            for i in range(1, args[4] + 1):
                P = CDVFParams(*args)
                descs.append(descriptor(P, P.threshold(i)))
        for desc in descs:
            assert desc.branch == "ac", desc.params
            # the reference builds the ball through _ac_closure too
            want = set(_trailing_slices(desc))
            seeds.clear()
            entries = _ac_closure_entries(desc)
            assert seeds == [want], (desc.params, desc.m)
            assert set(entries) == _trailing_closure(desc), (desc.params, desc.m)

    def test_warm_tables_match_cold_at_every_case_ii_level(self, monkeypatch):
        # n = 3 has z_level 2 at c_1 = 8 and 1 at c_2 = 12 and c_3 = 16: one
        # shared context fills two closure memo entries and reads one back,
        # and every table equals the one of a fresh context
        contexts = [((2, 1, 2, 4, 3, 2, "t1^1"), m) for m in (8, 12, 16)]
        cold = _tables_over(monkeypatch, KContext, contexts)
        assert [sum(t) for t in cold] == [97, 83, 83]
        shared = KContext(2, 1, 2)
        assert _tables_over(monkeypatch, lambda p, f, r: shared, contexts) == cold
        assert len(shared.ac_closure_memo) == 2

    def test_warm_tables_match_cold_for_two_values_of_a(self, monkeypatch):
        # the same field and z_level, two values of a: one memo entry each
        contexts = [((2, 1, 2, 4, 3, 2, a), m) for a in ("t1^1", "t2^-2") for m in (12, 16)]
        cold = _tables_over(monkeypatch, KContext, contexts)
        assert [sum(t) for t in cold] == [83, 83, 80, 80]
        shared = KContext(2, 1, 2)
        assert _tables_over(monkeypatch, lambda p, f, r: shared, contexts) == cold
        assert len(shared.ac_closure_memo) == 2

    def test_gr_and_shift_check_share_one_closure(self, monkeypatch, capsys):
        # at n = 2, z_level is 1 at c_1 = 8 and c_2 = 12, and at c_1 of n = 1,
        # the low side of shift-check at m = 12: the three commands eliminate
        # the trailing closure once, one relation space per form degree
        shared = KContext(2, 1, 2)
        monkeypatch.setattr("grmk.graded.residue_field", lambda p, f, r: shared)
        degs = []

        def recording_space(desc, deg, slices):
            degs.append(deg)
            return _ac_relation_space(desc, deg, slices)

        monkeypatch.setattr("grmk.graded._ac_relation_space", recording_space)
        argv = ["--p", "2", "--r", "2", "--e", "4", "--n", "2", "--q", "2", "--a", "t1^1"]
        assert cli.main(["gr", *argv, "--m", "8"]) == 0
        assert cli.main(["gr", *argv, "--m", "12"]) == 0
        assert cli.main(["shift-check", *argv, "--m", "12"]) == 0
        assert "consistent: yes" in capsys.readouterr().out.splitlines()
        assert len(shared.ac_closure_memo) == 1 and degs == [1, 0]

    def test_not_closed_row_outside_the_ball_raises(self, monkeypatch):
        # a = 1 gives the ball {0}, where the Z-slice is whole and no Koszul
        # row is built, so only the class entry off p | beta can see that
        # d o d is broken into degree 1
        _break_d_squared(monkeypatch, 1)
        desc = descriptor(CDVFParams(3, 1, 2, 6, 2, 2, "1"), 9)
        assert desc.branch == "ac" and _shift_bound(desc.params) == 0
        with pytest.raises(NotClosed):
            graded_order(desc, 1)

    def test_correction_rows_are_checked_closed(self, monkeypatch):
        # a = t1^1*t2^1 at p = 3: the ball is |beta| <= 2, where (0, 0)
        # trails and its rows reach the leading slice (1, 1).  The box of
        # radius 0 is {(0, 0)}, whose Z-slice is whole, so only the
        # correction builds the rows at (1, 1), and it must see that d o d
        # is broken into degree 1
        _break_d_squared(monkeypatch, 1)
        desc = descriptor(CDVFParams(3, 1, 2, 6, 2, 2, "t1^1*t2^1"), 9)
        assert desc.branch == "ac" and _trailing_closure(desc) == {(0, 0), (1, 1)}
        with pytest.raises(NotClosed):
            graded_order(desc, 0)

    def test_relation_space_only_on_the_trailing_closure(self, monkeypatch):
        # a Case II table eliminates (1+aC) rows only on the closure of the
        # trailing slices, which is smaller than the ball once r >= 1.  Each
        # descriptor gets a fresh KContext, whose closure memo is empty, so
        # no earlier table of the same field answers for it
        monkeypatch.setattr("grmk.graded.residue_field", KContext)
        descs = [descriptor(CDVFParams(p, f, r, e, n, q, a), m)
                 for p, f, r, e, n, q, a, m in [
                     (2, 1, 0, 2, 2, 1, "1", 4), (2, 1, 1, 2, 2, 1, "t1^1", 4),
                     (2, 1, 2, 4, 2, 2, "t1^1+t2^-1", 12), (3, 1, 2, 6, 2, 3, "t2^-2", 9),
                     (2, 2, 2, 4, 2, 2, "g^1*t1^-1", 8), (5, 1, 1, 4, 1, 1, "1+t1^2", 5),
                     (2, 1, 3, 4, 3, 2, "t1^-2+t3^1", 12)]]
        assert all(desc.branch == "ac" for desc in descs)
        wants = [_reference_table(desc, 3) for desc in descs]
        seen = []

        def recording_space(desc, deg, slices):
            seen.append(list(slices))
            return _ac_relation_space(desc, deg, slices)

        monkeypatch.setattr("grmk.graded._ac_relation_space", recording_space)
        for desc, want in zip(descs, wants):
            seen.clear()
            assert graded_order(desc, 3) == want, desc.params
            ball = _ac_window(desc.params, (), desc.window_cap)
            reach = _trailing_closure(desc)
            assert seen, desc.params
            for slices in seen:
                # the closure in the ball's order
                assert slices == [g for g in ball if g in reach], desc.params
                assert desc.params.r == 0 or len(slices) < len(ball), desc.params

    @pytest.mark.parametrize("p,f,r,e,n,q,a,trailing", [
        (2, 1, 3, 4, 3, 2, "t1^-2+t3^1", {8: [46, 6], 12: [102, 34], 16: [102, 34]}),
        (2, 2, 2, 4, 2, 2, "g^1*t1^1", {8: [12, 6], 12: [12, 6]}),
        (3, 1, 2, 6, 2, 2, "2*t1^2*t2^-1", {9: [6, 3], 15: [6, 3]})])
    def test_tables_with_many_trailing_rows(self, p, f, r, e, n, q, a, trailing):
        P = CDVFParams(p, f, r, e, n, q, a)
        for m, counts in trailing.items():
            desc = descriptor(P, m)
            assert desc.branch == "ac"
            assert _trailing_rows(desc) == counts
            assert graded_order(desc, 3) == _reference_table(desc, 3), m

    def test_r0_case_ii_orders(self):
        # at r = 0 the ball is [()], a fixed point of the contraction that
        # trails: the order is the exact entry at ()
        seen = set()
        for p, f, e, n in _TABLE_FIELDS:
            for a in _table_as(p, f, 0):
                for q in (1, 2):
                    P = CDVFParams(p, f, 0, e, n, q, a)
                    for i in range(1, n + 1):
                        desc = descriptor(P, P.threshold(i))
                        assert _ac_window(P, (), desc.window_cap) == [()]
                        assert _trailing_rows(desc) == ([f, 0] if q == 1 else [0, f])
                        assert set(_ac_closure_entries(desc)) == {()}
                        order = graded_order(desc)
                        assert order == _reference_table(desc, 0), (P, i)
                        seen.add(order)
        assert len(seen) > 1

    @pytest.mark.parametrize("p,e,n,m,radius", [(2, 4, 3, 1, 1), (2, 4, 3, 2, 2),
                                                (2, 4, 3, 4, 3), (3, 6, 2, 3, 2),
                                                (2, 2, 1, 2, 1), (3, 6, 1, 6, 1),
                                                (2, 4, 3, 8, 2), (2, 4, 3, 16, 1),
                                                (3, 6, 2, 9, 1), (3, 18, 3, 27, 2)])
    def test_case_i_slices_once_per_class(self, monkeypatch, p, e, n, m, radius):
        # an entry reads beta only through whether p^level divides it, with
        # level = desc.tower[1] (s for theta, z_level for zmod and ac): a
        # stand-in slice that returns 2 on the multiples of p^level and 1
        # elsewhere must be called at most twice per table, once per class,
        # and come back at every beta off the closure of the Case II
        # trailing slices; on the closure the entry is the exact one.  The
        # tables are taken at the given radius and at radius 4, so the
        # multiples of p^level reach past 0 and the box edge
        desc = descriptor(CDVFParams(p, 1, 2, e, n, 2, "t1^1+t2^-1"), m)
        mod = p ** desc.tower[1]
        closure = _ac_closure_entries(desc) if desc.branch == "ac" else {}
        assert bool(closure) == (desc.branch == "ac")
        assert set(closure) == (_trailing_closure(desc) if closure else set())
        wants = {rad: _reference_table(desc, rad) if closure else {}
                 for rad in (radius, 4)}
        calls = []

        def code(beta):
            return 1 + (not any(x % mod for x in beta))

        def class_of(desc, beta):
            calls.append(beta)
            return code(beta)

        monkeypatch.setattr("grmk.graded._slice_fp_dim", class_of)
        for rad, want in wants.items():
            calls.clear()
            table = graded_order(desc, rad)
            assert len(calls) <= 2 and len({code(beta) for beta in calls}) == len(calls)
            assert set(map(code, calls)) == set(map(code, table))
            assert all(table[beta] == (want[beta] if beta in closure else code(beta))
                       for beta in table)
        assert set(closure) <= set(_degree_box(2, 4))


class TestDimValues:
    # dim_values is graded_order's table as a list in _degree_box order, and
    # graded_order's keys are that box in that order

    @staticmethod
    def _check(desc, radius):
        values = dim_values(desc, radius)
        r = desc.params.r
        if r == 0:
            assert len(values) == 1 and graded_order(desc, radius) == desc.params.p ** values[0]
            return
        table = graded_order(desc, radius)
        assert list(table) == _degree_box(r, radius), (desc.params, desc.m, radius)
        assert values == list(table.values()), (desc.params, desc.m, radius)

    def test_every_branch_box_and_residue_degree(self):
        seen = set()
        for f in (1, 2):
            for r in range(5):
                a = "t1^1" if r else "1"
                P = CDVFParams(2, f, r, 4, 2, min(r, 2) + 1, a)
                for m in range(1, P.threshold(2) + 2):
                    desc = descriptor(P, m)
                    seen.add(desc.branch)
                    for radius in range(5):
                        self._check(desc, radius)
        assert seen == {"zero", "theta", "zmod", "ac"}

    @pytest.mark.parametrize("p,r,e,n,a,levels", [
        (2, 3, 4, 3, "t1^-2+t3^1", (8, 12, 16)), (3, 2, 6, 2, "2*t1^2*t2^-1", (9, 15))])
    def test_closure_past_small_boxes(self, p, r, e, n, a, levels):
        # the closure of the trailing slices reaches outside the boxes of
        # radius 0 and 1, whose entries there are dropped
        P = CDVFParams(p, 1, r, e, n, 2, a)
        for m in levels:
            desc = descriptor(P, m)
            assert desc.branch == "ac"
            for radius in (0, 1):
                assert not set(_ac_closure_entries(desc)) <= set(_degree_box(r, radius))
                self._check(desc, radius)
                assert graded_order(desc, radius) == _reference_table(desc, radius), (m, radius)


class TestDimRows:
    # render_descriptor prints a dim_values list in the degree box's order;
    # the reference fills one % pattern per row of the table in sorted order

    @staticmethod
    def _rows(desc, values):
        lines = render_descriptor(desc, values)
        # the rows come as one element, filled from one template per box
        return "\n".join(lines[lines.index("dim_units: GF(p)") + 1:]).split("\n")

    def test_tables_match_the_pattern_rows(self):
        widest = 0
        for p, f, e, n, a in [(2, 1, 4, 2, "t1^1"), (3, 1, 6, 2, "1+t1^-1"),
                              (2, 2, 4, 2, "g^1*t1^1")]:
            for r in (1, 2, 3, 4):
                for q in (1, 2, 3):
                    P = CDVFParams(p, f, r, e, n, q, a)
                    for m in range(1, P.threshold(n) + 2):
                        desc = descriptor(P, m)
                        for radius in (0, 1, 2, 3):
                            table = graded_order(desc, radius)
                            rows = self._rows(desc, dim_values(desc, radius))
                            assert rows == dim_rows(table, r), (P, m)
                            widest = max(widest, *table.values())
        # f = 2 gives two-digit entries (up to 12 on these contexts)
        assert widest >= 10

    def test_two_digit_coordinates_and_entries(self):
        for r, radii in ((1, (10, 11, 12)), (2, (10, 11, 12))):
            desc = descriptor(CDVFParams(2, 1, r, 2, 2, 1, "t1^1"), 4)
            for radius in radii:
                table = graded_order(desc, radius)
                rows = self._rows(desc, dim_values(desc, radius))
                assert rows == dim_rows(table, r), (r, radius)
                wide = {beta: 7 * i for i, beta in enumerate(_degree_box(r, radius))}
                assert self._rows(desc, list(wide.values())) == dim_rows(wide, r), (r, radius)

    def test_one_box_two_value_lists(self):
        # the template is kept per box, not per list: lists over one box
        # each print their own rows
        desc = descriptor(CDVFParams(2, 1, 2, 2, 2, 1, "t1^1"), 4)
        box = _degree_box(2, 1)
        for values in ([0] * 9, list(range(9)), [12] * 9):
            assert self._rows(desc, values) == dim_rows(dict(zip(box, values)), 2)

    def test_table_off_the_box_raises(self):
        # a list one entry short or long, or of an even side, is no box
        for r in (1, 2, 3):
            desc = descriptor(CDVFParams(2, 1, r, 2, 2, 1, "t1^1"), 4)
            values = dim_values(desc, 2)
            for bad in (values[:-1], values + [1], [1] * 4 ** r):
                with pytest.raises(ValueError):
                    render_descriptor(desc, bad)
        # at r = 0 the box is one degree, whose entry is the order's exponent
        desc = descriptor(CDVFParams(2, 1, 0, 2, 2, 1, "1"), 4)
        assert render_descriptor(desc, dim_values(desc, 2))[-1] == "order: 2"
        for bad in ([], [1, 1]):
            with pytest.raises(ValueError):
                render_descriptor(desc, bad)


class TestReduce:
    def test_public_constructor_checks_its_forms(self):
        # reduce builds its result unchecked; the public constructor still
        # rejects a wrong degree and a form over a foreign residue field
        P = CDVFParams(2, 1, 2, 4, 2, 2, "t1^1")
        desc = descriptor(P, 9)
        w1 = parse_form(P.kctx, 1, "t1^1*dlog[1]")
        w2 = parse_form(P.kctx, 0, "t1^1")
        for bad in ((w2, w2), (w1, w1)):
            with pytest.raises(ValueError, match="degree"):
                GrElement(desc, *bad)
        for foreign in (KContext(2, 2, 2), KContext(2, 1, 3), KContext(3, 1, 2)):
            with pytest.raises(ValueError, match="residue field"):
                GrElement(desc, parse_form(foreign, 1, "t1^1*dlog[1]"), w2)
            with pytest.raises(ValueError, match="residue field"):
                GrElement(desc, w1, parse_form(foreign, 0, "t1^1"))
        # on every branch, what reduce returns passes those checks
        for m in range(1, P.threshold(P.n) + 2):
            level = descriptor(P, m)
            red = reduce(GrElement(level, w1, w2))
            assert GrElement(level, red.w1, red.w2) == red, m
            assert (red.w1.kctx, red.w1.q, red.w2.q) == (P.kctx, 1, 0), m

    def test_zero_reduces_to_zero(self):
        P = params_q2i()
        desc = descriptor(P, 5)
        assert is_zero(desc.zero_element())

    def test_theta_image_reduces_to_zero(self):
        rng = random.Random(20)
        P = CDVFParams(2, 1, 2, 2, 2, 2, "1")
        desc = descriptor(P, 3)
        for _ in range(60):
            pair = theta(P, 3, rand_form(rng, P.kctx, 0))
            assert is_zero(desc.element(*pair))

    def test_case_ii_relations_reduce_to_zero(self):
        rng = random.Random(21)
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        desc = descriptor(P, 4)
        for _ in range(60):
            z = make_z_tower_element(P.kctx, rand_form(rng, P.kctx, 0), desc.z_level)
            assert is_zero(desc.element(one_plus_ac(P, z)))

    def test_nonzero_case_i_q1(self):
        # B_s^0 = 0 and theta has zero source at q=1, so constants survive
        P = params_q2i()
        desc = descriptor(P, 5)
        el = desc.element(DiffForm.from_poly(P.kctx.one()))
        assert not is_zero(el)

    def test_case_ii_unit_not_killed_when_map_vanishes(self):
        # over F_2 with a = 1 the operator 1+aC annihilates Z, so the
        # relation subgroup is trivial and the class of 1 is nonzero;
        # this is forced by the measured order 2 of the quotient
        P = params_q2i()
        desc = descriptor(P, 4)
        el = desc.element(DiffForm.from_poly(P.kctx.one()))
        assert not is_zero(el)
        assert graded_order(desc) == 2

    def test_case_iii_everything_zero(self):
        rng = random.Random(22)
        P = CDVFParams(2, 1, 2, 2, 2, 2, "1")
        desc = descriptor(P, 8)
        for _ in range(10):
            el = desc.element(rand_form(rng, P.kctx, 1), rand_form(rng, P.kctx, 0))
            assert is_zero(el)

    def test_contraction_chain_collapses(self):
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        desc = descriptor(P, 6)
        k = P.kctx
        reps = set()
        for expo in (1, 2, 4, 8):
            el = desc.element(DiffForm.from_poly(k.monomial((expo,))))
            reps.add(format_form(reduce(el).w1))
        assert reps == {"t1^1"}

    def test_window_overflow_reported(self):
        P = CDVFParams(2, 1, 1, 2, 2, 1, "t1^1")
        desc = descriptor(P, 4, window_cap=2)
        el = desc.element(DiffForm.from_poly(P.kctx.monomial((8,))))
        with pytest.raises(WindowOverflow):
            reduce(el)

    def test_window_cap_applies_to_seeded_window(self):
        # the seeded window for a = t1^1 closes on itself, so only a check of
        # the seeded window itself can see the cap
        P = CDVFParams(2, 1, 1, 2, 2, 1, "t1^1")
        desc = descriptor(P, 4, window_cap=1)
        assert desc.branch == "ac"
        with pytest.raises(WindowOverflow):
            graded_order(desc)
        for cap in (0, -5):
            with pytest.raises(ValueError, match="window cap must be at least 1"):
                descriptor(CDVFParams(2, 1, 0, 2, 2, 1, "1"), 4, window_cap=cap)

    def test_zmod_matches_nf_mod(self):
        # a Z-quotient level reduces through the same slice path as theta;
        # forms.nf_mod in each slot is the reference
        rng = random.Random(25)
        count = 0
        for p, f, e, n in [(2, 1, 4, 2), (2, 2, 4, 2), (3, 1, 6, 2), (3, 2, 6, 2),
                           (3, 1, 18, 3)]:
            for r in (1, 2, 3):
                for q in (1, 2, 3):
                    P = CDVFParams(p, f, r, e, n, q, "1")
                    k = P.kctx
                    for m in range(1, P.threshold(n)):
                        desc = descriptor(P, m)
                        if desc.branch != "zmod":
                            continue
                        z = desc.z_level
                        for _ in range(2):
                            w1, w2 = (rand_form(rng, k, deg) + make_z_tower_element(
                                k, rand_form(rng, k, deg), z) for deg in (q - 1, q - 2))
                            red = reduce(desc.element(w1, w2))
                            assert (red.w1, red.w2) == (nf_mod(w1, Z_KIND, z),
                                                        nf_mod(w2, Z_KIND, z)), (P, m)
                            count += 1
        assert count >= 180

    def test_reduce_idempotent_and_coset_constant(self):
        rng = random.Random(23)
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        for m in (1, 2, 3, 4, 5, 6):
            desc = descriptor(P, m)
            for _ in range(20):
                el = desc.element(rand_form(rng, P.kctx, 0))
                red = reduce(el)
                assert reduce(red) == red


class TestClassMaps:
    # reduce applies one cached map per class of beta mod p^(level+1) on the
    # 'theta' and 'zmod' branches; reference.reduce_by_slices runs
    # _theta_relation_space on every slice instead.  (p, f, e, n):
    FIELDS = [(2, 1, 8, 3), (2, 2, 4, 2), (3, 1, 6, 2), (3, 2, 6, 2),
              (5, 1, 20, 2), (5, 2, 20, 2)]

    @staticmethod
    def _slices(rng, p, level):
        """Degrees at r = 2 of every kind the maps tell apart, with a second
        degree in the class of each: 0, p^level alpha with alpha prime to p,
        and with p | alpha, and (at level > 0) a non-multiple of p^level."""
        ps, step = p ** level, p ** (level + 1)
        seeds = [(0, 0), (ps, ps * rng.randint(-2, 2)),
                 (step * rng.choice([1, -1, 2]), step * rng.randint(-1, 1))]
        if level:
            seeds.append((rng.randint(-3, 3), 1))
        return seeds + [(x + step, y - step) for x, y in seeds]

    def test_reduce_matches_the_slice_path(self):
        rng = random.Random(41)
        kinds, branches = Counter(), Counter()
        for p, f, e, n in self.FIELDS:
            for q in (1, 2, 3):
                P = CDVFParams(p, f, 2, e, n, q, "1")
                k = P.kctx
                for m in range(1, P.threshold(n)):
                    desc = descriptor(P, m)
                    if desc.branch not in ("theta", "zmod"):
                        continue
                    level = desc.tower[1]
                    for _ in range(3):
                        slices = self._slices(rng, p, level)
                        w1, w2 = (DiffForm._of(k, deg, {
                            (rng.choice(subsets_of(2, deg)), rng.choice(slices)):
                            rng.randrange(1, p ** f) for _ in range(8)})
                            if subsets_of(2, deg) else DiffForm.zero(k, deg)
                            for deg in (q - 1, q - 2))
                        el = desc.element(w1, w2)
                        assert reduce(el) == reduce_by_slices(el), (P, m, w1, w2)
                        for _, beta in w1.terms:
                            if beta == (0, 0):
                                kinds["zero"] += 1
                            elif any(x % p ** level for x in beta):
                                kinds["off"] += 1
                            else:
                                kinds["p | alpha" if all(x % p ** (level + 1) == 0
                                                         for x in beta) else "alpha"] += 1
                    branches[desc.branch] += 1
        assert branches["theta"] >= 400 and branches["zmod"] >= 40, branches
        assert len(kinds) == 4 and min(kinds.values()) >= 400, kinds

    def test_maps_are_kept_per_class(self):
        P = CDVFParams(3, 1, 2, 6, 2, 2, "1")
        desc = descriptor(P, 3)  # theta at s = 1: classes mod 9
        assert (desc.branch, desc.tower[1]) == ("theta", 1)
        k = P.kctx
        for beta in [(3, 0), (12, -9), (3, 9), (9, 0), (0, 0)]:
            reduce(desc.element(DiffForm.monomial(k, beta, (1,))))
        assert set(desc.class_maps) == {(3, 0), (0, 0)}


class TestSymbols:
    def test_q1_empty_tail(self):
        P = params_q2i(q=1, r=1)
        el = symbol_to_forms(P, parse_symbol(P.kctx, "{1+pi^3*(1)}"))
        assert format_form(el.w1) == "1" and el.w2.is_zero()

    def test_first_formula(self):
        P = CDVFParams(2, 1, 1, 2, 2, 2, "1")
        el = symbol_to_forms(P, parse_symbol(P.kctx, "{1+pi^2*(t1^1);t1^1}"))
        assert format_form(el.w1) == "t1^1*dlog[1]"
        assert el.w2.is_zero()

    def test_second_formula(self):
        P = CDVFParams(2, 1, 1, 2, 2, 2, "1")
        el = symbol_to_forms(P, parse_symbol(P.kctx, "{1+pi^2*(t1^1);pi}"))
        assert el.w1.is_zero()
        assert format_form(el.w2) == "t1^1"

    def test_prime_moved_with_sign(self):
        # {1+pi^m u, pi, y} = -{1+pi^m u, y, pi} on the form side
        P = CDVFParams(3, 1, 1, 2, 1, 3, "1")
        k = P.kctx
        el = symbol_to_forms(P, SymbolExpr(2, k.one(), [PRIME, k.var(1)]))
        el_last = symbol_to_forms(P, SymbolExpr(2, -k.one(), [k.var(1), PRIME]))
        assert el.w2 == el_last.w2

    def test_malformed(self):
        P = CDVFParams(2, 1, 1, 2, 2, 3, "1")
        k = P.kctx
        with pytest.raises(MalformedSymbol):
            SymbolExpr(2, k.zero(), [])
        with pytest.raises(MalformedSymbol):
            SymbolExpr(2, k.one(), [PRIME, PRIME])
        with pytest.raises(MalformedSymbol):
            SymbolExpr(2, k.one(), [k.var(1) + k.one()])
        with pytest.raises(MalformedSymbol):
            symbol_to_forms(P, SymbolExpr(2, k.one(), [PRIME]))

    def test_symbol_round_trip(self):
        P = CDVFParams(2, 1, 2, 2, 2, 2, "1")
        text = "{1+pi^2*(t2^1+t1^1);pi}"
        sym = parse_symbol(P.kctx, text)
        assert format_symbol(sym) == text


class TestGF4Semilinear:
    # f = 2 makes 1+aC only GF(2)-linear; the flattened solver must still
    # kill relations and stay coset-constant
    def test_relations_and_cosets_over_gf4(self):
        rng = random.Random(30)
        P = CDVFParams(2, 2, 1, 2, 2, 1, "g^1")
        desc = descriptor(P, 6)
        k = P.kctx
        for _ in range(60):
            z = make_z_tower_element(k, rand_form(rng, k, 0), desc.z_level)
            rel = one_plus_ac(P, z)
            assert is_zero(desc.element(rel))
            w = rand_form(rng, k, 0)
            assert reduce(desc.element(w + rel)) == reduce(desc.element(w))

    def test_gf4_case_ii_order_r0(self):
        # over GF(4) with a = 1: z + z^(1/2) has image {0, 1},
        # so the quotient at the threshold has order 2
        P = CDVFParams(2, 2, 0, 1, 1, 1, "1")
        assert graded_order(descriptor(P, 2)) == 2
        assert graded_order(descriptor(P, 1)) == 4


class TestParameterSweep:
    def test_descriptor_reduce_sweep(self):
        # broad shakeout: every branch, r up to 2, q up to 3, p in {2,3,5}
        rng = random.Random(99)
        combos = []
        for p, e_list, n in [(2, [2, 4], 1), (2, [2, 4], 2), (3, [2, 6], 1),
                             (3, [6], 2), (5, [4], 1), (5, [20], 2)]:
            for e in e_list:
                if e % (p ** (n - 1) * (p - 1)) == 0:
                    combos.append((p, e, n))
        count = 0
        for (p, e, n) in combos:
            for r in (0, 1, 2):
                for q in (1, 2, 3):
                    a = "1" if r == 0 else "t1^1"
                    P = CDVFParams(p, 1, r, e, n, q, a)
                    cn = P.threshold(n)
                    for m in range(1, min(cn + 3, 30), 2):
                        desc = descriptor(P, m)
                        graded_order(desc, radius=1)
                        el = desc.element(rand_form(rng, P.kctx, q - 1),
                                          rand_form(rng, P.kctx, q - 2))
                        red = reduce(el)
                        assert reduce(red) == red, (p, e, n, r, q, m)
                        if desc.branch == "zero":
                            assert is_zero(el)
                        count += 1
        assert count > 400


class TestElementEquality:
    def test_equal_forms_at_different_levels_differ(self):
        P = params_q2i(r=1)
        w = parse_form(P.kctx, 0, "t1^1")
        assert descriptor(P, 3).element(w) != descriptor(P, 5).element(w)

    def test_same_level_equal_only_over_same_params(self):
        P = params_q2i(r=1)
        w = parse_form(P.kctx, 0, "t1^1")
        assert descriptor(P, 3).element(w) == descriptor(P, 3).element(w)
        assert descriptor(P, 3).element(w) != descriptor(params_q2i(r=1), 3).element(w)


class TestZTowerElement:
    def test_check_raises_when_tower_left(self, monkeypatch):
        k = KContext(2, 1, 1)
        monkeypatch.setattr("grmk.graded.inv_cartier_iter", lambda w, s: w)
        with pytest.raises(AssertionError):
            make_z_tower_element(k, DiffForm.from_poly(k.var(1)), 1)


class TestShiftConsistency:
    def test_orders_match_q2i(self):
        P = params_q2i()
        rep = level_shift_consistency(P, 5)
        assert rep.consistent
        assert rep.order_high == rep.order_low == 2

    def test_case_ii_match(self):
        P = params_q2i()
        rep = level_shift_consistency(P, 6)
        assert rep.consistent
        assert rep.case_high.tag == CASE_II and rep.case_low.tag == CASE_II

    def test_precondition(self):
        P = params_q2i()
        with pytest.raises(PreconditionViolated):
            level_shift_consistency(P, 4)
        with pytest.raises(PreconditionViolated):
            level_shift_consistency(CDVFParams(2, 1, 0, 2, 1, 1, "1"), 5)

    def test_probes_pass_through(self):
        rng = random.Random(24)
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        probes = [(rand_form(rng, P.kctx, 0), DiffForm.zero(P.kctx, -1))
                  for _ in range(5)]
        rep = level_shift_consistency(P, 5, probes=probes)
        assert rep.consistent and not rep.probe_flags

    def test_probe_flag(self, monkeypatch):
        # a stand-in is_zero that reads the level n must show as a probe flag
        P = CDVFParams(2, 1, 1, 2, 2, 1, "1")
        monkeypatch.setattr("grmk.graded.is_zero", lambda el: el.desc.params.n > 1)
        probe = (parse_form(P.kctx, 0, "t1^1"), DiffForm.zero(P.kctx, -1))
        rep = level_shift_consistency(P, 5, probes=[probe])
        assert rep.probe_flags == [("t1^1", "0", True, False)]
        assert not rep.consistent
        lines = render_consistency(rep)
        assert "probe_flag: (t1^1; 0) zero_high=True zero_low=False" in lines
        assert lines[-1] == "consistent: no"

    def test_grid(self):
        for (p, e, n) in [(2, 2, 2), (2, 4, 2), (3, 6, 2)]:
            for r in (0, 1):
                for q in (1, 2):
                    P = CDVFParams(p, 1, r, e, n, q, "1")
                    lo = P.e + P.e0 + 1
                    hi = P.threshold(P.n)
                    for m in range(lo, hi + 1):
                        rep = level_shift_consistency(P, m)
                        assert rep.consistent, (p, e, n, r, q, m, rep.structure_note)
