"""Closed forms of the slice dimensions, checked against the engine.

The expected values use only binomial coefficients and
v_p(beta) = min_i v_p(beta_i), with v_p(0) = infinity; nothing here calls
the forms engine to compute them.  Over GF(p^f) at degree beta and form
degree j:

    dim B_s = C(r-1, j-1)            if v_p(beta) < s, else 0
    dim Z_s = C(r-1, j-1)            if v_p(beta) < s, else C(r, j)

and the gr tables follow.  A 'theta' entry is f*C(r, q-1) everywhere, since
its coefficient (m - ie)/p^s is a unit mod p; at n = 1 this is Bloch-Kato's
gr^m = Omega^{q-1} for p not dividing m.  A 'zmod' entry is
f*C(r, q-1)*[v_p(beta) < n-i], a Case II entry outside the contraction ball
is f*C(r, q-1)*[v_p(beta) < z_level], and a Case III entry is 0.  Inside the
ball no closed form is known, so those entries are not checked, except at
r = 0, where the ball is the one slice () and every order has a closed form.
"""

import itertools
import math

import pytest

from grmk.ffield import KContext
from grmk.forms import B_KIND, Z_KIND, subspace_basis
from grmk.graded import CDVFParams, descriptor, graded_order

INF = math.inf


def comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def vp_int(x, p):
    if x == 0:
        return INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vp_deg(beta, p):
    return min((vp_int(x, p) for x in beta), default=INF)


def dim_b(r, j, s, v):
    return comb(r - 1, j - 1) if v < s else 0


def dim_z(r, j, s, v):
    return comb(r - 1, j - 1) if v < s else comb(r, j)


def ball_radius(P):
    """ceil(p*|a|_inf/(p-1)): the contraction ball of gamma -> gamma/p + delta."""
    amax = max(max(map(abs, alpha), default=0) for alpha in P.a.terms)
    return -(-P.p * amax // (P.p - 1))


def expected_entry(P, m, beta):
    """The closed-form entry of gr^m at beta, or None inside the Case II ball.

    The level is placed against c_i = i*e + e/(p-1) here, not by the engine.
    """
    full = P.f * comb(P.r, P.q - 1)
    v = vp_deg(beta, P.p)
    c = [0] + [i * P.e + P.e // (P.p - 1) for i in range(1, P.n + 1)]
    if m > c[P.n]:
        return 0
    if m in c:
        if max(map(abs, beta), default=0) <= ball_radius(P):
            return None
        return full if v < max(P.n - c.index(m), 1) else 0
    i = max(j for j in range(P.n) if c[j] < m)
    if P.n - i > vp_int(m, P.p):
        return full
    return full if v < P.n - i else 0


def norm_to_fp(fq, x):
    """N_{GF(p^f)/GF(p)}(x) = x * x^p * ... * x^(p^(f-1)), as a code."""
    norm = 1
    for _ in range(fq.f):
        norm, x = fq.mul(norm, x), fq.frob(x)
    return norm


def expected_r0_order(P, m):
    """|gr^m| at r = 0, where Omega^0 = GF(p^f) and Omega^j = 0 for j >= 1.

    'theta': p^f at q = 1 (B_s of Omega^0 is 0, and theta has source 0) and
    1 at q = 2, since theta(x) = (0, lam x) with lam = (m - ie)/p^s (up to
    sign), a unit mod p.  Case II: p when N(-a) = 1, else 1, since the
    kernel of y -> y^p + a*y on GF(p^f) is a GF(p)-line exactly when -a is
    a (p-1)-th power.  'zmod' (Z_j is all of Omega^0), Case III and every
    q >= 3 give 1.  lam is computed here from (m, i, e, s), and asserted to
    be a unit, which the engine's slice rule takes for granted.
    """
    p, e, n = P.p, P.e, P.n
    c = [0] + [i * e + e // (p - 1) for i in range(1, n + 1)]
    if P.q >= 3 or m > c[n]:
        return 1
    if m in c:
        fq = P.kctx.fq
        return p if norm_to_fp(fq, fq.neg(P.a.terms[()])) == 1 else 1
    i = max(j for j in range(n) if c[j] < m)
    s = vp_int(m, p)
    if n - i <= s:
        return 1
    assert (m - i * e) % p ** s == 0 and (m - i * e) // p ** s % p, (P, m)
    return p ** P.f if P.q == 1 else 1


class TestSliceDimensions:
    @pytest.mark.parametrize("p,f,r", [(2, 1, 2), (2, 2, 3), (3, 1, 3),
                                       (3, 2, 2), (5, 1, 2), (2, 1, 4)])
    def test_tower_slices(self, p, f, r):
        kctx = KContext(p, f, r)
        width = 4 if r <= 3 else 2
        for beta in itertools.product(range(-width, width + 1), repeat=r):
            v = vp_deg(beta, p)
            for j in range(r + 1):
                for s in range(4):
                    got_b = len(subspace_basis(kctx, beta, j, B_KIND, s))
                    got_z = len(subspace_basis(kctx, beta, j, Z_KIND, s))
                    assert got_b == dim_b(r, j, s, v), (beta, j, s)
                    assert got_z == dim_z(r, j, s, v), (beta, j, s)


# (p, f, r, e, n, a): every level 1..c_n + 1 of each context is checked
_CONTEXTS = [
    (2, 1, 1, 2, 2, "t1^1"),
    (2, 1, 2, 4, 3, "1"),
    (2, 1, 3, 2, 2, "t1^1+t2^-1"),
    (2, 2, 2, 2, 2, "g^1*t2^1"),
    (3, 1, 2, 6, 2, "t1^-1"),
    (3, 1, 3, 6, 1, "2"),
    (3, 2, 1, 2, 1, "g^1"),
    (5, 1, 2, 4, 1, "t1^1*t2^1"),
    (5, 2, 2, 20, 2, "1"),
]


class TestTableEntries:
    @pytest.mark.parametrize("p,f,r,e,n,a", _CONTEXTS)
    def test_tables(self, p, f, r, e, n, a):
        branches = set()
        checked = 0
        for q in (1, 2, 3):
            P = CDVFParams(p, f, r, e, n, q, a)
            for m in range(1, P.threshold(n) + 2):
                desc = descriptor(P, m)
                radius = ball_radius(P) + 2 if desc.branch == "ac" else 3
                table = graded_order(desc, radius)
                for beta, dim in table.items():
                    want = expected_entry(P, m, beta)
                    if want is not None:
                        assert dim == want, (q, m, desc.branch, beta)
                        checked += 1
                branches.add(desc.branch)
        assert {"theta", "ac", "zero"} <= branches
        assert checked > 0

    def test_zmod_and_outside_ball_are_reached(self):
        # a zmod level (n = 1, p | m) and a Case II slice outside the ball
        # whose entry is 0 because p^{z_level} divides it
        P = CDVFParams(2, 1, 1, 4, 1, 2, "1")
        desc = descriptor(P, 2)
        assert desc.branch == "zmod"
        table = graded_order(desc, 4)
        assert table[(4,)] == 0 and table[(3,)] == 1
        assert all(dim == expected_entry(P, 2, beta) for beta, dim in table.items())
        desc = descriptor(P, P.threshold(1))
        assert desc.branch == "ac" and ball_radius(P) == 0
        table = graded_order(desc, 3)
        assert table[(2,)] == 0 and table[(3,)] == 1

    def test_r0_orders_of_every_branch(self):
        # r = 0, every level of every branch, every nonzero a
        orders = set()
        levels = 0
        for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2)]:
            kctx = KContext(p, f, 0)
            for n in (1, 2):
                for e in (p ** (n - 1) * (p - 1) * k for k in (1, 2, 3)):
                    for code in range(1, p ** f):
                        for q in (1, 2, 3):
                            P = CDVFParams(p, f, 0, e, n, q, str(kctx.monomial((), code)))
                            for m in range(1, P.threshold(n) + 2):
                                order = graded_order(descriptor(P, m))
                                assert order == expected_r0_order(P, m), (P, m)
                                orders.add(order)
                                levels += 1
        assert {1, 2, 3, 4, 5, 7, 8, 9, 25} <= orders
        assert levels == 41598

    def test_r0_orders(self):
        # r = 0: theta orders are p^(f*[q = 1]); zmod and Case III orders are 1
        for p, f, e, n in [(2, 1, 2, 2), (3, 2, 6, 2), (5, 1, 4, 1)]:
            for q in (1, 2):
                P = CDVFParams(p, f, 0, e, n, q, "1")
                for m in range(1, P.threshold(n) + 2):
                    desc = descriptor(P, m)
                    want = expected_entry(P, m, ())
                    if want is not None:
                        assert graded_order(desc) == p ** want, (p, f, q, m)
