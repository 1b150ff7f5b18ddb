"""Verification of the q = 1 graded quotients on concrete local fields.

A field K is specified by an Eisenstein polynomial E with integer
coefficients over the unramified extension of Q_p of degree f; its ring of
integers is modeled exactly as O_K/(pi^N), one flat tuple of e*f integers per
element (see `FieldContext` for the layout and the truncation rule).
Products are formed over Z and truncated only after reduction, so no guard
digits are needed.

The finite group H = (1 + pi O_K)/(1 + pi^N O_K) carries the filtration
H_m = U^m/U^N, and P is its subgroup of p^n-th powers, the image of
u -> u^{p^n} (an endomorphism of an abelian group, hence a subgroup).  P
equals the intersection of (K^x)^{p^n} with the 1-units up to level N
because a p^n-th power pi^{a p^n} zeta^{p^n} u^{p^n} is a 1-unit only when
a = 0 and zeta = 1.  Since |H_m| = p^{f(N-m)}, the order of gr^m is

    [H_m : P_m] / [H_{m+1} : P_{m+1}] = p^f |P_{m+1}| / |P_m|,

P_m = P intersect H_m.  It is measured in two independent ways, each
returning the plain dict {m: |gr^m|} for 1 <= m < N:

* `filtered_unit_group` (used by `compare` and `verify-q1`) takes the
  generators g_{j,t} = 1 + y^t pi^j of H, raises them to the p^n-th power
  and reduces them to a filtered basis of P, one element per position of
  the GF(p)-refined filtration (the filtration method for (O_K/m)^*,
  Cohen, Advanced Topics in Computational Number Theory, 4.2).  Each
  position at level m divides |gr^m| by p.  It costs a polynomial number
  of products in N.
* `unit_group` enumerates all p^{f(N-1)} elements of H and counts the
  distinct p^n-th powers by level.  It is exponential in N, refuses an H
  larger than its cap, and stays as the reference the tests hold the
  filtered oracle to.

Fixture format (text, '#' comments)::

    p: 2
    f: 1
    coeffs: 2 2 1        # ascending, monic, degree e
"""

from __future__ import annotations

import itertools
import math

from .ffield import modulus


class NotEisenstein(Exception):
    pass


class TooLarge(Exception):
    pass


class ParamsMismatch(Exception):
    pass


DEFAULT_ENUM_CAP = 1 << 22


# ---------------------------------------------------------------------------
# the Eisenstein extension

class EisensteinPoly:
    """Monic degree-e polynomial over W(GF(p^f)), Eisenstein at p.

    The coefficients are integers (ascending, leading 1); the Eisenstein
    condition -- constant term of p-valuation exactly 1, the
    others of positive valuation -- is checked at construction.
    """

    def __init__(self, p, f, coeffs):
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise NotEisenstein("polynomial must be monic of degree >= 1")
        e = len(coeffs) - 1
        c0 = coeffs[0]
        if c0 % p != 0 or (c0 // p) % p == 0:
            raise NotEisenstein("constant term must have p-valuation exactly 1")
        for c in coeffs[1:-1]:
            if c % p != 0:
                raise NotEisenstein("middle coefficients must have positive p-valuation")
        self.p = p
        self.f = f
        self.e = e
        self.coeffs = list(coeffs)

    def __repr__(self):
        return f"EisensteinPoly(p={self.p}, f={self.f}, coeffs={self.coeffs})"


def load_fixture(path):
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition(":")
            data[key.strip()] = value.strip()
    for key in ("p", "coeffs"):
        if key not in data:
            raise ValueError(f"fixture {path} has no '{key}:' line")
    data.setdefault("f", "1")

    def parse(key, convert=int):
        try:
            return convert(data[key])
        except ValueError:
            raise ValueError(f"fixture {path}: cannot read '{key}: {data[key]}' "
                             "as integers") from None

    p, f = parse("p"), parse("f")
    coeffs = parse("coeffs", lambda text: [int(x) for x in text.split()])
    return EisensteinPoly(p, f, coeffs)


class FieldContext:
    """Exact arithmetic in O_K/(pi^N) for K defined by an Eisenstein polynomial.

    O_K = W[pi]/(E(pi)) with W = Z_p[y]/(g(y)), where g is the integer lift
    of the residue field's stored modulus (ffield.modulus; no GF(p^f) tables
    are built), so g = y and W = Z_p when f = 1.  An
    element is one flat tuple of e*f integers: entry j*f + k holds the
    coefficient of pi^j y^k.  Since a*pi^j lies in pi^N O_K exactly when
    v_p(a) >= (N - j)/e, entry j*f + k is kept modulo p^ceil((N-j)/e), and
    every class of O_K/(pi^N) has exactly one tuple.

    `mul` forms the product over Z, reduces it by the monic g and then by
    the monic E, and only then truncates; reduction modulo pi^N is a ring
    homomorphism, so nothing is lost by truncating last.
    """

    def __init__(self, poly, N):
        if N < 2:
            raise ValueError("the cutoff N must be >= 2")
        self.poly = poly
        p, f, e = poly.p, poly.f, poly.e
        self.p, self.f, self.e, self.N = p, f, e, N
        g = modulus(p, f)[:-1]
        self._mods = tuple(p ** math.ceil((N - j) / e)
                           for j in range(e) for _ in range(f))
        # a product has pi-degree <= 2e-2 and y-degree <= 2f-2; the
        # coefficient of pi^j y^k sits at j*s + k
        s = 2 * f - 1
        self._plen = (2 * e - 1) * s
        self._dest = [[(ja + jb) * s + ka + kb
                       for jb in range(e) for kb in range(f)]
                      for ja in range(e) for ka in range(f)]
        # reduction steps (pos, [(target, coeff)]): y^k with k >= f by g,
        # highest first, then pi^j with j >= e by E, highest first
        steps = [(j * s + k, [(j * s + k - f + t, c) for t, c in enumerate(g) if c])
                 for j in range(2 * e - 1) for k in range(2 * f - 2, f - 1, -1)]
        steps += [(j * s + k, [((j - e + t) * s + k, c)
                               for t, c in enumerate(poly.coeffs[:-1]) if c])
                  for j in range(2 * e - 2, e - 1, -1) for k in range(f)]
        self._steps = steps
        self._out = [j * s + k for j in range(e) for k in range(f)]
        self._one = self.from_int(1)

    # -- element helpers

    def one(self):
        return self._one

    def pi(self):
        if self.e == 1:
            return self.from_int(-self.poly.coeffs[0])
        return self.canon((0,) * self.f + (1,) + (0,) * (self.f * (self.e - 1) - 1))

    def from_int(self, n):
        return self.canon((n,) + (0,) * (self.e * self.f - 1))

    def lift(self, code):
        """The element of W whose y-coefficients are the base-p digits of
        an FqContext code; its residue is that code."""
        digits = []
        for _ in range(self.f):
            code, d = divmod(code, self.p)
            digits.append(d)
        return self.canon(tuple(digits) + (0,) * (self.f * (self.e - 1)))

    def canon(self, vec):
        return tuple(c % m for c, m in zip(vec, self._mods))

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self._mods))

    def sub(self, x, y):
        return tuple((a - b) % m for a, b, m in zip(x, y, self._mods))

    def mul(self, x, y):
        prod = [0] * self._plen
        for xa, row in zip(x, self._dest):
            if xa:
                for d, yb in zip(row, y):
                    prod[d] += xa * yb
        for pos, terms in self._steps:
            c = prod[pos]
            if c:
                for t, a in terms:
                    prod[t] -= c * a
        return tuple(prod[i] % m for i, m in zip(self._out, self._mods))

    def pow(self, x, k):
        # acc starts at the lowest set bit of k, so no multiply is by one()
        acc = None
        while k:
            if k & 1:
                acc = self.canon(x) if acc is None else self.mul(acc, x)
            k >>= 1
            if k:
                x = self.mul(x, x)
        return self.one() if acc is None else acc

    def val(self, x):
        """pi-adic valuation in {0, ..., N}; N means zero in O_K/(pi^N)."""
        x = self.canon(x)
        best = self.N
        for i, c in enumerate(x):
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                best = min(best, self.e * v + i // self.f)
        return best

    def a_residue(self):
        """Residue class of p * pi^{-e} in GF(p^f); it lies in GF(p).

        E(pi) = 0 gives p * pi^{-e} = -1/(c_0/p + (c_1/p) pi + ...), whose
        residue is -(c_0/p)^{-1} mod p.
        """
        p = self.p
        return -pow(self.poly.coeffs[0] // p, -1, p) % p


def build_field(poly, N):
    return FieldContext(poly, N)


# ---------------------------------------------------------------------------
# the unit group modulo p^n-th powers

def same_orders(lo, hi):
    """True when the orders of two cutoffs agree on their common levels and
    every level only the longer one has is 1."""
    shorter, longer = sorted((lo, hi), key=len)
    return all(order == shorter.get(m, 1) for m, order in longer.items())


def _check_cutoff(ctx, n):
    # N > n*e + e/(p-1), compared exactly so a non-integral e_0 cannot
    # slip through the floor
    if (ctx.p - 1) * ctx.N <= (ctx.p - 1) * n * ctx.e + ctx.e:
        c_n = n * ctx.e + ctx.e / (ctx.p - 1)
        raise ValueError(
            f"cutoff N = {ctx.N} must exceed c_n = n*e + e_0 = {c_n:g}")


def _lead(ctx, x):
    """(k*f + t, c) for a 1-unit x of level k = v(x - 1) < N; None for x = 1.

    With k = v*e + j, the lead of x is the residue of (x - 1)/(p^v pi^j) in
    GF(p)^f, entry t being (x - 1)[j*f + t] // p^v mod p; it is additive
    on H_k/H_{k+1}.  t is its first nonzero coordinate and c the value there.
    """
    d = ctx.sub(x, ctx.one())
    k = ctx.val(d)
    if k >= ctx.N:
        return None
    v, j = divmod(k, ctx.e)
    pv = ctx.p ** v
    lead = [(d[j * ctx.f + t] // pv) % ctx.p for t in range(ctx.f)]
    t = next(t for t, c in enumerate(lead) if c)
    return k * ctx.f + t, lead[t]


def filtered_basis(ctx, gens):
    """A filtered basis of the subgroup of H generated by the 1-units gens.

    Returns {k*f + t: b}, at most one element per position: b has level k
    and a lead that is zero before coordinate t and 1 at t.  An element is
    inserted by clearing its lead with the basis element at its position
    (multiplying by b^(p - c)) until it reaches 1 or an empty position;
    there it is normalised (x^(1/c)) and stored, and its p-th power is
    inserted next.  So the p-th power of every basis element is a product of
    basis elements at higher positions, every element of the subgroup is a
    unique product of basis elements with exponents in 0..p-1, and the
    subgroup meets H_m in p^(number of positions at levels >= m) elements.
    """
    p = ctx.p
    basis = {}
    for x in gens:
        lead = _lead(ctx, x)
        while lead is not None:
            pos, c = lead
            b = basis.get(pos)
            if b is None:
                b = basis[pos] = ctx.pow(x, pow(c, -1, p))
                x = ctx.pow(b, p)
            else:
                x = ctx.mul(x, ctx.pow(b, p - c))
            # the lead is read off the element again, never carried along,
            # and it must move up: a step that does not is a bug, not a loop
            lead = _lead(ctx, x)
            if lead is not None and lead[0] <= pos:
                raise AssertionError(
                    f"elimination step at position {pos} reached position {lead[0]}")
    return basis


def filtered_unit_group(ctx, n):
    """{m: |gr^m|} for 1 <= m < N from a filtered basis of P = H^{p^n}.

    The leads of g_{j,t} = 1 + y^t pi^j (1 <= j < N, 0 <= t < f) span every
    level, so these generate H and their p^n-th powers generate P.
    """
    _check_cutoff(ctx, n)
    pn = ctx.p ** n
    one, pi = ctx.one(), ctx.pi()
    gens = []
    pi_j = one
    for _ in range(ctx.N - 1):
        pi_j = ctx.mul(pi_j, pi)
        for t in range(ctx.f):
            gens.append(ctx.pow(ctx.add(one, ctx.mul(ctx.lift(ctx.p ** t), pi_j)), pn))
    orders = dict.fromkeys(range(1, ctx.N), ctx.p ** ctx.f)
    for pos in filtered_basis(ctx, gens):
        orders[pos // ctx.f] //= ctx.p
    return orders


def unit_group(ctx, n, cap=DEFAULT_ENUM_CAP):
    _check_cutoff(ctx, n)
    size = ctx.p ** (ctx.f * (ctx.N - 1))
    if size > cap:
        raise TooLarge(f"|H| = {size} exceeds the enumeration cap {cap}")
    codes = range(ctx.p ** ctx.f)
    # terms[j-1][code] = [code] * pi^j
    terms = []
    pi = ctx.pi()
    pi_pow = ctx.one()
    for _ in range(ctx.N - 1):
        pi_pow = ctx.mul(pi_pow, pi)
        terms.append([ctx.mul(ctx.lift(code), pi_pow) for code in codes])
    pn = ctx.p ** n
    p_elems = set()
    one = ctx.one()
    for digit_vec in itertools.product(codes, repeat=ctx.N - 1):
        u = one
        for row, code in zip(terms, digit_vec):
            if code:
                u = ctx.add(u, row[code])
        p_elems.add(ctx.pow(u, pn))
    # hist[k] counts the elements of P at level k; x = 1 sits at level N
    hist = [0] * (ctx.N + 1)
    for x in p_elems:
        hist[ctx.val(ctx.sub(x, one))] += 1
    orders = {}
    above = hist[ctx.N]  # |P_{m+1}|
    for m in range(ctx.N - 1, 0, -1):
        order, rem = divmod(ctx.p ** ctx.f * above, above + hist[m])
        if rem:
            raise AssertionError("filtration indices do not telescope")
        orders[m] = order
        above += hist[m]
    return dict(sorted(orders.items()))


# ---------------------------------------------------------------------------
# comparison against the symbolic engine

class CompareReport:
    def __init__(self, rows, gr0_pi):
        self.rows = rows  # list of (m, oracle_order, engine_order, match)
        self.gr0_pi = gr0_pi

    @property
    def all_match(self):
        return all(match for _, _, _, match in self.rows)


def compare(ctx, params, orders):
    """Per-level comparison of the oracle's orders {m: |gr^m|} (from
    `unit_group` or `filtered_unit_group` of ctx at params.n) against the
    presentations.  gr0_pi is not measured: it is p^n by the prime element.
    """
    from . import graded

    if params.r != 0:
        raise ParamsMismatch("oracle comparison requires a finite residue field (r = 0)")
    if (params.p, params.f, params.e) != (ctx.p, ctx.f, ctx.e):
        raise ParamsMismatch(
            f"field context (p={ctx.p}, f={ctx.f}, e={ctx.e}) does not match "
            f"params (p={params.p}, f={params.f}, e={params.e})")
    a_ctx = ctx.a_residue()
    if params.a.constant_code() != a_ctx or len(params.a.terms) != 1:
        raise ParamsMismatch(
            f"a mismatch: params carry {params.a}, the field gives {a_ctx}")
    rows = []
    for m in range(1, ctx.N):
        desc = graded.descriptor(params, m)
        engine = graded.graded_order(desc)
        oracle = orders[m]
        rows.append((m, oracle, engine, oracle == engine))
    # level 0 carries the prime element's contribution, which does not mix
    # with the 1-unit filtration; the Teichmueller units add none, since p
    # does not divide p^f - 1
    return CompareReport(rows, ctx.p ** params.n)
