"""Presentations of the graded quotients gr^m of the unit filtration on
Milnor K-groups modulo p^n of a mixed-characteristic complete discrete
valuation field, in terms of differential forms of the residue field.

The arithmetic context carries p, the residue parameters (f, r), the
absolute ramification index e with e_0 = e/(p-1), the modulus exponent n,
the symbol degree q, and the residue class a of p*pi^{-e}.  The divisibility
p^{n-1}(p-1) | e is enforced at construction: it is the necessary numeric
side of requiring a p^n-th root of unity in the field, and it is exactly
what keeps the Case I relation-map coefficient integral.

Levels m >= 1 classify against the thresholds c_i = i*e + e_0 (c_0 = 0):

  Case I   (c_i < m < c_{i+1}, 0 <= i < n, s = v_p(m)):
      n-i > s:  coker of  theta : O^{q-2} -> O^{q-1}/B_s (+) O^{q-2}/B_s,
                theta(w) = (C^{-s} d w, (-1)^q (m-ie)/p^s C^{-s} w)
      n-i <= s: O^{q-1}/Z_{n-i} (+) O^{q-2}/Z_{n-i}
  Case II  (m = c_i, 0 < i <= n):
      O^{q-1}/(1+aC)Z_{n-i} (+) O^{q-2}/(1+aC)Z_{n-i}
      (for i = n the operator is applied on Z_1, the part of Z_0 where the
      Cartier operator is defined)
  Case III (m > c_n): the zero group.

Elements are pairs (w1, w2) of forms of degrees q-1 and q-2; under the
symbol map a pair (x dlog y_1 ^ ... , 0) corresponds to the symbol
{1 + pi^m x~, y~_1, ...} and (0, ...) to symbols ending in pi.

Case I is slice-diagonal: a degree-beta slice only meets relations at beta,
so each slice reduces by the Koszul homotopy, with no elimination.  That
reduction is a GF(p)-linear map which reads beta only mod p^(level+1), so
`reduce` builds it once per class of beta and keeps it on the descriptor,
which `descriptor` shares per level.  Only
Case II, where 1 + aC moves a slice beta divisible by p to beta/p + shift(a),
solves the relation subgroup on a support-closed degree window.  Canonical
representatives are deterministic and constant on cosets.
"""

from __future__ import annotations

import itertools
import math
import re

from .ffield import LaurentPoly, format_element, parse_element, residue_field
from .forms import (B_KIND, Z_KIND, DiffForm, cartier, d, format_form,
                    from_slice_vectors, in_Z, inv_cartier_iter, koszul_nf,
                    slice_vectors, subsets_of, subspace_basis, tower_nf,
                    wedge)
from .linalg import RowSpace

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"

PRIME = "pi"

DEFAULT_WINDOW_CAP = 100_000
DEFAULT_TABLE_RADIUS = 3


class OutOfRangeLevel(Exception):
    pass


class CoefficientNotIntegral(Exception):
    pass


class WindowOverflow(Exception):
    pass


class MalformedSymbol(Exception):
    pass


class PreconditionViolated(Exception):
    pass


def vp(n, p):
    """Exact p-adic valuation of a positive integer."""
    if n <= 0:
        raise ValueError("valuation of a nonpositive integer")
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s


class CDVFParams:
    """Arithmetic context (p, f, r, e, n, q, a) for the graded quotients."""

    def __init__(self, p, f, r, e, n, q, a):
        kctx = residue_field(p, f, r)
        if e < 1 or n < 1 or q < 1:
            raise ValueError("e, n, q must all be >= 1")
        if e % (p - 1) != 0:
            raise ValueError(f"(p-1) = {p - 1} must divide e = {e}: e_0 is not integral")
        if e % (p ** (n - 1) * (p - 1)) != 0:
            raise ValueError(
                f"p^(n-1)*(p-1) = {p ** (n - 1) * (p - 1)} must divide e = {e}")
        if isinstance(a, str):
            a = parse_element(kctx, a)
        if not isinstance(a, LaurentPoly) or a.ctx != kctx:
            raise ValueError("a must be an element of the residue field context")
        if a.is_zero():
            raise ValueError("a must be a nonzero residue")
        self.kctx = kctx
        self.p = p
        self.f = f
        self.r = r
        self.e = e
        self.n = n
        self.q = q
        self.a = a
        # (m, window_cap) -> the GrDescriptor of `descriptor`, for 1 <= m <= c_n
        self.descriptors = {}

    @property
    def e0(self):
        return self.e // (self.p - 1)

    def threshold(self, i):
        """c_i = i*e + e_0 for i >= 1, c_0 = 0."""
        return 0 if i == 0 else i * self.e + self.e0

    def __repr__(self):
        return (f"CDVFParams(p={self.p}, f={self.f}, r={self.r}, e={self.e}, "
                f"n={self.n}, q={self.q}, a={self.a})")


# ---------------------------------------------------------------------------
# the relation map of Case I and the 1 + aC operator of Case II

def _theta_coeff(params, m, i, s):
    ps = params.p ** s
    if (m - i * params.e) % ps != 0:
        raise CoefficientNotIntegral(
            f"p^s = {ps} does not divide m - i*e = {m - i * params.e}")
    lam = ((m - i * params.e) // ps) % params.p
    if params.q % 2 == 1:
        lam = (-lam) % params.p
    return lam


def theta(params, m, w):
    """Relation map w -> (C^{-s} d w, (-1)^q (m-ie)/p^s C^{-s} w).

    Defined for levels strictly between thresholds with n-i > s; its cokernel
    presents the graded quotient there.  w has degree q-2.
    """
    desc = descriptor(params, m)
    if desc.branch != "theta":
        raise PreconditionViolated(
            f"theta is only defined in Case I with n-i > s; m={m} gives {desc.case_text}")
    s = desc.s
    return inv_cartier_iter(d(w), s), inv_cartier_iter(w, s).scale(desc.theta_coeff)


def one_plus_ac(params, z):
    """Apply 1 + aC; z must be closed so that the Cartier operator applies."""
    return z + wedge(DiffForm.from_poly(params.a), cartier(z))


# ---------------------------------------------------------------------------
# descriptors

class GrDescriptor:
    """Quotient presentation of the graded piece at level m.

    The level is placed against c_1 < ... < c_n: with i the first index with
    m <= c_i it is Case II(i) when m = c_i, else Case I(i-1, s = v_p(m)); past
    c_n it is Case III.  tag, i and s record that, and branch is one of
    'theta' (Case I, n-i > s), 'zmod' (Case I, n-i <= s), 'ac' (Case II) or
    'zero' (Case III); the relation data needed by each branch is stored
    alongside.  `descriptor` hands out one object per (params, m,
    window_cap) for m <= c_n, so treat it as read-only: only `reduce` fills
    class_maps, its memo of `_class_maps` per class of beta.
    """

    def __init__(self, params, m, window_cap=DEFAULT_WINDOW_CAP):
        if m < 1:
            raise OutOfRangeLevel("levels start at m = 1 (gr^0 is outside this presentation)")
        if window_cap < 1:
            raise ValueError(f"the window cap must be at least 1, not {window_cap}")
        self.params = params
        self.m = m
        self.window_cap = window_cap
        self.i = self.s = self.theta_coeff = self.b_level = self.z_level = None
        self.class_maps = {}
        n = params.n
        i = next((i for i in range(1, n + 1) if m <= params.threshold(i)), None)
        if i is None:
            self.tag, self.branch = CASE_III, "zero"
        elif m == params.threshold(i):
            self.tag, self.i, self.branch = CASE_II, i, "ac"
            # i = n gives Z_0; the operator lives on its closed part Z_1
            self.z_level = max(n - i, 1)
        else:
            self.tag, self.i, self.s = CASE_I, i - 1, vp(m, params.p)
            if n - self.i > self.s:
                self.branch, self.b_level = "theta", self.s
                self.theta_coeff = _theta_coeff(params, m, self.i, self.s)
            else:
                self.branch, self.z_level = "zmod", n - self.i

    @property
    def index_data(self):
        """The case's indices as (name, value) pairs: i and s in Case I, i in
        Case II, none in Case III."""
        return [(k, v) for k, v in (("i", self.i), ("s", self.s)) if v is not None]

    @property
    def case_text(self):
        """The case as CaseI(i=1, s=0), CaseII(i=2) or CaseIII."""
        args = ", ".join(f"{k}={v}" for k, v in self.index_data)
        return f"Case{self.tag}({args})" if args else f"Case{self.tag}"

    @property
    def tower(self):
        """(kind, level) of the tower group both slots are taken modulo."""
        return (B_KIND, self.b_level) if self.branch == "theta" else (Z_KIND, self.z_level)

    def zero_element(self):
        k = self.params.kctx
        return GrElement(self,
                         DiffForm.zero(k, self.params.q - 1),
                         DiffForm.zero(k, self.params.q - 2))

    def element(self, w1, w2=None):
        k = self.params.kctx
        if w2 is None:
            w2 = DiffForm.zero(k, self.params.q - 2)
        return GrElement(self, w1, w2)

    def __repr__(self):
        return f"GrDescriptor(m={self.m}, case={self.case_text}, branch={self.branch})"


class GrElement:
    """A pair (w1, w2) of forms of degrees q-1 and q-2 inside a descriptor."""

    __slots__ = ("desc", "w1", "w2")

    def __init__(self, desc, w1, w2):
        q = desc.params.q
        k = desc.params.kctx
        if w1.kctx != k or w2.kctx != k:
            raise ValueError("element forms live over the wrong residue field")
        if not w1.is_zero() and w1.q != q - 1:
            raise ValueError(f"w1 must have degree {q - 1}, got {w1.q}")
        if not w2.is_zero() and w2.q != q - 2:
            raise ValueError(f"w2 must have degree {q - 2}, got {w2.q}")
        self.desc = desc
        self.w1 = w1 if w1.q == q - 1 else DiffForm.zero(k, q - 1)
        self.w2 = w2 if w2.q == q - 2 else DiffForm.zero(k, q - 2)

    @classmethod
    def _of(cls, desc, w1, w2):
        """The pair unchecked, for forms of degrees q-1, q-2 over desc's field."""
        el = object.__new__(cls)
        el.desc, el.w1, el.w2 = desc, w1, w2
        return el

    def _same_desc(self, other):
        """Same descriptor, or one at the same level over the same params."""
        return other.desc is self.desc or (
            other.desc.m == self.desc.m and other.desc.params is self.desc.params)

    def __add__(self, other):
        if not self._same_desc(other):
            raise ValueError("elements belong to different descriptors")
        return GrElement(self.desc, self.w1 + other.w1, self.w2 + other.w2)

    def is_zero_pair(self):
        return self.w1.is_zero() and self.w2.is_zero()

    def __eq__(self, other):
        return (isinstance(other, GrElement) and self._same_desc(other)
                and self.w1 == other.w1 and self.w2 == other.w2)

    def __repr__(self):
        return f"GrElement(({format_form(self.w1)}; {format_form(self.w2)}))"


def descriptor(params, m, window_cap=DEFAULT_WINDOW_CAP):
    """The GrDescriptor at level m: one shared object per (m, window_cap)
    for 1 <= m <= c_n, kept in params.descriptors; a fresh one in Case III,
    whose levels are unbounded."""
    desc = params.descriptors.get((m, window_cap))
    if desc is None:
        desc = GrDescriptor(params, m, window_cap)
        if m <= params.threshold(params.n):
            params.descriptors[m, window_cap] = desc
    return desc


# ---------------------------------------------------------------------------
# the slice-diagonal quotient of Case I

def _theta_relation_space(desc, beta, v1, v2):
    """Normal form of the slot vectors (v1, v2) of O^{q-1} (+) O^{q-2} at
    beta for 'theta' and 'zmod': both slots modulo the tower group
    (`tower_nf`), and for 'theta' at beta = p^s alpha, where B_s is zero,
    modulo the theta rows (alpha ^ x, lam x) for x in Lambda^{q-2}."""
    # C^{-s} fixes the GF(p) entries of d and lam, and lam = (-1)^q (m-ie)/p^s
    # is a unit as v_p(ie) > s = v_p(m).  So at p | alpha the rows (0, lam x)
    # kill the second slot; else the row at x = h(v1) (koszul_nf) leaves
    # (NF(v1), v2 - lam h(v1)), and the rows at x = alpha ^ y are (0, lam x).
    # The result is zero at the relation pivots, the subsets holding i0.
    params = desc.params
    kctx = params.kctx
    q = params.q
    kind, level = desc.tower
    ps = params.p ** level
    if desc.branch != "theta" or any(x % ps for x in beta):
        return (tower_nf(kctx, beta, q - 1, kind, level, v1),
                tower_nf(kctx, beta, q - 2, kind, level, v2))
    alpha = tuple(x // ps for x in beta)
    if not any(x % params.p for x in alpha):
        return v1, {}
    fq = kctx.fq
    n1, h = koszul_nf(kctx, alpha, q - 1, v1)
    v2 = dict(v2)
    for i, c in h.items():
        v2[i] = fq.sub(v2.get(i, 0), fq.mul(desc.theta_coeff, c))
    return n1, koszul_nf(kctx, alpha, q - 2, v2)[0]


def _class_maps(desc, beta):
    """_theta_relation_space at beta as one sparse map of the terms: the
    image of the unit vector at subset S of slot j (0 for O^{q-1}, 1 for
    O^{q-2}) is the list of its terms (slot, subset, code), at key (j, S).

    The function is GF(p^f)-linear in (v1, v2), with GF(p) entries, and
    slot 0 of its image does not read v2, so the map has three blocks:
    slot 0 -> slot 0, slot 0 -> slot 1 and slot 1 -> slot 1.  It reads
    beta only through whether p^level divides it (level = desc.tower[1]),
    the tower root mod p and beta/p^level mod p, so the map depends only
    on beta mod p^(level+1), the key `reduce` stores it under.
    """
    r, q = desc.params.r, desc.params.q
    subs = (subsets_of(r, q - 1), subsets_of(r, q - 2))
    rows = {}
    for j in (0, 1):
        for i, sub in enumerate(subs[j]):
            units = [{}, {}]
            units[j] = {i: 1}
            images = _theta_relation_space(desc, beta, *units)
            rows[j, sub] = [(slot, subs[slot][t], c)
                            for slot in (0, 1) for t, c in images[slot].items()]
    return rows


# ---------------------------------------------------------------------------
# reduction: Case II (1 + aC is not degree-homogeneous; use a closed window)

def _shift_bound(params):
    """Radius of the degree ball every window must contain.

    Contraction steps gamma -> gamma/p + shift(a) have all their periodic
    points inside this ball; seeding it makes canonical forms coset-constant.
    """
    supp = params.a.terms
    amax = max((max(abs(x) for x in alpha) if alpha else 0) for alpha in supp)
    return math.ceil(params.p * amax / (params.p - 1))


def _slice_key(gamma):
    """Sort key of the expansion-dominant order: larger sup-norm degrees
    come first, so every relation generator pivots on the degree of its
    tower part."""
    return -max((abs(x) for x in gamma), default=0), gamma


def _ac_closure(params, seeds, cap):
    """The seeds and every slice they reach under gamma -> gamma/p + delta,
    for the terms t^delta of a, in expansion-dominant order."""
    p = params.p
    window = set(seeds)
    shifts = sorted(params.a.terms)
    queue = list(window)
    while queue:
        # checked once per slice taken: first the seeds, then every slice
        # the closure adds, since each added slice is queued
        if len(window) > cap:
            raise WindowOverflow(f"degree window exceeded the configured cap {cap}")
        gamma = queue.pop()
        if any(x % p for x in gamma):
            continue
        for delta in shifts:
            nxt = tuple(x // p + dx for x, dx in zip(gamma, delta))
            if nxt not in window:
                window.add(nxt)
                queue.append(nxt)
    return sorted(window, key=_slice_key)


def _ac_window(params, seed_slices, cap):
    """The closure of the seeds and the contraction ball."""
    radius = _shift_bound(params)
    ball = itertools.product(range(-radius, radius + 1), repeat=params.r)
    return _ac_closure(params, itertools.chain(seed_slices, ball), cap)


def _flatten_form(params, w, slice_pos):
    nsub = len(subsets_of(params.r, w.q))
    return _digit_vec({slice_pos[alpha] * nsub + i: c
                       for alpha, vec in slice_vectors(w).items()
                       for i, c in vec.items()}, params.p, params.f)


def _unflatten(params, deg, vec, slices):
    nsub = len(subsets_of(params.r, deg))
    vecs = {}
    for col, digit in vec.items():
        rest, l = divmod(col, params.f)
        slice_idx, i = divmod(rest, nsub)
        codes = vecs.setdefault(slices[slice_idx], {})
        codes[i] = codes.get(i, 0) + digit * params.p ** l
    return from_slice_vectors(params.kctx, deg, vecs)


def _ac_relation_space(desc, deg, slices):
    """Row space of (1+aC) applied to the tower slices, over GF(p).

    slices must be closed under the contraction.  Also returns the number
    of deg-subsets and each slice's position, as _flatten_form lays them out.
    """
    # A row z = sum_i c_i t^gamma dlog S_i of the Z_{z_level}-slice at gamma,
    # times a basis power x^l of GF(p^f), gives the relation (1+aC)(x^l z)
    # with codes
    #   x^l c_i                          at (gamma, S_i)
    #   a_delta frob^{-1}(x^l c_i)       at (gamma/p + delta, S_i), if p | gamma
    # for each term a_delta t^delta of a (C drops z when p does not divide
    # gamma; z is closed, as koszul_slice checks when it memoizes the rows).
    # Codes are summed before their base-p digits are laid out, at column
    # (slice * nsub + i) * f + digit, since gamma/p + delta can be gamma
    # itself.
    params = desc.params
    kctx = params.kctx
    fq = kctx.fq
    p, f = params.p, params.f
    nsub = len(subsets_of(params.r, deg))
    slice_pos = {g: i for i, g in enumerate(slices)}
    # the rows are base-p digits, codes below p, on which every table of
    # fq is GF(p) arithmetic
    space = RowSpace(fq)
    shifts = sorted(params.a.terms.items())
    powers = [p ** l for l in range(f)]
    for gamma in slices:
        basis = subspace_basis(kctx, gamma, deg, Z_KIND, desc.z_level)
        if not basis:
            continue
        base = slice_pos[gamma] * nsub
        targets = []
        if not any(x % p for x in gamma):
            for delta, a_code in shifts:
                pos = slice_pos.get(tuple(x // p + dx for x, dx in zip(gamma, delta)))
                if pos is None:
                    raise AssertionError("relation image escaped the closed window")
                targets.append((pos * nsub, a_code))
        for row in basis:
            for xl in powers:
                acc = {}
                for i, c in row.items():
                    c = fq.mul(c, xl)
                    acc[base + i] = c  # targets reach column base + i only later
                    if targets:
                        root = fq.frob_inv(c)
                        for tbase, a_code in targets:
                            k = tbase + i
                            acc[k] = fq.add(acc.get(k, 0), fq.mul(a_code, root))
                space.add(_digit_vec(acc, p, f))
    return space, nsub, slice_pos


def _digit_vec(acc, p, f):
    """GF(p) vector of GF(p^f) codes keyed by k: digit l of code at k*f + l."""
    if f == 1:
        return {k: c for k, c in acc.items() if c}
    vec = {}
    for k, c in acc.items():
        col = k * f
        while c:
            c, digit = divmod(c, p)
            if digit:
                vec[col] = digit
            col += 1
    return vec


def _reduce_ac_slot(desc, w, deg):
    params = desc.params
    if w.is_zero():
        return w
    slices = _ac_window(params, {alpha for _, alpha in w.terms}, desc.window_cap)
    space, _, slice_pos = _ac_relation_space(desc, deg, slices)
    return _unflatten(params, deg, space.reduce(_flatten_form(params, w, slice_pos)),
                      slices)


# ---------------------------------------------------------------------------
# public reduction interface

def reduce(el):
    """Canonical representative of el in its descriptor's presentation."""
    desc = el.desc
    params = desc.params
    if desc.branch == "zero":
        return desc.zero_element()
    if desc.branch == "ac":
        return GrElement._of(desc, _reduce_ac_slot(desc, el.w1, params.q - 1),
                             _reduce_ac_slot(desc, el.w2, params.q - 2))
    # one cached linear map per class of beta mod p^(level+1) (_class_maps),
    # applied term by term: outs[slot][T, beta] += c * x for each image
    # term (slot, T, x) of the input term's subset
    add, mul = params.kctx.fq.add, params.kctx.fq.mul
    mod = params.p ** (desc.tower[1] + 1)
    maps = desc.class_maps
    outs = ({}, {})
    for j, w in enumerate((el.w1, el.w2)):
        for (sub, beta), c in w.terms.items():
            key = tuple([x % mod for x in beta])
            rows = maps.get(key)
            if rows is None:
                rows = maps[key] = _class_maps(desc, beta)
            for slot, t, x in rows[j, sub]:
                out = outs[slot]
                k = t, beta
                out[k] = add(out.get(k, 0), mul(c, x))
    return GrElement._of(desc, DiffForm._of(params.kctx, params.q - 1, outs[0]),
                         DiffForm._of(params.kctx, params.q - 2, outs[1]))


def is_zero(el):
    return reduce(el).is_zero_pair()


# ---------------------------------------------------------------------------
# orders and dimension tables

def _slice_fp_dim(desc, beta):
    """GF(p)-dimension of the slice-diagonal quotient pair at degree beta: the
    tower rows of both slots, and C(r, q-2) theta rows (_theta_relation_space).
    With (kind, level) = desc.tower it reads beta only through whether p^level
    divides it: if not, a slot's tower rows are the C(r-1, deg-1) of a Koszul
    image; if so, they are all C(r, deg) (Z) or none (B), and theta rows count.
    """
    params = desc.params
    kind, level = desc.tower
    free = 0
    for deg in (params.q - 1, params.q - 2):
        rows = subspace_basis(params.kctx, beta, deg, kind, level)
        free += len(subsets_of(params.r, deg)) - len(rows)
    if desc.branch == "theta" and not any(x % params.p ** level for x in beta):
        free -= len(subsets_of(params.r, params.q - 2))
    return params.f * free


def _ac_closure_entries(desc):
    """Exact Case II entries, summed over both form degrees, on the closure
    of the slices whose (1+aC) rows trail in the contraction ball.

    In the expansion-dominant order of the ball (_slice_key) a slice gamma
    trails when p | gamma and some image gamma/p + delta sits at or before
    gamma.  Every other slice's (1+aC) rows lead at that slice: a Z-row has
    a 1 at its smallest column and x^l has the code p^l, so each row has its
    smallest column at gamma, with digit 1, and the slice holds
    f*dim Z_{z_level} pivots, which is the class entry of _slice_fp_dim.
    The rows of the closure of the trailing slices under the contraction
    (_ac_closure) touch only its columns, and every slice outside it leads
    with pivots outside it.  So the pivots of the whole row space on the
    closure are those of the closure's own row space (_ac_relation_space),
    and the entry at beta in the closure is f*C(r, deg) less its pivots at
    beta, summed over deg = q-1, q-2.  Outside the ball every slice leads,
    since its images have a smaller sup-norm, so the class entry is exact
    there.

    The ball |gamma|_inf <= R = _shift_bound is closed under the
    contraction, so the trailing slices are its multiples of p with an
    image whose sort key is at most their own, and the cap is compared
    with the ball size (2R+1)^r; no window is built.

    The entries depend on the residue field, q, z_level and a alone, not on
    m, e or n, so they are kept in kctx.ac_closure_memo under (q, z_level,
    terms of a): every Case II level with the same z_level, both sides of a
    Case II shift-check among them, shares one dict, so treat it as
    read-only.  The cap is checked on every call, before the lookup; the
    closure lies in the ball, so _ac_closure's own check cannot fire after.
    """
    params = desc.params
    p, f, r = params.p, params.f, params.r
    radius = _shift_bound(params)
    cap = desc.window_cap
    memo = params.kctx.ac_closure_memo
    memo_key = (params.q, desc.z_level, frozenset(params.a.terms.items()))
    if (2 * radius + 1) ** r > cap:
        raise WindowOverflow(f"degree window exceeded the configured cap {cap}")
    if memo_key in memo:
        return memo[memo_key]
    multiples = range(-(radius // p) * p, radius + 1, p)
    trailing = []
    for gamma in itertools.product(multiples, repeat=r):
        key = _slice_key(gamma)
        if any(_slice_key(tuple(x // p + dx for x, dx in zip(gamma, delta))) <= key
               for delta in params.a.terms):
            trailing.append(gamma)
    reach = _ac_closure(params, trailing, cap)
    entries = dict.fromkeys(reach, 0)
    for deg in (params.q - 1, params.q - 2):
        space, nsub, _ = _ac_relation_space(desc, deg, reach)
        for gamma in reach:
            entries[gamma] += f * nsub
        for piv in space.rows:
            entries[reach[piv // (nsub * f)]] -= 1
    memo[memo_key] = entries
    return entries


def _check_radius(radius):
    if radius < 0:
        raise ValueError(f"the degree window radius must be at least 0, not {radius}")


def _degree_box(r, radius):
    """The degrees |beta|_inf <= radius, in ascending (product) order."""
    _check_radius(radius)
    return list(itertools.product(range(-radius, radius + 1), repeat=r))


def dim_values(desc, radius=DEFAULT_TABLE_RADIUS):
    """The GF(p)-dimension table of graded_order as one list in the order of
    _degree_box(r, radius); at r = 0 its one entry is the order's exponent.

    Every slice of a nonzero branch first gets its class entry: the
    slice-diagonal quotient of _slice_fp_dim, which reads beta only through
    whether p^level divides it, level = desc.tower[1] (s for 'theta',
    z_level for 'zmod' and 'ac').  So the list is filled from two entries,
    one off and one on the multiples of p^level, set by index; at level 0
    every beta is such a multiple.  Case II then sets the exact entries on
    the closure of the slices whose (1+aC) rows trail in the contraction
    ball (_ac_closure_entries) that fall in the box, by mixed-radix index.
    So a table costs two slice counts plus at most one elimination of that
    closure, however large radius is, and builds no degree tuple outside it.
    """
    _check_radius(radius)
    params = desc.params
    r = params.r
    side = 2 * radius + 1
    if desc.branch == "zero":
        return [0] * side ** r
    mod = params.p ** desc.tower[1]
    on = off = _slice_fp_dim(desc, (0,) * r)
    if mod > 1 and radius and r:
        # every index prime to p, so the Koszul memo checks the whole
        # complex d o d = 0 at this slice
        off = _slice_fp_dim(desc, (1,) * r)
    values = [off] * side ** r
    if on != off:
        # the box index of each r-tuple of multiples, last coordinate fastest
        starts = [0]
        for _ in range(r):
            starts = [i * side + j for i in starts for j in range(radius % mod, side, mod)]
        for i in starts:
            values[i] = on
    if desc.branch == "ac":
        for beta, c in _ac_closure_entries(desc).items():
            if max(map(abs, beta), default=0) <= radius:
                i = 0
                for x in beta:
                    i = i * side + x + radius
                values[i] = c
    return values


def graded_order(desc, radius=DEFAULT_TABLE_RADIUS):
    """Exact group order (r = 0) or a per-degree GF(p)-dimension table (r >= 1):
    the dim_values entries keyed by _degree_box(r, radius), in its order."""
    values = dim_values(desc, radius)
    r = desc.params.r
    return desc.params.p ** values[0] if r == 0 else dict(zip(_degree_box(r, radius), values))


# ---------------------------------------------------------------------------
# symbols

class SymbolExpr:
    """A restricted symbol {1 + pi^m u~, y_1, ..., y_{q-1}}.

    u is the residue of the unit part of the first entry; tail entries are
    lifted k-monomials, or at most one PRIME marker for the prime element.
    """

    __slots__ = ("m", "u", "tail")

    def __init__(self, m, u, tail):
        if u is None or u.is_zero():
            raise MalformedSymbol("the unit residue u must be nonzero")
        primes = sum(1 for t in tail if t == PRIME)
        if primes > 1:
            raise MalformedSymbol("at most one prime-element entry is allowed")
        for t in tail:
            if t == PRIME:
                continue
            if not isinstance(t, LaurentPoly):
                raise MalformedSymbol(f"tail entry {t!r} is not an element of k")
            if len(t.terms) != 1:
                raise MalformedSymbol(f"tail entry {format_element(t)!r} is not a monomial")
        self.m = m
        self.u = u
        self.tail = list(tail)

    def __repr__(self):
        return f"SymbolExpr({format_symbol(self)!r})"


def _dlog_of_monomial(kctx, mono):
    """dlog(c t^alpha) = sum alpha_i dlog t_i; the coefficient contributes 0."""
    (alpha, _code), = mono.terms.items()
    zero = (0,) * kctx.r
    return DiffForm._of(kctx, 1, {((i,), zero): x % kctx.p
                                  for i, x in enumerate(alpha, 1)})


def symbol_to_forms(params, sym):
    """Evaluate the symbol map on a restricted symbol, landing in gr^m.

    A tail of monomials gives (u dlog y_1 ^ ... ^ dlog y_{q-1}, 0); a tail
    ending in the prime element gives (0, u dlog y_1 ^ ... ^ dlog y_{q-2}).
    A prime entry elsewhere is first moved to the last slot, with the sign
    of the transpositions applied to u.
    """
    kctx = params.kctx
    q = params.q
    if len(sym.tail) != q - 1:
        raise MalformedSymbol(f"tail has {len(sym.tail)} entries, expected {q - 1}")
    if sym.u.ctx != kctx:
        raise MalformedSymbol("unit residue lives over the wrong residue field")
    desc = descriptor(params, sym.m)
    prime_pos = [j for j, t in enumerate(sym.tail) if t == PRIME]
    u = sym.u
    # moving the prime from slot j to slot q-2 takes (q-2) - j transpositions
    if prime_pos and ((q - 2) - prime_pos[0]) % 2 == 1:
        u = -u
    w = DiffForm.from_poly(u)
    for mono in sym.tail:
        if mono != PRIME:
            w = wedge(w, _dlog_of_monomial(kctx, mono))
    if prime_pos:
        return GrElement(desc, DiffForm.zero(kctx, q - 1), w)
    return GrElement(desc, w, DiffForm.zero(kctx, q - 2))


_SYMBOL_RE = re.compile(r"^\{1\+pi\^(\d+)\*\((.*?)\)(;.*)?\}$")


def parse_symbol(kctx, text):
    text = text.strip().replace(" ", "")
    m = _SYMBOL_RE.match(text)
    if not m:
        raise MalformedSymbol(
            "expected {1+pi^M*(element); entry; ...} with entries monomials or 'pi'")
    level = int(m.group(1))
    u = parse_element(kctx, m.group(2))
    tail = []
    rest = m.group(3)
    if rest:
        for entry in rest[1:].split(";"):
            if entry == "pi":
                tail.append(PRIME)
            else:
                tail.append(parse_element(kctx, entry))
    return SymbolExpr(level, u, tail)


def format_symbol(sym):
    parts = [f"1+pi^{sym.m}*({format_element(sym.u)})"]
    for t in sym.tail:
        parts.append("pi" if t == PRIME else format_element(t))
    return "{" + ";".join(parts) + "}"


# ---------------------------------------------------------------------------
# consistency of the level shift (n, m) -> (n-1, m-e)

class ShiftConsistencyReport:
    """Comparison of the presentations at (n, m) and (n-1, m-e), whose
    descriptors are case_high and case_low.

    Multiplication by p carries the filtration at level n-1 onto the one at
    level n once m > e + e_0, so the two presentations must agree under the
    index shift i -> i-1.  Any mismatch is reported, never patched.
    """

    def __init__(self, params, m):
        self.params = params
        self.m = m
        self.case_high = None
        self.case_low = None
        self.structure_ok = False
        self.structure_note = ""
        self.order_high = None
        self.order_low = None
        self.orders_ok = True
        self.dim_mismatches = []
        self.probe_flags = []

    @property
    def consistent(self):
        return (self.structure_ok and self.orders_ok
                and not self.dim_mismatches and not self.probe_flags)


def _descriptors_shift_match(high, low):
    if high.tag == CASE_III and low.tag == CASE_III:
        return True, "both beyond the top threshold"
    if high.tag != low.tag:
        return False, f"case tags differ: {high.case_text} vs {low.case_text}"
    if low.i != high.i - 1:
        return False, f"index shift broken: i={high.i} vs i={low.i}"
    if high.branch != low.branch:
        return False, f"branches differ: {high.branch} vs {low.branch}"
    if high.branch == "theta":
        if high.s != low.s:
            return False, f"valuations differ: s={high.s} vs s={low.s}"
        if high.theta_coeff != low.theta_coeff:
            return False, (f"relation-map coefficients differ: "
                           f"{high.theta_coeff} vs {low.theta_coeff}")
    elif high.z_level != low.z_level:
        return False, f"tower levels differ: {high.z_level} vs {low.z_level}"
    return True, f"case {high.tag} with index shift {high.i}->{low.i}"


def level_shift_consistency(params, m, probes=(), radius=DEFAULT_TABLE_RADIUS,
                            window_cap=DEFAULT_WINDOW_CAP):
    """The ShiftConsistencyReport at (n, m): the two dim_values lists in one
    comparison, read as orders at r = 0, and else, only if they differ, the
    degrees whose entries differ, in _degree_box order."""
    _check_radius(radius)
    if params.n <= 1:
        raise PreconditionViolated("the level shift needs n > 1")
    if m <= params.e + params.e0:
        raise PreconditionViolated(
            f"the level shift needs m > e + e_0 = {params.e + params.e0}")
    report = ShiftConsistencyReport(params, m)
    d_high = report.case_high = descriptor(params, m, window_cap)
    # the residue field, with its memos, and a are shared: neither depends on n
    low = CDVFParams(params.p, params.f, params.r, params.e, params.n - 1, params.q, params.a)
    d_low = report.case_low = descriptor(low, m - params.e, window_cap)
    report.structure_ok, report.structure_note = _descriptors_shift_match(d_high, d_low)
    # same beta on both sides: a theta level here has s < n-i <= v_p(e), so v_p(m-e) = s
    v_high = dim_values(d_high, radius)
    v_low = dim_values(d_low, radius)
    if params.r == 0:
        report.order_high, report.order_low = params.p ** v_high[0], params.p ** v_low[0]
        report.orders_ok = v_high == v_low
    elif v_high != v_low:
        report.dim_mismatches = [
            (beta, hi, lo) for beta, hi, lo in zip(_degree_box(params.r, radius),
                                                   v_high, v_low) if hi != lo]
    for w1, w2 in probes:
        z_high = is_zero(GrElement(d_high, w1, w2))
        z_low = is_zero(GrElement(d_low, w1, w2))
        if z_high != z_low:
            report.probe_flags.append(
                (format_form(w1), format_form(w2), z_high, z_low))
    return report


def make_z_tower_element(kctx, w, level):
    """A member of Z_level built by iterated inverse Cartier; w is arbitrary."""
    z = inv_cartier_iter(w, level)
    if not in_Z(z, level):
        raise AssertionError(f"inverse Cartier left Z_{level}: {format_form(z)}")
    return z
