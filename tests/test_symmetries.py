"""Symmetries of the residue field, through the public API only.

An automorphism sigma of k that keeps the Laurent restriction and the
sup-norm of degrees -- a permutation of the t_i, an inversion
t_i -> t_i^{-1}, or Frobenius on the GF(p^f) codes -- commutes with d, C,
the towers B_s and Z_s and theta, and sigma(a C z) = sigma(a) C(sigma z).  So
it carries the relation subgroup at (a, m) onto the one at (sigma(a), m):

* is_zero is invariant element by element: el is zero at a exactly when
  sigma(el) is zero at sigma(a), and sigma(el - reduce(el)) is zero there;
* at a Case II level, the sum of the dim_values entries over a shell
  |beta|_inf = k is invariant.  A single entry is not: it counts pivots in
  the slice order (-|gamma|_inf, gamma), whose lexicographic tie-break no
  sigma keeps.  But the pivots on the slices of sup-norm >= k number the
  rank of the relations less the rank of those on the slices of sup-norm
  < k, and sigma moves neither.

sigma sends t^alpha dlog t_S to the image monomial: t^sigma(alpha) times the
dlog of the image indices, re-sorted with the sign of that sort, and a
factor -1 for each inverted index in S (dlog t^{-1} = -dlog t).
"""

import itertools
import math
import random

import pytest

from grmk.ffield import LaurentPoly
from grmk.forms import DiffForm
from grmk.graded import (CASE_II, CDVFParams, descriptor, dim_values, is_zero,
                         reduce)
from grmk.selftest import rand_form

# (p, f, r, e, n, q, a)
CONTEXTS = [
    (2, 1, 2, 4, 2, 2, "t1^-2+t2^1"),
    (2, 2, 2, 4, 2, 2, "g^1*t1^1+t2^-1"),
    (2, 1, 3, 4, 2, 3, "t1^-2+t2^1"),
    (3, 1, 2, 6, 2, 2, "2*t1^1+t2^-1"),
    (3, 2, 3, 6, 1, 2, "g^1*t1^1+t2^-1"),
    (5, 1, 2, 4, 1, 2, "t1^-2+t2^1"),
    (5, 2, 2, 4, 1, 3, "g^1*t1^1+t2^-1"),
]
DRAWS = 2


def _ids(ctx):
    return "-".join(map(str, ctx))


def _symmetries(r, f):
    """Each sigma as (name, perm, inverted, frob): t_i -> t_perm[i], to the
    power -1 if i is inverted, and codes raised to the p-th power if frob."""
    ident = {i: i for i in range(1, r + 1)}
    out = [("cycle", {i: i % r + 1 for i in range(1, r + 1)}, set(), False),
           ("invert-t1", ident, {1}, False),
           (f"invert-t{r}", ident, {r}, False)]
    if f == 2:
        out.append(("frobenius", ident, set(), True))
    return out


def _act(sigma, fq, subset, alpha, code):
    """The image (S', alpha', code') of the monomial code * t^alpha dlog t_S."""
    _, perm, inverted, frob = sigma
    beta = [0] * len(alpha)
    for i, x in enumerate(alpha, 1):
        beta[perm[i] - 1] = -x if i in inverted else x
    image = [perm[i] for i in subset]
    flips = sum(1 for x, y in itertools.combinations(image, 2) if x > y)
    flips += sum(1 for i in subset if i in inverted)
    if frob:
        code = fq.frob(code)
    if flips % 2:
        code = fq.neg(code)
    return tuple(sorted(image)), tuple(beta), code


def _act_form(sigma, w):
    kctx = w.kctx
    polys = {}
    for (subset, alpha), code in w.terms.items():
        subset, beta, code = _act(sigma, kctx.fq, subset, alpha, code)
        polys.setdefault(subset, {})[beta] = code
    return DiffForm(kctx, w.q, {s: LaurentPoly(kctx, t) for s, t in polys.items()})


def _act_params(sigma, params):
    kctx = params.kctx
    terms = dict(_act(sigma, kctx.fq, (), alpha, c)[1:]
                 for alpha, c in params.a.terms.items())
    return CDVFParams(params.p, params.f, params.r, params.e, params.n, params.q,
                      LaurentPoly(kctx, terms))


def _ball_radius(params):
    # every periodic point of gamma -> gamma/p + delta lies in |gamma|_inf <= this
    amax = max(max(map(abs, alpha)) for alpha in params.a.terms)
    return math.ceil(params.p * amax / (params.p - 1))


def _shell_sums(desc, radius):
    sums = [0] * (radius + 1)
    box = itertools.product(range(-radius, radius + 1), repeat=desc.params.r)
    for beta, value in zip(box, dim_values(desc, radius)):
        sums[max(map(abs, beta))] += value
    return sums


def test_symmetry_acts_on_monomials():
    # t1^2 t2^-1 dlog t1 ^ dlog t2 under the cycle t1 -> t2 -> t1: the image
    # t2^2 t1^-1 dlog t2 ^ dlog t1 re-sorts with one transposition
    params = CDVFParams(3, 1, 2, 6, 2, 2, "t1^1")
    cycle = _symmetries(2, 1)[0]
    fq = params.kctx.fq
    assert _act(cycle, fq, (1, 2), (2, -1), 1) == ((1, 2), (-1, 2), 2)
    # inverting t1 flips the sign of dlog t1 and the exponent of t1
    assert _act(_symmetries(2, 1)[1], fq, (1,), (2, -1), 1) == ((1,), (-2, -1), 2)
    assert _act(_symmetries(2, 1)[1], fq, (2,), (2, -1), 1) == ((2,), (-2, -1), 1)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=_ids)
def test_is_zero_is_invariant(ctx):
    params = CDVFParams(*ctx)
    kctx = params.kctx
    rng = random.Random(repr(ctx))
    images = [(sigma, _act_params(sigma, params)) for sigma in _symmetries(params.r, params.f)]
    violations = []
    zeros = 0
    for m in range(1, params.threshold(params.n) + 1):
        desc = descriptor(params, m)
        for _ in range(DRAWS):
            el = desc.element(rand_form(rng, kctx, params.q - 1),
                              rand_form(rng, kctx, params.q - 2))
            rel = reduce(el)
            rel = desc.element(el.w1 - rel.w1, el.w2 - rel.w2)
            for x in (el, rel):
                zero = is_zero(x)
                zeros += zero
                for sigma, image in images:
                    moved = descriptor(image, m).element(_act_form(sigma, x.w1),
                                                         _act_form(sigma, x.w2))
                    if is_zero(moved) != zero:
                        violations.append((sigma[0], m, str(x.w1), str(x.w2)))
    assert not violations, violations[:5]
    # both answers occur, so the comparison has something to compare
    assert 0 < zeros < 2 * DRAWS * params.threshold(params.n)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=_ids)
def test_case_ii_shell_sums_are_invariant(ctx):
    params = CDVFParams(*ctx)
    radius = _ball_radius(params) + 1
    violations = []
    for i in range(1, params.n + 1):
        desc = descriptor(params, params.threshold(i))
        assert desc.tag == CASE_II
        want = _shell_sums(desc, radius)
        for sigma in _symmetries(params.r, params.f):
            image = descriptor(_act_params(sigma, params), desc.m)
            got = _shell_sums(image, radius)
            if got != want:
                violations.append((sigma[0], desc.m, want, got))
    assert not violations, violations[:5]


def test_single_entries_are_not_invariant():
    # a Case II entry is a convention of the slice order: under t -> 1/t
    # some entries move, while the shell sums stay (previous test)
    params = CDVFParams(2, 1, 2, 4, 2, 2, "t1^2*t2^-1")
    ident = {1: 1, 2: 2}
    flip = ("invert-all", ident, {1, 2}, False)
    radius = _ball_radius(params) + 1
    desc = descriptor(params, params.threshold(1))
    image = descriptor(_act_params(flip, params), desc.m)
    box = list(itertools.product(range(-radius, radius + 1), repeat=2))
    before = dict(zip(box, dim_values(desc, radius)))
    after = dict(zip(box, dim_values(image, radius)))
    moved = [beta for beta in box if before[beta] != after[tuple(-x for x in beta)]]
    assert moved
    assert _shell_sums(desc, radius) == _shell_sums(image, radius)
