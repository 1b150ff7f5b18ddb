"""The Steinberg relation on the symbol map, through the public API only.

For x = 1 + pi^m u~ with u = c t^alpha, the relation {x, 1 - x} = 0 and
1 - x = -pi^m [c] t^alpha give, for any tail y... of q - 2 monomials,

    {x, -1, y...} + m {x, pi, y...} + {x, [c], y...}
        + sum_i alpha_i {x, t_i, y...} = 0.

For p odd, -1 and [c] are roots of unity of order prime to p, so the first
and third symbols vanish modulo p^n.  What is left,

    m {x, pi, y...} + sum_i alpha_i {x, t_i, y...},

must be zero in gr^m at every level, whatever the presentation there.  The
check goes through parse_symbol, symbol_to_forms and is_zero and knows
nothing of the case split, so it holds the theta sign (-1)^q and the prime
slot's transposition sign to the K-theory.

The product with {t_j} maps gr^m K_q to gr^m K_{q+1}:
{1 + pi^m x~, y...} -> {1 + pi^m x~, y..., t_j}, and moving pi past t_j in
a symbol ending in pi costs a sign.  On pairs it is

    (w1, w2) -> (w1 ^ dlog t_j, -w2 ^ dlog t_j),

so it must carry every relation el - reduce(el) at q to zero at q + 1.
"""

import random

import pytest

from grmk.forms import DiffForm, wedge
from grmk.graded import (CDVFParams, descriptor, is_zero, parse_symbol, reduce,
                         symbol_to_forms)
from grmk.selftest import rand_form

# (p, f, r, e, n, q, a), p odd
CONTEXTS = [
    (3, 1, 2, 6, 2, 2, "t1^1"),
    (5, 1, 2, 4, 1, 2, "t1^1+2*t2^-1"),
    (3, 2, 2, 6, 2, 2, "g^1*t1^1"),
    (3, 1, 3, 6, 2, 3, "t1^-1"),
    (5, 1, 2, 20, 2, 2, "t1^1"),
    (3, 1, 2, 6, 2, 3, "2*t1^1*t2^1"),
]
DRAWS = 8


def _monomial(rng, p, f, r):
    """Text and exponents of a random c t^alpha with c != 0."""
    alpha = [rng.randint(-2, 2) for _ in range(r)]
    coeff = f"g^{rng.randrange(p ** f - 1)}" if f > 1 else str(rng.randrange(1, p))
    return "*".join([coeff] + [f"t{i}^{x}" for i, x in enumerate(alpha, 1) if x]), alpha


def _scaled(el, k):
    return el.desc.element(el.w1.scale(k), el.w2.scale(k))


def _relation(params, m, u_text, alpha, tail):
    """m {x, pi, y...} + sum_i alpha_i {x, t_i, y...} in gr^m."""
    def evaluate(entries):
        text = "{1+pi^%d*(%s);%s}" % (m, u_text, ";".join(entries))
        return symbol_to_forms(params, parse_symbol(params.kctx, text))

    total = _scaled(evaluate(["pi"] + tail), m % params.p)
    for i, x in enumerate(alpha, 1):
        total = total + _scaled(evaluate([f"t{i}^1"] + tail), x % params.p)
    return total


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: "-".join(map(str, c)))
def test_steinberg_relation_vanishes(ctx):
    p, f, r, e, n, q, a = ctx
    params = CDVFParams(*ctx)
    rng = random.Random(repr(ctx))
    violations = []
    for m in range(1, params.threshold(n) + 1):
        for _ in range(DRAWS):
            u_text, alpha = _monomial(rng, p, f, r)
            tail = [_monomial(rng, p, f, r)[0] for _ in range(q - 2)]
            if not is_zero(_relation(params, m, u_text, alpha, tail)):
                violations.append((m, u_text, tail))
    assert not violations, violations[:5]


def test_relation_is_not_vacuous():
    # {x, pi} alone is nonzero here, so the sum vanishing is a relation
    # between the two halves and not two zeros added
    params = CDVFParams(3, 1, 2, 6, 2, 2, "t1^1")
    pi_part = symbol_to_forms(params, parse_symbol(params.kctx, "{1+pi^4*(t1^1*t2^2);pi}"))
    assert not is_zero(pi_part)
    assert is_zero(_relation(params, 4, "t1^1*t2^2", [1, 2], []))


# (p, f, r, e, n, q, a) for the product with {t_j}
PRODUCT_CONTEXTS = [
    (2, 1, 2, 4, 2, 1, "t1^1"),
    (2, 2, 2, 4, 2, 2, "g^1*t1^-1+t2^1"),
    (3, 1, 2, 6, 2, 2, "t1^1+2*t2^-1"),
    (3, 2, 2, 6, 1, 1, "g^1*t2^1"),
    (5, 1, 2, 4, 1, 2, "t1^-1"),
    (5, 2, 2, 4, 1, 2, "g^1*t1^1+t2^1"),
]


def _times_t(el, up, j):
    """el . {t_j} at the same level over the parameters `up` at q + 1."""
    dlog = DiffForm.monomial(up.kctx, (0,) * up.r, (j,))
    return descriptor(up, el.desc.m).element(wedge(el.w1, dlog), -wedge(el.w2, dlog))


@pytest.mark.parametrize("ctx", PRODUCT_CONTEXTS, ids=lambda c: "-".join(map(str, c)))
def test_product_with_t_j_kills_relations(ctx):
    p, f, r, e, n, q, a = ctx
    params = CDVFParams(*ctx)
    up = CDVFParams(p, f, r, e, n, q + 1, a)
    rng = random.Random(repr(ctx))
    violations = []
    images = 0
    for m in range(1, params.threshold(n) + 1):
        desc = descriptor(params, m)
        for _ in range(DRAWS // 2):
            el = desc.element(rand_form(rng, params.kctx, q - 1),
                              rand_form(rng, params.kctx, q - 2))
            red = reduce(el)
            rel = desc.element(el.w1 - red.w1, el.w2 - red.w2)
            for j in range(1, r + 1):
                image = _times_t(rel, up, j)
                images += not image.is_zero_pair()
                if not is_zero(image):
                    violations.append((m, j, str(el.w1), str(el.w2)))
    assert not violations, violations[:5]
    # the relations must not all map to the zero pair
    assert images
