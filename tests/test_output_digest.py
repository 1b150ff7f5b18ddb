"""A pinned sha256 of seeded engine outputs.

The test runs a fixed, seeded set of inputs through `d`, `wedge`, `nf_mod`
(B and Z), `cartier` of `inv_cartier`, `subspace_basis`, `reduce` and
`graded_order`, prints every result canonically, and compares the sha256 of
that text with DIGEST.  A refactor that is meant to change no output must
leave it equal.  DIGEST is re-recorded only by a change that declares, in
CHANGES.md, which outputs it changes and why.
"""

import hashlib
import random

from grmk.ffield import KContext, LaurentPoly
from grmk.forms import (B_KIND, Z_KIND, DiffForm, cartier, d, format_form,
                        inv_cartier, nf_mod, subsets_of, subspace_basis,
                        wedge)
from grmk.graded import CDVFParams, GrElement, descriptor, graded_order, reduce

DIGEST = "20facd1dd52b8ea28b5698ecead18f1e20bae2d359eb17e649dac465be906638"

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
# (p, f, r, e, n, q, a) with p^(n-1)(p-1) | e
PARAMS = [(2, 1, 1, 2, 2, 2, "1"), (2, 1, 2, 4, 2, 2, "t1^1"),
          (3, 1, 1, 6, 2, 2, "2"), (2, 2, 1, 4, 2, 2, "g^1*t1^1"),
          (2, 1, 2, 4, 3, 3, "1+t2^-1"), (3, 1, 0, 6, 2, 1, "1")]


def _form(rng, kctx, q):
    """A random q-form with up to three monomial terms, exponents in [-4, 4]."""
    subs = subsets_of(kctx.r, q)
    w = DiffForm.zero(kctx, q)
    for _ in range(rng.randint(0, 3) if subs else 0):
        alpha = tuple(rng.choice([0, 0, 1, -1, 2, 3, -2, 4]) for _ in range(kctx.r))
        code = rng.randint(1, kctx.fq.q - 1)
        w = w + DiffForm(kctx, q, {rng.choice(subs): LaurentPoly(kctx, {alpha: code})})
    return w


def _form_lines(rng):
    for _ in range(3000):
        p, f = rng.choice(FIELDS)
        kctx = KContext(p, f, rng.randint(0, 3))
        q = rng.randint(0, kctx.r)
        w = _form(rng, kctx, q)
        s = rng.randint(0, 3)
        yield format_form(d(w))
        yield format_form(wedge(w, _form(rng, kctx, rng.randint(0, kctx.r - q))))
        yield format_form(nf_mod(w, B_KIND, s))
        yield format_form(nf_mod(w, Z_KIND, s))
        yield format_form(cartier(inv_cartier(w)))
        alpha = tuple(rng.choice([0, 1, -1, 2, 3, 4, 6, 9]) for _ in range(kctx.r))
        for kind in (B_KIND, Z_KIND):
            yield repr([sorted(row.items())
                        for row in subspace_basis(kctx, alpha, q, kind, s)])


def _graded_lines(rng):
    for p, f, r, e, n, q, a in PARAMS:
        params = CDVFParams(p, f, r, e, n, q, a)
        kctx = params.kctx
        for m in range(1, params.threshold(n) + 2):
            desc = descriptor(params, m)
            yield f"{m} {desc.branch} {graded_order(desc, 1)}"
            for _ in range(20):
                el = GrElement(desc, _form(rng, kctx, q - 1), _form(rng, kctx, q - 2))
                yield repr(reduce(el))


def test_outputs_match_the_pinned_digest():
    rng = random.Random(20261019)
    text = "\n".join([*_form_lines(rng), *_graded_lines(rng)])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
