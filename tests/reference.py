"""Test-only references on the oracle's O_K/(pi^N), kept out of the package.

These helpers return values for the tests to assert on; they assert nothing
themselves, since pytest rewrites asserts only in test modules and python -O
strips the rest.
"""


def residue(ctx, x):
    """The GF(p^f) code of x modulo pi: the base-p digits of its pi^0 entries."""
    code = 0
    for c in reversed(x[:ctx.f]):
        code = code * ctx.p + c % ctx.p
    return code


def teichmuller(ctx, code):
    """The root of unity of order dividing q - 1 with residue code.

    Iterating x -> x^q from lift(code) gains one p-adic digit a step,
    and the Teichmueller lift w satisfies w^q = w exactly in O_K/(pi^N),
    so the first fixed point is w.
    """
    x = ctx.lift(code)
    while True:
        y = ctx.pow(x, ctx.fq.q)
        if y == x:
            return x
        x = y


def power_landing_ok(ctx, n):
    """p^n-th powers of non-1-units never land among nontrivial 1-units.

    Checked on the Teichmueller lifts of the residue codes 2..9 (those below
    q) and on one element of valuation 1.
    """
    pn = ctx.p ** n
    for code in range(2, min(ctx.fq.q, 10)):
        x = ctx.pow(teichmuller(ctx, code), pn)
        if residue(ctx, x) == 1 and ctx.val(ctx.sub(x, ctx.one())) >= 1:
            return False
    pi_unit = ctx.mul(ctx.pi(), ctx.add(ctx.one(), ctx.pi()))
    return ctx.val(ctx.pow(pi_unit, pn)) != 0


def d_terms(w):
    """The monomial terms {(S, alpha): code} of d(w), from the rule
    d(t^alpha dlog t_S) = sum_i alpha_i t^alpha dlog t_i ^ dlog t_S.

    dlog t_i ^ dlog t_S is zero when i is in S; otherwise sorting i into S
    moves dlog t_i past each index of S below i, one sign change each.
    """
    fq = w.kctx.fq
    out = {}
    for (subset, alpha), c in w.terms.items():
        for i, x in enumerate(alpha, 1):
            if x % w.kctx.p == 0 or i in subset:
                continue
            term = fq.mul(c, x % w.kctx.p)
            if sum(1 for j in subset if j < i) % 2:
                term = fq.neg(term)
            key = tuple(sorted(subset + (i,))), alpha
            out[key] = fq.add(out.get(key, 0), term)
    return {key: c for key, c in out.items() if c}
