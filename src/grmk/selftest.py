"""Seeded property suites over random small inputs.

Each property draws its own contexts (r <= 3, q <= 3, exponents in [-6, 6])
from the supplied rng, so a fixed seed reproduces the identical run; the CLI
selftest command and the test suite both call into this module.
"""

from __future__ import annotations

from .ffield import KContext, LaurentPoly
from .forms import (B_KIND, Z_KIND, DiffForm, cartier, d, in_B, in_Z,
                    inv_cartier, inv_cartier_iter, is_closed, koszul_matrix,
                    nf_mod, subsets_of, subspace_basis, wedge)
from .graded import (CDVFParams, descriptor, is_zero, make_z_tower_element,
                     one_plus_ac, reduce, theta)
from .linalg import rank_of

EXP_LO, EXP_HI = -6, 6
MAX_R = 3
ELEMENT_TERMS = 3   # at most this many terms per random element
FORM_TERMS = 2      # at most this many random components per random form


def check(ok, detail=""):
    """Fail the current property unless ok; unlike assert, also under -O."""
    if not ok:
        raise AssertionError(detail)


# ---------------------------------------------------------------------------
# random generators

def rand_context(rng):
    p, f = rng.choice([(2, 1), (2, 1), (3, 1), (5, 1), (2, 2)])
    return KContext(p, f, rng.randint(0, MAX_R))


def rand_element(rng, kctx):
    terms = {}
    for _ in range(rng.randint(0, ELEMENT_TERMS)):
        alpha = tuple(rng.randint(EXP_LO, EXP_HI) for _ in range(kctx.r))
        terms[alpha] = rng.randint(1, kctx.fq.q - 1)
    return LaurentPoly(kctx, terms)


def rand_form(rng, kctx, q):
    subs = subsets_of(kctx.r, q)
    if not subs:
        return DiffForm.zero(kctx, q)
    form = DiffForm.zero(kctx, q)
    for _ in range(rng.randint(0, FORM_TERMS)):
        s = subs[rng.randrange(len(subs))]
        form = form + DiffForm(kctx, q, {s: rand_element(rng, kctx)})
    return form


def rand_alpha(rng, kctx):
    return tuple(rng.randint(EXP_LO, EXP_HI) for _ in range(kctx.r))


def _rand_b_member(rng, kctx, q, s):
    """A member of B_s^q: sums of j-fold inverse Cartier of exact forms, j < s."""
    w = DiffForm.zero(kctx, q)
    for j in range(s):
        w = w + inv_cartier_iter(d(rand_form(rng, kctx, q - 1)), j)
    return w


def _rand_graded_params(rng):
    p, e, n = rng.choice([(2, 2, 2), (2, 4, 2), (3, 6, 2)])
    r = rng.randint(0, 1)
    q = rng.randint(1, 2)
    a_choices = ["1"] if r == 0 else ["1", "t1^1"]
    if p == 3:
        a_choices.append("2")
    return CDVFParams(p, 1, r, e, n, q, rng.choice(a_choices))


# ---------------------------------------------------------------------------
# field properties

def prop_ffield_ring_axioms(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        x, y, z = (rand_element(rng, k) for _ in range(3))
        check((x + y) + z == x + (y + z))
        check(x + y == y + x)
        check((x * y) * z == x * (y * z))
        check(x * (y + z) == x * y + x * z)
        check(x + (-x) == k.zero())
        check(x * k.one() == x)


def prop_ffield_frobenius_additive(rng, cases):
    """The Frobenius of k is C^{-1} on 0-forms: additive, and x -> x^p as
    the product table computes it."""
    for _ in range(cases):
        k = rand_context(rng)
        x, y = rand_element(rng, k), rand_element(rng, k)
        fx, fy = DiffForm.from_poly(x), DiffForm.from_poly(y)
        check(inv_cartier(DiffForm.from_poly(x + y)) == inv_cartier(fx) + inv_cartier(fy),
              f"C^-1 not additive on x={x!r}, y={y!r}")
        check(inv_cartier(fx) == DiffForm.from_poly(x ** k.p), f"C^-1(x) != x^p for x={x!r}")


def prop_ffield_pth_root_roundtrip(rng, cases):
    """The p-th root of k is C on 0-forms: it inverts C^{-1}, a p-th power
    is closed, and C(x^p) = x."""
    for _ in range(cases):
        k = rand_context(rng)
        x = rand_element(rng, k)
        fx = DiffForm.from_poly(x)
        h = inv_cartier(fx)
        check(cartier(h) == fx, f"C(C^-1(x)) != x for x={x!r}")
        check(is_closed(h), f"C^-1(x) not closed for x={x!r}")
        check(cartier(DiffForm.from_poly(x ** k.p)) == fx, f"C(x^p) != x for x={x!r}")


# ---------------------------------------------------------------------------
# form properties

def prop_forms_dd_zero(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        w = rand_form(rng, k, rng.randint(0, 3))
        check(d(d(w)).is_zero(), f"d(d(w)) != 0 for {w!r}")


def prop_forms_cartier_roundtrip(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        w = rand_form(rng, k, rng.randint(0, 3))
        cw = inv_cartier(w)
        check(is_closed(cw), f"inverse Cartier output not closed: {w!r}")
        check(cartier(cw) == w, f"C(C^-1(w)) != w for {w!r}")


def prop_forms_cartier_kills_exact(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        eta = rand_form(rng, k, rng.randint(0, 2))
        check(cartier(d(eta)).is_zero(), f"C(d(eta)) != 0 for {eta!r}")


def prop_forms_leibniz(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        fpoly = rand_element(rng, k)
        w = rand_form(rng, k, rng.randint(0, 2))
        f0 = DiffForm.from_poly(fpoly)
        lhs = d(wedge(f0, w))
        rhs = wedge(d(f0), w) + wedge(f0, d(w))
        check(lhs == rhs, f"Leibniz failed for f={fpoly!r}, w={w!r}")


def prop_forms_chain_inclusions(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        q = rng.randint(0, 3)
        s = rng.randint(0, 3)
        b = _rand_b_member(rng, k, q, max(s, 1))
        check(in_B(b, max(s, 1)))
        check(in_B(b, max(s, 1) + 1), "B_s not inside B_{s+1}")
        check(in_Z(b, s), "B member escaped Z at the same level")
        z = inv_cartier_iter(rand_form(rng, k, q), s + 1)
        check(in_Z(z, s + 1))
        check(in_Z(z, s), "Z_{s+1} not inside Z_s")


def prop_forms_koszul_exactness(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        if k.r == 0:
            continue
        while True:
            alpha = rand_alpha(rng, k)
            if any(x % k.p for x in alpha):
                break
        q = rng.randint(0, k.r)
        # independent rank computation straight from the wedge matrices
        cols = koszul_matrix(k, alpha, q)
        rank_in = rank_of(k.fq, cols)
        rank_out = rank_of(k.fq, koszul_matrix(k, alpha, q + 1))
        n = len(subsets_of(k.r, q))
        check(rank_in + rank_out == n,
              f"Koszul complex not exact at alpha={alpha}, q={q}")
        for kind in (B_KIND, Z_KIND):
            # the rows span the image: as many as its rank, independent, and
            # inside the span of the columns
            rows = subspace_basis(k, alpha, q, kind, 1)
            check(len(rows) == rank_of(k.fq, rows) == rank_of(k.fq, cols + rows) == rank_in,
                  f"{kind}_1 rows do not span the Koszul image at alpha={alpha}, q={q}")


def prop_forms_nf_membership(rng, cases):
    for _ in range(cases):
        k = rand_context(rng)
        q = rng.randint(0, 3)
        s = rng.randint(0, 2)
        w = rand_form(rng, k, q)
        for kind, member in ((B_KIND, in_B), (Z_KIND, in_Z)):
            zero_nf = nf_mod(w, kind, s).is_zero()
            check(zero_nf == member(w, s),
                  f"nf_mod and membership disagree: kind={kind}, s={s}, w={w!r}")
        if s >= 1:
            b = _rand_b_member(rng, k, q, s)
            check(nf_mod(b, B_KIND, s).is_zero())
            z = inv_cartier_iter(rand_form(rng, k, q), s)
            check(nf_mod(z, Z_KIND, s).is_zero())


# ---------------------------------------------------------------------------
# graded properties

def prop_graded_theta_image_zero(rng, cases):
    done = 0
    while done < cases:
        params = _rand_graded_params(rng)
        m = rng.randint(1, params.threshold(params.n))
        desc = descriptor(params, m)
        if desc.branch != "theta":
            continue
        pair = theta(params, m, rand_form(rng, params.kctx, params.q - 2))
        check(is_zero(desc.element(*pair)),
              f"theta image not killed: params={params!r}, m={m}")
        done += 1


def prop_graded_ac_relations_zero(rng, cases):
    done = 0
    while done < cases:
        params = _rand_graded_params(rng)
        i = rng.randint(1, params.n)
        m = params.threshold(i)
        desc = descriptor(params, m)
        k = params.kctx
        z1 = make_z_tower_element(k, rand_form(rng, k, params.q - 1), desc.z_level)
        rel1 = one_plus_ac(params, z1)
        z2 = make_z_tower_element(k, rand_form(rng, k, params.q - 2), desc.z_level)
        rel2 = one_plus_ac(params, z2)
        check(is_zero(desc.element(rel1, rel2)),
              f"(1+aC)Z element not killed: params={params!r}, m={m}")
        done += 1


def prop_graded_reduce_idempotent(rng, cases):
    done = 0
    while done < cases:
        params = _rand_graded_params(rng)
        m = rng.randint(1, params.threshold(params.n) + 2)
        desc = descriptor(params, m)
        el = desc.element(rand_form(rng, params.kctx, params.q - 1),
                          rand_form(rng, params.kctx, params.q - 2))
        r1 = reduce(el)
        check(reduce(r1) == r1, f"reduce not idempotent: params={params!r}, m={m}")
        done += 1


def prop_graded_reduce_coset_constant(rng, cases):
    done = 0
    while done < cases:
        params = _rand_graded_params(rng)
        k = params.kctx
        m = rng.randint(1, params.threshold(params.n))
        desc = descriptor(params, m)
        el = desc.element(rand_form(rng, k, params.q - 1),
                          rand_form(rng, k, params.q - 2))
        if desc.branch == "theta":
            pair = theta(params, m, rand_form(rng, k, params.q - 2))
            rel = desc.element(pair[0] + _rand_b_member(rng, k, params.q - 1, desc.b_level),
                               pair[1] + _rand_b_member(rng, k, params.q - 2, desc.b_level))
        elif desc.branch == "zmod":
            rel = desc.element(
                inv_cartier_iter(rand_form(rng, k, params.q - 1), desc.z_level),
                inv_cartier_iter(rand_form(rng, k, params.q - 2), desc.z_level))
        elif desc.branch == "ac":
            rel = desc.element(
                one_plus_ac(params, make_z_tower_element(
                    k, rand_form(rng, k, params.q - 1), desc.z_level)),
                one_plus_ac(params, make_z_tower_element(
                    k, rand_form(rng, k, params.q - 2), desc.z_level)))
        else:
            rel = desc.element(rand_form(rng, k, params.q - 1),
                               rand_form(rng, k, params.q - 2))
        check(reduce(el + rel) == reduce(el), f"reduce not coset-constant: "
              f"params={params!r}, m={m}, branch={desc.branch}")
        done += 1


PROPERTIES = [
    ("ffield.ring_axioms", prop_ffield_ring_axioms),
    ("ffield.frobenius_additive", prop_ffield_frobenius_additive),
    ("ffield.pth_root_roundtrip", prop_ffield_pth_root_roundtrip),
    ("forms.dd_zero", prop_forms_dd_zero),
    ("forms.cartier_roundtrip", prop_forms_cartier_roundtrip),
    ("forms.cartier_kills_exact", prop_forms_cartier_kills_exact),
    ("forms.leibniz", prop_forms_leibniz),
    ("forms.chain_inclusions", prop_forms_chain_inclusions),
    ("forms.koszul_exactness", prop_forms_koszul_exactness),
    ("forms.nf_membership", prop_forms_nf_membership),
    ("graded.theta_image_zero", prop_graded_theta_image_zero),
    ("graded.ac_relations_zero", prop_graded_ac_relations_zero),
    ("graded.reduce_idempotent", prop_graded_reduce_idempotent),
    ("graded.reduce_coset_constant", prop_graded_reduce_coset_constant),
]


def run_selftest(seed=7, cases=50):
    """Run every property with its own seeded rng; returns (ok, results).

    A property fails on any exception it raises, not only on a failed check.
    """
    import random

    if cases < 1:
        raise ValueError(f"selftest needs at least 1 case, not {cases}")
    results = []
    ok = True
    for name, fn in PROPERTIES:
        rng = random.Random((seed, name).__repr__())
        try:
            fn(rng, cases)
            results.append((name, True, ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
            ok = False
    return ok, results
