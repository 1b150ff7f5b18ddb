"""Test-only references, kept out of the package: helpers on the oracle's
O_K/(pi^N), a monomial d, the product of an element and a form term by
term, a dense Gauss-Jordan elimination, the slice-diagonal quotient by
elimination, the Case I reduction slice by slice, the `dim[...]` rows by
pattern and the command-line parser written out flag by flag.

These helpers return values for the tests to assert on; they assert nothing
themselves, since pytest rewrites asserts only in test modules and python -O
strips the rest.
"""

import argparse
import itertools

from grmk import graded
from grmk.cli import (cmd_gr, cmd_reduce, cmd_selftest, cmd_shift_check,
                      cmd_symbol, cmd_verify_q1)
from grmk.ffield import check_alpha
from grmk.forms import (B_KIND, Z_KIND, DiffForm, from_slice_vectors,
                        slice_vectors, subsets_of, subspace_basis)
from grmk.graded import GrElement, _theta_relation_space, theta
from grmk.linalg import RowSpace


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
        y = ctx.pow(x, ctx.p ** ctx.f)
        if y == x:
            return x
        x = y


def power_landing_ok(ctx, n):
    """p^n-th powers of non-1-units never land among nontrivial 1-units.

    Checked on the Teichmueller lifts of the residue codes 2..9 (those below
    q) and on one element of valuation 1.
    """
    pn = ctx.p ** n
    for code in range(2, min(ctx.p ** ctx.f, 10)):
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



def element_times_form(poly, w):
    """poly * w, of the degree of w: each term of poly times each term of w,
    exponents added and checked, codes multiplied and summed per monomial."""
    fq = w.kctx.fq
    out = {}
    for (subset, alpha), c in w.terms.items():
        for beta, b in poly.terms.items():
            gamma = tuple(x + y for x, y in zip(beta, alpha))
            check_alpha(gamma)
            key = subset, gamma
            out[key] = fq.add(out.get(key, 0), fq.mul(b, c))
    return DiffForm._of(w.kctx, w.q, out)

def gauss_jordan(fq, vectors, ncols):
    """Reduced row echelon form of sparse vectors over the columns
    0..ncols-1, eliminated densely, as {pivot: row dict}."""
    mat = [[v.get(col, 0) for col in range(ncols)] for v in vectors]
    rref = []
    for col in range(ncols):
        src = next((row for row in mat if row[col]), None)
        if src is None:
            continue
        mat.remove(src)
        inv = fq.inv(src[col])
        src = [fq.mul(x, inv) for x in src]
        for other in mat + rref:
            c = other[col]
            if c:
                other[:] = [fq.sub(x, fq.mul(c, y)) for x, y in zip(other, src)]
        rref.append(src)
    return {row.index(next(x for x in row if x)):
            {col: x for col, x in enumerate(row) if x} for row in rref}


def slice_quotient(desc, beta):
    """The relations of the slice-diagonal quotient O^{q-1} (+) O^{q-2} at
    beta, eliminated into a RowSpace over GF(p^f).

    A slice vector holds the (q-1)-subsets first, then the (q-2)-subsets.
    Both slots get the tower rows of subspace_basis: B_{b_level} for
    'theta', Z_{z_level} for 'zmod' and 'ac' (the class entry of a Case II
    slice).  For 'theta' at beta = p^s alpha each (q-2)-subset S adds the row
    theta(t^alpha dlog S), built from forms by graded.theta and read off at
    beta.
    """
    params = desc.params
    kctx = params.kctx
    subs1 = subsets_of(kctx.r, params.q - 1)
    subs2 = subsets_of(kctx.r, params.q - 2)
    if desc.branch == "theta":
        kind, level = B_KIND, desc.b_level
    else:
        kind, level = Z_KIND, desc.z_level
    space = RowSpace(kctx.fq)
    for offset, deg in ((0, params.q - 1), (len(subs1), params.q - 2)):
        for row in subspace_basis(kctx, beta, deg, kind, level):
            space.add({offset + i: c for i, c in row.items()})
    ps = params.p ** level
    if desc.branch != "theta" or any(x % ps for x in beta):
        return space
    alpha = tuple(x // ps for x in beta)
    columns = ({sub: i for i, sub in enumerate(subs1)},
               {sub: len(subs1) + i for i, sub in enumerate(subs2)})
    for sub in subs2:
        vec = {}
        for form, cols in zip(theta(params, desc.m, DiffForm.monomial(kctx, alpha, sub)),
                              columns):
            vec.update((cols[u], c) for (u, g), c in form.terms.items() if g == beta)
        space.add(vec)
    return space


def reduce_by_slices(el):
    """reduce on the 'theta' and 'zmod' branches with no class maps: each
    slice's pair of vectors through graded._theta_relation_space."""
    desc = el.desc
    params = desc.params
    vecs1, vecs2 = slice_vectors(el.w1), slice_vectors(el.w2)
    out1, out2 = {}, {}
    for beta in dict.fromkeys(itertools.chain(vecs1, vecs2)):
        out1[beta], out2[beta] = _theta_relation_space(
            desc, beta, vecs1.get(beta, {}), vecs2.get(beta, {}))
    return GrElement(desc, from_slice_vectors(params.kctx, params.q - 1, out1),
                     from_slice_vectors(params.kctx, params.q - 2, out2))


def dim_rows(table, r):
    """The `dim[...]` rows of a gr report for any table keyed by r-tuples:
    one `%` pattern per table, filled row by row in sorted key order."""
    row = "dim[" + ",".join(["%d"] * r) + "]: %d"
    return [row % (*beta, table[beta]) for beta in sorted(table)]


def build_parser():
    """The argparse parser of `grmk`, each subcommand's flags added one by
    one, for comparison with the parser cli builds from its flag table."""
    parser = argparse.ArgumentParser(
        prog="grmk",
        description="graded quotients of unit-filtered Milnor K-groups mod p^n")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of CDVFParams, shared by every command that builds one
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=int, required=True, help="residue characteristic")
    params.add_argument("--f", type=int, default=1, help="residue degree over GF(p)")
    params.add_argument("--r", type=int, default=0, help="p-basis size of the residue field")
    params.add_argument("--e", type=int, required=True, help="absolute ramification index")
    params.add_argument("--n", type=int, required=True, help="modulus exponent of p^n")
    params.add_argument("--q", type=int, default=1, help="symbol degree")
    params.add_argument("--a", type=str, required=True,
                        help="residue class of p*pi^(-e), in the element grammar")

    p_gr = sub.add_parser("gr", parents=[params],
                          help="classify a level and print its presentation")
    p_gr.add_argument("--m", type=int, required=True, help="filtration level")
    p_gr.add_argument("--deg-window", type=int, default=graded.DEFAULT_TABLE_RADIUS)
    p_gr.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_gr.set_defaults(func=cmd_gr)

    p_red = sub.add_parser("reduce", parents=[params],
                           help="canonical representative of an element")
    p_red.add_argument("--m", type=int, required=True)
    p_red.add_argument("--w1", type=str, required=True, help="degree q-1 form text")
    p_red.add_argument("--w2", type=str, default=None, help="degree q-2 form text")
    p_red.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_red.set_defaults(func=cmd_reduce)

    p_sym = sub.add_parser("symbol", parents=[params], help="evaluate a restricted symbol")
    p_sym.add_argument("--symbol", type=str, required=True,
                       help="{1+pi^M*(element); entry; ...} with entries monomials or 'pi'")
    p_sym.set_defaults(func=cmd_symbol)

    p_ver = sub.add_parser(
        "verify-q1",
        help="compare the q = 1 orders with the filtered p-adic oracle on a fixture field")
    p_ver.add_argument("--fixture", type=str, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--N", type=int, default=None, help="cutoff (default c_n + 3)")
    p_ver.set_defaults(func=cmd_verify_q1)

    p_shift = sub.add_parser("shift-check", parents=[params],
                             help="compare presentations at (n, m) and (n-1, m-e)")
    p_shift.add_argument("--m", type=int, required=True)
    p_shift.add_argument("--probe", action="append", default=[], metavar="W1;W2",
                         help="element (w1, w2) whose zero test must agree at both "
                              "levels; an empty side is 0 (repeatable)")
    p_shift.add_argument("--deg-window", type=int, default=graded.DEFAULT_TABLE_RADIUS)
    p_shift.add_argument("--window-cap", type=int, default=graded.DEFAULT_WINDOW_CAP)
    p_shift.set_defaults(func=cmd_shift_check)

    p_self = sub.add_parser("selftest", help="run the seeded property suites")
    p_self.add_argument("--seed", type=int, default=7)
    p_self.add_argument("--cases", type=int, default=50)
    p_self.set_defaults(func=cmd_selftest)

    # every value prints the same grmk.v1 report; kept for compatibility
    for command in sub.choices.values():
        command.add_argument("--format", choices=["text", "machine"], default="text")
    return parser
