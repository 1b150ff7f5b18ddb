"""Differential q-forms over k = GF(p^f)(t_1, ..., t_r) in the dlog basis.

The monomials t^alpha dlog t_S, for S = {i_1 < ... < i_q} a sorted q-element
subset of {1, ..., r} and alpha an exponent vector in Z^r, form a basis of
the q-forms, where dlog t_S = dlog t_{i_1} ^ ... ^ dlog t_{i_q}.  A form is
stored as one finite map from basis monomials (S, alpha) to nonzero GF(p^f)
codes, and every operator here acts monomially on it:

    d(t^alpha dlog t_S)   = sum_i alpha_i t^alpha dlog t_i ^ dlog t_S
    C^{-1}(t^alpha dlog t_S) = t^{p alpha} dlog t_S  with coefficient c -> c^p
    C(t^{p beta} dlog t_S)   = t^beta dlog t_S       with coefficient c -> c^{1/p}

C (the Cartier operator) is only defined on closed forms; on those, the
monomials with non-p-divisible degree span an exact summand (the Koszul
complex of the degree covector is exact), so C drops them.

The filtration towers are defined recursively through C; `in_Z` and `in_B`
decide membership this way, as the reference for `nf_mod`:

    in_Z(w, 0) always; in_Z(w, s) iff d(w) = 0 and in_Z(C(w), s-1)
    in_B(w, 0) iff w = 0; in_B(w, s) iff d(w) = 0 and in_B(C(w), s-1)

d preserves the exponent vector alpha, so everything splits into alpha-slices,
which `slice_vectors` and `from_slice_vectors` lay out as vectors over the
q-subsets.  On a slice d is the Koszul map (alpha ^ -), applied by
`koszul_apply`; its entries read alpha only through alpha mod p, so each
KContext memoizes its columns, echelon rows and contracting homotopy on
(alpha mod p, q) (at most p^r * (r+1) entries, `koszul_slice`).  With
v = v_p(alpha), the slice of B_s and of Z_s is the Koszul image at
alpha/p^v when v < s; otherwise Z_s is the whole slice and B_s is zero.
`subspace_basis` gives its echelon rows, which the homotopy reads off the
columns, and `nf_mod` reduces by the homotopy (`koszul_nf`, `tower_nf`):
nothing here eliminates.

Degrees q < 0 and q > r denote the zero module; operations accept them and
return zero, but no term can be built there: 1..r has no strictly
increasing q-subset, so the constructor rejects every subset.  The wedge of
a q1-form and a q2-form has degree q1 + q2 even when it is zero, and the
product of a form by an element a of k is the wedge with the 0-form a
(Omega^0 = k): `wedge(DiffForm.from_poly(a), w)`.

Text grammar (CLI and fixtures)::

    form  := fterm ('+' fterm)*
    fterm := element '*' 'dlog[' idxlist ']' | element      (degree 0)

Printing uses canonical order (subsets lexicographic, then exponent vectors),
which is the order of the keys (S, alpha); parse o print is the identity on
canonical forms.
"""

from __future__ import annotations

import functools
import itertools

from .ffield import (ContextMismatch, ParseError, check_alpha, format_element,
                     parse_element)

B_KIND = "B"
Z_KIND = "Z"


class NotClosed(Exception):
    pass


@functools.lru_cache(maxsize=None)
def subsets_of(r, q):
    """All sorted q-subsets of {1..r} in lexicographic order, as a tuple."""
    if q < 0 or q > r:
        return ()
    return tuple(itertools.combinations(range(1, r + 1), q))


def _merge_sign(s1, s2):
    """Sign and union for dlog t_S1 ^ dlog t_S2 on disjoint subsets."""
    if set(s1) & set(s2):
        return 0, None
    inversions = 0
    for a in s1:
        inversions += sum(1 for b in s2 if b < a)
    return (-1) ** inversions, tuple(sorted(s1 + s2))


class DiffForm:
    """Immutable degree-q differential form.

    terms maps each basis monomial (S, alpha), standing for
    t^alpha dlog t_S, to its nonzero GF(p^f) code.  The constructor takes
    the outside shape {S: LaurentPoly} and checks its subsets; the
    operators build their results with `_of`.
    """

    __slots__ = ("kctx", "q", "terms")

    def __init__(self, kctx, q, terms=None):
        clean = {}
        for subset, poly in (terms or {}).items():
            if len(subset) != q or list(subset) != sorted(set(subset)):
                raise ValueError(
                    f"subset {subset} is not a strictly increasing {q}-subset")
            if any(not 1 <= i <= kctx.r for i in subset):
                raise ValueError(f"subset {subset} out of range 1..{kctx.r}")
            if poly.ctx != kctx:
                raise ContextMismatch("coefficient lives in a different residue field")
            for alpha, c in poly.terms.items():
                clean[subset, alpha] = c
        self.kctx = kctx
        self.q = q
        self.terms = clean

    @staticmethod
    def _of(kctx, q, terms):
        """The form with monomial terms {(S, alpha): code}; zero codes are dropped."""
        w = DiffForm(kctx, q)
        w.terms = {key: c for key, c in terms.items() if c}
        return w

    @staticmethod
    def zero(kctx, q):
        return DiffForm(kctx, q)

    @staticmethod
    def from_poly(poly):
        """A degree-0 form from a field element."""
        return DiffForm(poly.ctx, 0, {(): poly})

    @staticmethod
    def monomial(kctx, alpha, subset, code=1):
        return DiffForm(kctx, len(subset), {tuple(subset): kctx.monomial(alpha, code)})

    def _need_same(self, other):
        if not isinstance(other, DiffForm) or other.kctx != self.kctx:
            raise ContextMismatch("forms live over different residue fields")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.kctx == other.kctx and self.q == other.q
                and self.terms == other.terms)

    def __add__(self, other):
        self._need_same(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.q != other.q:
            raise ValueError(f"cannot add forms of degrees {self.q} and {other.q}")
        add = self.kctx.fq.add
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = add(out.get(key, 0), c)
        return DiffForm._of(self.kctx, self.q, out)

    def __neg__(self):
        neg = self.kctx.fq.neg
        return DiffForm._of(self.kctx, self.q,
                            {key: neg(c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, code):
        mul = self.kctx.fq.mul
        return DiffForm._of(self.kctx, self.q,
                            {key: mul(c, code) for key, c in self.terms.items()})

    def __repr__(self):
        return f"DiffForm(q={self.q}, {format_form(self)!r})"

    def __str__(self):
        return format_form(self)


def wedge(w1, w2):
    """Exterior product; bilinear and alternating on the dlog basis."""
    w1._need_same(w2)
    kctx = w1.kctx
    q = w1.q + w2.q
    if w1.is_zero() or w2.is_zero() or q > kctx.r:
        return DiffForm.zero(kctx, q)
    fq = kctx.fq
    out = {}
    for (s1, a1), c1 in w1.terms.items():
        for (s2, a2), c2 in w2.terms.items():
            sign, merged = _merge_sign(s1, s2)
            if sign == 0:
                continue
            alpha = tuple(x + y for x, y in zip(a1, a2))
            check_alpha(alpha)
            key = merged, alpha
            acc = fq.add if sign > 0 else fq.sub
            out[key] = acc(out.get(key, 0), fq.mul(c1, c2))
    return DiffForm._of(kctx, q, out)


def d(w):
    """Exterior derivative: the Koszul map (alpha ^ -) on each alpha-slice."""
    kctx = w.kctx
    if w.q >= kctx.r or w.q < 0:
        return DiffForm.zero(kctx, w.q + 1)
    return from_slice_vectors(kctx, w.q + 1, {
        alpha: koszul_apply(kctx, alpha, w.q + 1, vec)
        for alpha, vec in slice_vectors(w).items()})


def is_closed(w):
    return d(w).is_zero()


def inv_cartier(w):
    """Inverse Cartier operator; the returned representative is closed."""
    kctx = w.kctx
    frob = kctx.fq.frob
    p = kctx.p
    out = {}
    for (subset, alpha), c in w.terms.items():
        alpha = tuple(p * x for x in alpha)
        check_alpha(alpha)
        out[subset, alpha] = frob(c)
    return DiffForm._of(kctx, w.q, out)


def inv_cartier_iter(w, s):
    for _ in range(s):
        w = inv_cartier(w)
    return w


def cartier(w):
    """Cartier operator on a closed form.

    Monomials with non-p-divisible degree form an exact summand of a closed
    form and are dropped; the rest map by t^{p beta} -> t^beta with inverse
    Frobenius on coefficients.  Raises NotClosed when d(w) != 0.
    """
    if not is_closed(w):
        raise NotClosed("the Cartier operator is only defined on closed forms")
    kctx = w.kctx
    frob_inv = kctx.fq.frob_inv
    p = kctx.p
    return DiffForm._of(kctx, w.q, {
        (subset, tuple(x // p for x in alpha)): frob_inv(c)
        for (subset, alpha), c in w.terms.items() if not any(x % p for x in alpha)})


def in_Z(w, s):
    """Membership in the s-th cocycle tower group Z_s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return True
    if not is_closed(w):
        return False
    return in_Z(cartier(w), s - 1)


def in_B(w, s):
    """Membership in the s-th boundary tower group B_s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return w.is_zero()
    if not is_closed(w):
        return False
    return in_B(cartier(w), s - 1)


# ---------------------------------------------------------------------------
# per-degree-slice realization of the towers

def slice_vectors(w):
    """{alpha: {i: code}} for w, with i the position of S in subsets_of(r, q)."""
    index = subsets_of(w.kctx.r, w.q).index
    vecs = {}
    for (subset, alpha), c in w.terms.items():
        vecs.setdefault(alpha, {})[index(subset)] = c
    return vecs


def from_slice_vectors(kctx, q, vecs):
    """The q-form with the slice vectors vecs; zero codes are dropped."""
    subsets = subsets_of(kctx.r, q)
    return DiffForm._of(kctx, q, {(subsets[i], alpha): c
                                  for alpha, vec in vecs.items()
                                  for i, c in vec.items()})


def koszul_matrix(kctx, alpha, q):
    """Columns of (a ^ -): Lambda^{q-1} -> Lambda^q for a = sum alpha_i dlog t_i.

    Returns a list of sparse column dicts {row_index: code}, columns indexed
    by the (q-1)-subsets, rows by the q-subsets (S + {i}: one entry per i).
    """
    fq = kctx.fq
    row_index = {s: i for i, s in enumerate(subsets_of(kctx.r, q))}
    cols = []
    for subset in subsets_of(kctx.r, q - 1):
        col = {}
        for i, x in enumerate(alpha, 1):
            if x % kctx.p:
                sign, merged = _merge_sign((i,), subset)
                if sign:
                    col[row_index[merged]] = fq.from_int(sign * x)
        cols.append(col)
    return cols


def koszul_slice(kctx, alpha, q):
    """Koszul columns at (alpha, q), the reduced echelon rows of their span,
    and the homotopy h = iota_{e_i0} / alpha_i0 (i0 the first index with p
    not dividing alpha_i0) as a map T -> (index of T - i0, (-1)^pos / alpha_i0)
    on the q-subsets T holding i0, pos being i0's place in T.

    The row at T is that column times that scale, with no elimination: it has
    a 1 at T and its other entries at (T - i0) + {j}, j > i0, after T and
    without i0.  So these C(r-1, q-1) rows, the rank of the image as the
    Koszul complex is exact, are reduced echelon with pivots the subsets
    holding i0.  An entry is stored only once d, the columns at q + 1, kills
    its rows; else NotClosed is raised.  All three depend on alpha only
    through alpha mod p, so they are memoized per context on (alpha mod p,
    q), and are shared: callers must not modify them.
    """
    key = (tuple([x % kctx.p for x in alpha]), q)
    hit = kctx.koszul_memo.get(key)
    if hit is None:
        fq = kctx.fq
        cols = koszul_matrix(kctx, alpha, q)
        hom = {}
        i0 = next((i for i, x in enumerate(alpha, 1) if x % kctx.p), None)
        if i0 is not None:
            inv = fq.inv(fq.from_int(alpha[i0 - 1]))
            signed = (inv, fq.neg(inv))
            index = subsets_of(kctx.r, q - 1).index
            for t, subset in enumerate(subsets_of(kctx.r, q)):
                if i0 in subset:
                    # dlog t_T = (-1)^pos dlog t_i0 ^ dlog t_(T - i0)
                    pos = subset.index(i0)
                    hom[t] = index(subset[:pos] + subset[pos + 1:]), signed[pos % 2]
        rows = [{j: fq.mul(v, scale) for j, v in cols[u].items()}
                for u, scale in hom.values()]
        if q < kctx.r and any(koszul_apply(kctx, alpha, q + 1, row) for row in rows):
            raise NotClosed(f"d does not kill the Koszul image rows at {key}")
        hit = kctx.koszul_memo[key] = (cols, rows, hom)
    return hit


def koszul_apply(kctx, alpha, q, vec):
    """d on the alpha-slice: the degree-q vector (alpha ^ vec), without zeros."""
    cols = koszul_slice(kctx, alpha, q)[0]
    fq = kctx.fq
    out = {}
    for i, c in vec.items():
        for j, v in cols[i].items():
            out[j] = fq.add(out.get(j, 0), fq.mul(c, v))
    return {j: c for j, c in out.items() if c}


def koszul_nf(kctx, alpha, q, vec):
    """(NF(vec), h(vec)): the normal form of the degree-q slice vector vec
    modulo the Koszul image (alpha ^ Lambda^{q-1}), by the homotopy h of
    `koszul_slice`.  As (alpha ^ -)h + h(alpha ^ -) = 1, NF(vec) =
    vec - alpha ^ h(vec) = h(alpha ^ vec) is zero on the subsets holding
    i0, the pivots of the image's echelon rows: it is vec less vec[T] times
    the row at T, for each pivot T.
    """
    if not vec:
        return {}, {}
    fq = kctx.fq
    hom = koszul_slice(kctx, alpha, q)[2]
    h = {}
    for j, c in vec.items():
        if j in hom:
            u, scale = hom[j]
            h[u] = fq.mul(c, scale)
    nf = dict(vec)
    for j, c in koszul_apply(kctx, alpha, q, h).items():
        nf[j] = fq.sub(nf.get(j, 0), c)
    return {j: c for j, c in nf.items() if c}, h


def _tower_root(p, alpha, kind, s):
    """alpha/p^v for v = v_p(alpha) < s, else None (also at alpha = 0)."""
    if kind not in (B_KIND, Z_KIND) or s < 0:
        raise ValueError(f"no tower group {kind!r} at level {s}")
    for _ in range(s):
        if any(x % p for x in alpha):
            return alpha
        alpha = tuple(x // p for x in alpha)
    return None


def subspace_basis(kctx, alpha, q, kind, s):
    """Reduced-row-echelon basis of the alpha-slice of B_s^q or Z_s^q.

    Rows are sparse dicts {subset_index: code}, indexed by position in
    subsets_of(r, q), listed in pivot order; each row has a 1 at its pivot
    (its smallest column) and 0 at every other row's pivot.  The rows are
    fresh dicts the caller may modify.

    Closed rule: at a `_tower_root` (v_p(alpha) < s), both B_s and Z_s are
    the image of the Koszul map at the root alpha/p^v, whose rows are copied
    out of the context's memo (`koszul_slice`); otherwise Z_s is the whole
    slice and B_s is zero.  This is the recursion through C, which carries
    the slice at p*beta to the one at beta: C^{-1} acts by Frobenius on
    codes, and the Koszul rows lie in GF(p), which Frobenius fixes.
    """
    root = _tower_root(kctx.p, alpha, kind, s)
    n = len(subsets_of(kctx.r, q))
    if n == 0:
        return []
    if root is not None:
        return [dict(row) for row in koszul_slice(kctx, root, q)[1]]
    return [{i: 1} for i in range(n)] if kind == Z_KIND else []


def tower_nf(kctx, alpha, q, kind, s, vec):
    """The slice vector vec at alpha modulo the slice of B_s or Z_s: its
    `koszul_nf` at a tower root, else vec modulo B_s = 0, or 0 modulo Z_s."""
    root = _tower_root(kctx.p, alpha, kind, s)
    if root is not None:
        return koszul_nf(kctx, root, q, vec)[0]
    return vec if kind == B_KIND else {}


def nf_mod(w, kind, s):
    """Canonical representative of w modulo B_s^q (or Z_s^q).

    Zero exactly when the corresponding membership predicate holds; computed
    per alpha-slice by `tower_nf`, which needs no elimination.
    """
    return from_slice_vectors(w.kctx, w.q, {
        alpha: tower_nf(w.kctx, alpha, w.q, kind, s, vec)
        for alpha, vec in slice_vectors(w).items()})


# ---------------------------------------------------------------------------
# text grammar

def parse_form(kctx, q, text):
    text = text.strip().replace(" ", "")
    if not text:
        raise ParseError("empty form")
    if text == "0":
        return DiffForm.zero(kctx, q)
    # the syntax of each term is checked here; the element texts of one
    # subset are summed by the element grammar, and DiffForm checks the subsets
    by_subset = {}
    for fterm in text.split("+"):
        if "dlog[" in fterm:
            elem_text, sep, rest = fterm.partition("*dlog[")
            if not sep:
                raise ParseError("dlog[...] needs an element and '*' before it, "
                                 "as in 1*dlog[...]", fterm)
            if not rest.endswith("]"):
                raise ParseError("missing ']' after dlog[", fterm)
            idx_text = rest[:-1]
            try:
                subset = tuple(int(x) for x in idx_text.split(",")) if idx_text else ()
            except ValueError:
                raise ParseError("bad index list", idx_text)
            if list(subset) != sorted(set(subset)):
                raise ParseError("dlog indices must be strictly increasing", idx_text)
            if len(subset) != q:
                raise ParseError(f"dlog[{idx_text}] has degree {len(subset)}, expected {q}", fterm)
        else:
            if q != 0:
                raise ParseError(f"term {fterm!r} has degree 0, expected {q}", fterm)
            subset, elem_text = (), fterm
        by_subset.setdefault(subset, []).append(elem_text)
    return DiffForm(kctx, q, {subset: parse_element(kctx, "+".join(texts))
                              for subset, texts in by_subset.items()})


def format_form(w):
    if w.is_zero():
        return "0"
    parts = []
    for (subset, alpha), code in sorted(w.terms.items()):
        elem = format_element(w.kctx.monomial(alpha, code))
        if subset:
            idx = ",".join(str(i) for i in subset)
            parts.append(f"{elem}*dlog[{idx}]")
        else:
            parts.append(elem)
    return "+".join(parts)
