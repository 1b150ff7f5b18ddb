"""Exact arithmetic in the residue field model k = GF(p^f)(t_1, ..., t_r),
restricted to Laurent-polynomial representatives.

Scalars of GF(p^f) are encoded as integers in [0, p^f): the base-p digits of
the code are the coordinates with respect to the power basis of a root of
the modulus stored for (p, f) in DEFAULT_MODULI.  Each context builds its
tables once, with the same code for every (p, f): q x q tables of sums,
differences and products and a length-q table of negatives, so add, sub,
mul and neg are one lookup each.  The additive tables work digit-wise mod
p; the product table comes from exp/log tables of a primitive element,
through which Frobenius, its inverse and inversion are O(1) lookups too.
The codes below p are the prime subfield GF(p) in every table.  `modulus`
checks (p, f) and looks up the stored modulus without building a table.

The Frobenius and the p-th root of k are not kept here: they are C^{-1}
and C on 0-forms (forms.inv_cartier and forms.cartier of
DiffForm.from_poly), and a p-th power is a closed 0-form.

Text grammar for k-elements (used by the CLI and test fixtures)::

    element  := term ('+' term)*
    term     := coeff ('*' monomial)? | monomial
    monomial := 't'IDX'^'INT ('*' 't'IDX'^'INT)*
    coeff    := INT (reduced mod p) | 'g^'INT (power of the stored generator)

Parsing and printing round-trip bit-exactly on canonical forms.
"""

from __future__ import annotations

import functools
import re

# The one modulus of GF(p^f) for each supported f > 1 (f = 1 needs none):
# monic irreducible of degree f, ascending coefficients.  Any irreducible
# would do, since a primitive element is located by search, but the field
# codes, the `g^k` grammar and every report are written against these.
DEFAULT_MODULI = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 2): [2, 2, 1],
    (3, 3): [1, 2, 0, 1],
    (5, 2): [2, 4, 1],
}

# Exponent vectors must stay well inside machine-friendly range; repeated
# inverse-Cartier multiplies exponents by p, so this is a checked error
# rather than a silent wraparound.
EXP_LIMIT = 1 << 40


class ContextMismatch(Exception):
    pass


class ExponentOverflow(Exception):
    pass


class ParseError(Exception):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at {pos!r})")
        self.pos = pos


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def modulus(p, f):
    """The modulus of GF(p^f), ascending ([0, 1] at f = 1); ValueError unless
    p is prime, f >= 1 and a modulus is stored for (p, f)."""
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    mod = [0, 1] if f == 1 else DEFAULT_MODULI.get((p, f))
    if mod is None:
        raise ValueError(f"no default modulus stored for (p, f) = ({p}, {f})")
    return mod


class FqContext:
    """Arithmetic tables for GF(p^f); elements are integer codes in [0, p^f)."""

    def __init__(self, p, f=1):
        self.modulus = modulus(p, f)
        self.p = p
        self.f = f
        self.q = p ** f
        self._build_tables()

    # -- raw polynomial arithmetic used only to bootstrap the tables

    def _poly_mul(self, a, b):
        p, f = self.p, self.f
        da = self._digits(a)
        db = self._digits(b)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, f - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(f):
                    prod[i - f + j] = (prod[i - f + j] - c * self.modulus[j]) % p
        return self._encode(prod[:f])

    def _digits(self, code):
        p = self.p
        out = []
        for _ in range(self.f):
            out.append(code % p)
            code //= p
        return out

    def _encode(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + (d % self.p)
        return code

    def _build_tables(self):
        q = self.q
        # the generator is the first code whose powers run through all q - 1
        # units; candidate 1 has order 1, which is q - 1 only in GF(2)
        for gen in range(1, q):
            exp = [1]
            x = gen
            while x != 1 and len(exp) < q:
                exp.append(x)
                x = self._poly_mul(x, gen)
            if len(exp) == q - 1:
                break
        else:
            raise ValueError("modulus is not irreducible (no primitive element found)")
        self.gen = gen
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log
        # a code is its low digit plus p times the code of the other digits,
        # so the sum table over f digits is built from the one over f - 1
        p = self.p
        add = [[0]]
        for _ in range(self.f):
            add = [[(x + y) % p + p * s for s in row for y in range(p)]
                   for row in add for x in range(p)]
        self._add = add
        self._neg = [row.index(0) for row in add]
        self._sub = [[row[nb] for nb in self._neg] for row in add]
        # row and column 0 are the products with 0
        exp2 = exp + exp
        self._mul = [[0] * q] + [[0] + [exp2[log[a] + lb] for lb in log[1:]]
                                 for a in range(1, q)]

    # -- field operations on codes

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p^f)")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow_int(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frob(self, a):
        """Frobenius x -> x^p (a field automorphism; bijective)."""
        return self.pow_int(a, self.p)

    def frob_inv(self, a):
        """Inverse Frobenius, i.e. the unique p-th root."""
        return self.pow_int(a, self.p ** (self.f - 1))

    def from_int(self, n):
        return n % self.p

    def gpow(self, l):
        return self._exp[l % (self.q - 1)]

    def glog(self, a):
        if a == 0:
            raise ValueError("log of 0")
        return self._log[a]

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        # the modulus is a function of (p, f)
        return isinstance(other, FqContext) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))

    def __repr__(self):
        return f"FqContext(p={self.p}, f={self.f})"


class KContext:
    """The residue field k = GF(p^f)(t_1, ..., t_r) with {t_i} as p-basis."""

    def __init__(self, p, f=1, r=0):
        self.fq = FqContext(p, f)
        if r < 0:
            raise ValueError("r must be >= 0")
        self.p = p
        self.f = f
        self.r = r
        # (alpha mod p, q) -> Koszul slice data, filled by forms.koszul_slice
        self.koszul_memo = {}
        # (q, z_level, terms of a) -> Case II table entries, filled by
        # graded._ac_closure_entries; shared by every level, so read-only
        self.ac_closure_memo = {}

    def zero(self):
        return LaurentPoly(self, {})

    def one(self):
        return LaurentPoly(self, {(0,) * self.r: 1})

    def scalar(self, n):
        """Constant polynomial from an integer (reduced into the prime field)."""
        return LaurentPoly(self, {(0,) * self.r: self.fq.from_int(n)})

    def monomial(self, alpha, code=1):
        alpha = tuple(alpha)
        if len(alpha) != self.r:
            raise ValueError(f"exponent vector length {len(alpha)} != r = {self.r}")
        return LaurentPoly(self, {alpha: code})

    def var(self, i):
        """The p-basis variable t_i (1-based)."""
        if not 1 <= i <= self.r:
            raise ValueError(f"variable index {i} out of range 1..{self.r}")
        alpha = [0] * self.r
        alpha[i - 1] = 1
        return self.monomial(alpha)

    def __eq__(self, other):
        return other is self or (isinstance(other, KContext)
                                 and self.r == other.r and self.fq == other.fq)

    def __hash__(self):
        return hash((self.r, self.fq))

    def __repr__(self):
        return f"KContext(p={self.p}, f={self.f}, r={self.r})"


# The KContext(p, f, r) shared in a process: a context holds only its tables
# and Koszul memo, both fixed by (p, f, r).  KContext itself builds a fresh one.
residue_field = functools.lru_cache(maxsize=16)(KContext)


def check_alpha(alpha):
    """Raise ExponentOverflow unless every exponent lies within EXP_LIMIT."""
    for a in alpha:
        if a > EXP_LIMIT or a < -EXP_LIMIT:
            raise ExponentOverflow(f"exponent {a} exceeds the configured bound")


class LaurentPoly:
    """Finite-support map from exponent vectors in Z^r to nonzero GF(p^f) codes.

    Canonical form: no stored coefficient is zero; the zero element has empty
    support.  The constructor is the one place that drops zero codes.  Values
    are immutable after construction.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        clean = {}
        for alpha, c in terms.items():
            if c:
                check_alpha(alpha)
                clean[alpha] = c
        self.ctx = ctx
        self.terms = clean

    def _need_same(self, other):
        if not isinstance(other, LaurentPoly) or other.ctx != self.ctx:
            raise ContextMismatch("operands live in different residue fields")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __add__(self, other):
        self._need_same(other)
        fq = self.ctx.fq
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = fq.add(out.get(alpha, 0), c)
        return LaurentPoly(self.ctx, out)

    def __neg__(self):
        fq = self.ctx.fq
        return LaurentPoly(self.ctx, {a: fq.neg(c) for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._need_same(other)
        fq = self.ctx.fq
        out = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                out[alpha] = fq.add(out.get(alpha, 0), fq.mul(c1, c2))
        return LaurentPoly(self.ctx, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers only make sense for monomials; invert explicitly")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sorted_terms(self):
        return sorted(self.terms.items())

    def constant_code(self):
        """Coefficient code at exponent 0 (the 'residue' of a unit-like element)."""
        return self.terms.get((0,) * self.ctx.r, 0)

    def __repr__(self):
        return f"LaurentPoly({format_element(self)!r})"

    def __str__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# text grammar

_TOKEN_VAR = re.compile(r"^t(\d+)\^(-?\d+)$")
_TOKEN_GPOW = re.compile(r"^g\^(-?\d+)$")
_TOKEN_INT = re.compile(r"^-?\d+$")


def parse_element(ctx, text):
    text = text.strip().replace(" ", "")
    if not text:
        raise ParseError("empty element")
    # summed in one dict, a zero sum deleted as it arises: the terms, and
    # their order, of adding the monomials one by one, in linear time
    add = ctx.fq.add
    total = {}
    for term in text.split("+"):
        if not term:
            raise ParseError("empty term", term)
        code = 1
        alpha = [0] * ctx.r
        for piece in term.split("*"):
            m = _TOKEN_VAR.match(piece)
            if m:
                idx, expo = int(m.group(1)), int(m.group(2))
                if not 1 <= idx <= ctx.r:
                    raise ParseError(f"variable t{idx} out of range 1..{ctx.r}", piece)
                alpha[idx - 1] += expo
                continue
            m = _TOKEN_GPOW.match(piece)
            if m:
                code = ctx.fq.mul(code, ctx.fq.gpow(int(m.group(1))))
                continue
            if _TOKEN_INT.match(piece):
                code = ctx.fq.mul(code, ctx.fq.from_int(int(piece)))
                continue
            raise ParseError("unrecognized token", piece)
        if code:
            alpha = tuple(alpha)
            check_alpha(alpha)
            c = add(total.get(alpha, 0), code)
            if c:
                total[alpha] = c
            else:
                del total[alpha]
    return LaurentPoly(ctx, total)


def format_element(poly):
    if poly.is_zero():
        return "0"
    ctx = poly.ctx
    parts = []
    for alpha, code in poly.sorted_terms():
        pieces = []
        vars_part = [f"t{i + 1}^{a}" for i, a in enumerate(alpha) if a]
        if code != 1 or not vars_part:
            if code < ctx.p:
                pieces.append(str(code))
            else:
                pieces.append(f"g^{ctx.fq.glog(code)}")
        pieces.extend(vars_part)
        parts.append("*".join(pieces))
    return "+".join(parts)
