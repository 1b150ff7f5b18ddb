"""Sparse reduced-row-echelon bases over GF(p^f).

Rows and vectors are dicts mapping integer column indices to nonzero scalar
codes; all scalar arithmetic goes through an FqContext.  Pivots are chosen
smallest-column-first, and the basis is kept fully reduced, so `reduce` is a
single ascending pass and canonical coset representatives are deterministic.
"""

from __future__ import annotations


class RowSpace:
    def __init__(self, fq):
        self.fq = fq
        self.rows = {}  # pivot column -> row dict with 1 at the pivot

    @classmethod
    def from_echelon(cls, fq, rows):
        """The span of rows that are already in reduced echelon form."""
        space = cls(fq)
        space.rows = {min(row): row for row in rows}
        return space

    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo the row space."""
        fq = self.fq
        out = dict(vec)
        for col in sorted(out):
            c = out.get(col, 0)
            if not c:
                continue
            row = self.rows.get(col)
            if row is None:
                continue
            for rc, rv in row.items():
                s = fq.sub(out.get(rc, 0), fq.mul(c, rv))
                if s:
                    out[rc] = s
                else:
                    out.pop(rc, None)
        return out

    def add(self, vec):
        """Insert vec; returns its pivot column, or None if dependent."""
        fq = self.fq
        rem = self.reduce(vec)
        if not rem:
            return None
        piv = min(rem)
        inv = fq.inv(rem[piv])
        row = {c: fq.mul(v, inv) for c, v in rem.items()}
        # keep the basis fully reduced: eliminate the new pivot everywhere
        for other in self.rows.values():
            c = other.get(piv, 0)
            if c:
                for rc, rv in row.items():
                    s = fq.sub(other.get(rc, 0), fq.mul(c, rv))
                    if s:
                        other[rc] = s
                    else:
                        other.pop(rc, None)
        self.rows[piv] = row
        return piv

    def contains(self, vec):
        return not self.reduce(vec)


def rank_of(fq, vectors):
    """Rank of a list of sparse vectors; independent of RowSpace invariants."""
    space = RowSpace(fq)
    for v in vectors:
        space.add(v)
    return space.rank()
