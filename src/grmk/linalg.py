"""Sparse reduced-row-echelon bases over GF(p^f).

Rows and vectors are dicts mapping integer column indices to nonzero scalar
codes; all scalar arithmetic goes through an FqContext.  Pivots are chosen
smallest-column-first, and the basis is kept fully reduced: no row has a
nonzero entry at another row's pivot.  The basis is therefore the unique
reduced row echelon form of the span, and `reduce` is a single ascending
pass: subtracting a row only writes to non-pivot columns, so no entry it
creates ever needs a second look, and canonical coset representatives are
deterministic.

To keep full reduction cheap, `add` keeps a column index: each non-pivot
column maps to the list of pivots whose rows are nonzero there.  A new pivot
is then eliminated only from the rows the index names for its column, not
from every row.  Its lists are short (most columns are held by one or two
rows), and lists cost less memory than sets here.
"""

from __future__ import annotations


class RowSpace:
    def __init__(self, fq):
        self.fq = fq
        self.rows = {}  # pivot column -> row dict with 1 at the pivot
        self.holders = {}  # non-pivot column -> pivots of rows nonzero there

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
        holders = self.holders
        # keep the basis fully reduced: eliminate the new pivot from the rows
        # that hold it.  The other columns of row are non-pivot columns, and
        # each ends up indexed, since row itself is registered last.
        for p in holders.pop(piv, ()):
            other = self.rows[p]
            c = other.pop(piv)
            for rc, rv in row.items():
                if rc == piv:
                    continue
                old = other.get(rc, 0)
                s = fq.sub(old, fq.mul(c, rv))
                if s:
                    other[rc] = s
                    if not old:
                        holders.setdefault(rc, []).append(p)
                else:
                    del other[rc]
                    holders[rc].remove(p)
        for rc in row:
            if rc != piv:
                holders.setdefault(rc, []).append(piv)
        self.rows[piv] = row
        return piv


def rank_of(fq, vectors):
    """Rank of a list of sparse vectors, by adding them to a fresh RowSpace."""
    space = RowSpace(fq)
    for v in vectors:
        space.add(v)
    return len(space.rows)
