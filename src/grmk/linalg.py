"""Sparse row-echelon bases over GF(p^f).

Rows and vectors are dicts mapping integer column indices to nonzero scalar
codes; all scalar arithmetic goes through an FqContext.  Each row has a 1 at
its pivot, its smallest column, and pivots are distinct.  Rows are not
reduced against each other, so a row may be nonzero at a later row's pivot.
`reduce` clears pivot columns in ascending order through a heap: subtracting
a row writes only to columns after its pivot, so a cleared column is never
written again, and the result is the unique representative of the coset
that is zero at every pivot.  The set of pivots depends only on the span,
not on the order rows are added.
"""

from __future__ import annotations

import heapq


class RowSpace:
    def __init__(self, fq):
        self.fq = fq
        self.rows = {}  # pivot column -> row dict with 1 at the pivot

    def reduce(self, vec):
        """Canonical representative of vec modulo the row space."""
        fq = self.fq
        rows = self.rows
        out = dict(vec)
        heap = [col for col in out if col in rows]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            c = out.get(col, 0)
            if not c:
                continue  # a column pushed twice, already cleared
            # the row has a 1 at col, so this also deletes out[col]
            for rc, rv in rows[col].items():
                old = out.get(rc, 0)
                s = fq.sub(old, fq.mul(c, rv))
                if s:
                    out[rc] = s
                    if not old and rc in rows:
                        heapq.heappush(heap, rc)
                else:
                    del out[rc]
        return out

    def add(self, vec):
        """Insert vec; returns its pivot column, or None if dependent."""
        fq = self.fq
        rem = self.reduce(vec)
        if not rem:
            return None
        piv = min(rem)
        inv = fq.inv(rem[piv])
        self.rows[piv] = {c: fq.mul(v, inv) for c, v in rem.items()}
        return piv


def rank_of(fq, vectors):
    """Rank of a list of sparse vectors, by adding them to a fresh RowSpace."""
    space = RowSpace(fq)
    for v in vectors:
        space.add(v)
    return len(space.rows)
