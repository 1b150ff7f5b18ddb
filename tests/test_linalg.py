"""RowSpace against a dense Gauss-Jordan reference written here."""

import random

import pytest

from grmk.ffield import FqContext
from grmk.linalg import RowSpace, rank_of

NCOLS = 10


def dense(vec):
    out = [0] * NCOLS
    for col, c in vec.items():
        out[col] = c
    return out


def gauss_jordan(fq, vectors):
    """Reduced row echelon form of the dense vectors, as {pivot: row dict}."""
    mat = [dense(v) for v in vectors]
    rref = []
    for col in range(NCOLS):
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


def transpose_off_pivot(rows):
    """Non-pivot column -> sorted pivots of the rows that are nonzero there."""
    index = {}
    for piv, row in rows.items():
        for col in row:
            if col not in rows:
                index.setdefault(col, []).append(piv)
    return {col: sorted(pivs) for col, pivs in index.items()}


def random_vec(rng, fq, vectors):
    """A sparse vector, or a combination of earlier ones (dependent or close)."""
    if vectors and rng.random() < 0.3:
        vec = {}
        for old in rng.sample(vectors, min(3, len(vectors))):
            c = rng.randrange(1, fq.q)
            for col, x in old.items():
                vec[col] = fq.add(vec.get(col, 0), fq.mul(c, x))
        if rng.random() < 0.5:
            col = rng.randrange(NCOLS)
            vec[col] = fq.add(vec.get(col, 0), rng.randrange(1, fq.q))
        return {col: x for col, x in vec.items() if x}
    cols = rng.sample(range(NCOLS), rng.randint(1, 4))
    return {col: rng.randrange(1, fq.q) for col in cols}


def check_space(fq, space, vectors):
    ref = gauss_jordan(fq, vectors)
    assert space.rows == ref
    assert {col: sorted(pivs) for col, pivs in space.holders.items()} \
        == transpose_off_pivot(ref)


def check_reduce(fq, space, vectors, vec):
    rep = space.reduce(vec)
    assert all(rep.values())
    assert not set(rep) & set(space.rows)
    diff = {col: fq.sub(vec.get(col, 0), rep.get(col, 0)) for col in range(NCOLS)}
    diff = {col: x for col, x in diff.items() if x}
    assert len(gauss_jordan(fq, vectors + [diff])) == len(gauss_jordan(fq, vectors))


FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("p,f", FIELDS)
@pytest.mark.parametrize("seed", range(6))
def test_add_keeps_reference_rref_and_index(p, f, seed):
    fq = FqContext(p, f)
    rng = random.Random(seed)
    space = RowSpace(fq)
    vectors = []
    for _ in range(25):
        vec = random_vec(rng, fq, vectors)
        before = gauss_jordan(fq, vectors)
        piv = space.add(vec)
        vectors.append(vec)
        new = set(gauss_jordan(fq, vectors)) - set(before)
        assert (piv is None) if not new else ({piv} == new)
        check_space(fq, space, vectors)
        check_reduce(fq, space, vectors, random_vec(rng, fq, vectors))
    assert len(space.rows) == rank_of(fq, vectors) == len(gauss_jordan(fq, vectors))


def test_index_follows_vanishing_entries():
    # over GF(2): the pivot 2 of the third row cancels column 3 of row 0 and
    # writes column 3 into row 1; the fourth row then empties the index
    fq = FqContext(2)
    space = RowSpace(fq)
    for vec in ({0: 1, 2: 1, 3: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}):
        space.add(vec)
    assert space.rows == {0: {0: 1}, 1: {1: 1, 3: 1}, 2: {2: 1, 3: 1}}
    assert space.holders == {3: [1, 2]}
    assert space.add({3: 1}) == 3
    assert space.holders == {}
    assert space.rows == {c: {c: 1} for c in range(4)}
