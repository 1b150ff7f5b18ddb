"""RowSpace against the dense Gauss-Jordan reference of tests/reference.py."""

import random

import pytest

from grmk.ffield import FqContext
from grmk.linalg import RowSpace, rank_of
from reference import gauss_jordan

NCOLS = 10


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
    """The pivots are those of the reference RREF, and each row has a 1 at
    its smallest column."""
    assert set(space.rows) == set(gauss_jordan(fq, vectors, NCOLS))
    for piv, row in space.rows.items():
        assert min(row) == piv and row[piv] == 1 and all(row.values())


def check_reduce(fq, space, vectors, vec):
    """reduce equals reduction by the reference RREF, which is zero at its
    pivots: vec less vec[piv] times the row at piv, for every pivot."""
    want = dict(vec)
    for piv, row in gauss_jordan(fq, vectors, NCOLS).items():
        c = vec.get(piv, 0)
        for col, x in row.items():
            want[col] = fq.sub(want.get(col, 0), fq.mul(c, x))
    assert space.reduce(vec) == {col: x for col, x in want.items() if x}


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
        before = gauss_jordan(fq, vectors, NCOLS)
        piv = space.add(vec)
        vectors.append(vec)
        new = set(gauss_jordan(fq, vectors, NCOLS)) - set(before)
        assert (piv is None) if not new else ({piv} == new)
        check_space(fq, space, vectors)
        check_reduce(fq, space, vectors, random_vec(rng, fq, vectors))
    assert len(space.rows) == rank_of(fq, vectors) == len(gauss_jordan(fq, vectors, NCOLS))


def test_reduce_clears_a_pivot_that_fills_in():
    # over GF(3): the vector is zero at pivot 1 until the row at pivot 0
    # writes there, and the row at 1 then writes pivot 2
    fq = FqContext(3)
    space = RowSpace(fq)
    for vec in ({0: 1, 1: 1}, {1: 1, 2: 2}, {2: 1, 3: 1}):
        space.add(vec)
    assert space.rows == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 2}, 2: {2: 1, 3: 1}}
    # {0: 1} - row0 = {1: 2}; - 2 row1 = {2: 2}; - 2 row2 = {3: 1}
    assert space.reduce({0: 1}) == {3: 1}
    assert space.reduce({0: 1, 3: 2}) == {}
