import random
from fractions import Fraction

import pytest

from exldl.dense import DenseMatrix
from exldl.fields import FieldContext

GF2 = FieldContext.gf2()
GF7 = FieldContext.gfp(7)
GF1009 = FieldContext.gfp(1009)
QQ = FieldContext.rational()

ALL_FIELDS = [GF2, GF7, GF1009, QQ]


def rand_el(ctx, rng):
    if ctx.kind == "gf2":
        return rng.randint(0, 1)
    if ctx.kind == "gfp":
        return rng.randrange(ctx.p)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def rand_matrix(ctx, rng, m, n):
    return DenseMatrix.from_rows(ctx, [[rand_el(ctx, rng) for _ in range(n)] for _ in range(m)])


def rand_symmetric(ctx, rng, n):
    a = DenseMatrix.zeros(ctx, n, n)
    for i in range(n):
        for j in range(i, n):
            v = rand_el(ctx, rng)
            a.set(i, j, v)
            a.set(j, i, v)
    return a


def rand_zero_diag_symmetric(ctx, rng, n):
    a = rand_symmetric(ctx, rng, n)
    for i in range(n):
        a.set(i, i, ctx.zero)
    return a


def planted_symmetric(ctx, rng, n, rank):
    """G S G^H with an S of full rank `rank`; actual rank may be lower."""
    from exldl.dense import matmul

    s = rand_symmetric(ctx, rng, rank)
    while True:
        from exldl.oracle import oracle_rank

        if oracle_rank(s) == rank:
            break
        s = rand_symmetric(ctx, rng, rank)
    g = rand_matrix(ctx, rng, n, rank)
    return matmul(matmul(g, s), g.conj_transpose())


@pytest.fixture(params=ALL_FIELDS, ids=["gf2", "gf7", "gf1009", "rational"])
def ctx(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(12345)
