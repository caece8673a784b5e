"""The benchmark's exact checker against exldl.oracle.

On exldl's own factorizations of small random inputs both must accept;
on each corrupted factorization both must reject.
"""

import dataclasses
import random

import pytest

import exact
import workloads
from exldl import factor, oracle, saddle
from exldl.factor import DBlock
from exldl.fields import FieldContext

FIELDS = {  # the fields of the dense-large workload
    "gf2": FieldContext.gf2(),
    "gf1009": FieldContext.gfp(1009),
    "p31": FieldContext.gfp(2**31 - 1),
    "q": FieldContext.rational(),
}


def instances(ctx, seed):
    rng = random.Random(seed)
    yield workloads.sym_rows(ctx, rng, 12)
    yield workloads.planted_rows(ctx, rng, 12, 5)
    yield workloads.sym_rows(ctx, rng, 1)


def mine_ldl(ctx, rows, res):
    return exact.check_ldl(workloads.modulus(ctx), rows, *workloads.plain_ldl(res)) is None


def mine_lu(ctx, rows, res):
    return exact.check_lu(workloads.modulus(ctx), rows, *workloads.plain_lu(res)) is None


def bump(ctx, v):
    return ctx.add(v, ctx.one)


@pytest.mark.parametrize("key", FIELDS)
def test_accepts_what_the_oracle_accepts(key):
    ctx = FIELDS[key]
    for rows in instances(ctx, 1):
        a = workloads.to_dense(ctx, rows)
        ldl, lu = factor.fast_ldl(a), factor.fast_lu(a)
        assert oracle.oracle_verify_ldl(a, ldl).ok and mine_ldl(ctx, rows, ldl)
        assert oracle.oracle_verify_lu(a, lu).ok and mine_lu(ctx, rows, lu)
    rng = random.Random(2)
    rect = workloads.rand_rows(ctx, rng, 7, 11)
    lu = factor.fast_lu(workloads.to_dense(ctx, rect))
    assert oracle.oracle_verify_lu(workloads.to_dense(ctx, rect), lu).ok and mine_lu(ctx, rect, lu)


@pytest.mark.parametrize("key", FIELDS)
def test_saddle_checks_agree(key):
    ctx = FIELDS[key]
    rng = random.Random(3)
    a_rows = workloads.sym_rows(ctx, rng, 9)
    b_rows = workloads.rand_rows(ctx, rng, 5, 9, -2, 2)
    system = saddle.SaddleSystem(workloads.to_dense(ctx, a_rows), workloads.to_dense(ctx, b_rows))
    part = saddle.schilders_partial_ldl(system)
    full = saddle.complete_saddle_ldl(system, part)
    p = workloads.modulus(ctx)
    assert oracle.oracle_verify_partial_ldl(system, part).ok
    assert exact.check_partial_ldl(p, a_rows, b_rows, *workloads.plain_partial(part)) is None
    whole = workloads.saddle_rows(a_rows, b_rows)
    assert oracle.oracle_verify_ldl(system.dense(), full).ok and mine_ldl(ctx, whole, full)
    part.Y.set(part.r, 0, bump(ctx, part.Y.get(part.r, 0)))
    assert not oracle.oracle_verify_partial_ldl(system, part).ok
    assert exact.check_partial_ldl(p, a_rows, b_rows, *workloads.plain_partial(part)) is not None


@pytest.mark.parametrize("key", FIELDS)
def test_rejects_flipped_l_entry(key):
    ctx = FIELDS[key]
    rows = workloads.sym_rows(ctx, random.Random(4), 10)
    a = workloads.to_dense(ctx, rows)
    ldl, lu = factor.fast_ldl(a), factor.fast_lu(a)
    ldl.L.set(9, 0, bump(ctx, ldl.L.get(9, 0)))
    lu.L.set(9, 0, bump(ctx, lu.L.get(9, 0)))
    assert not oracle.oracle_verify_ldl(a, ldl).ok and not mine_ldl(ctx, rows, ldl)
    assert not oracle.oracle_verify_lu(a, lu).ok and not mine_lu(ctx, rows, lu)


@pytest.mark.parametrize("key", FIELDS)
def test_rejects_swapped_p_entry(key):
    ctx = FIELDS[key]
    rows = workloads.sym_rows(ctx, random.Random(5), 10)
    a = workloads.to_dense(ctx, rows)
    ldl, lu = factor.fast_ldl(a), factor.fast_lu(a)
    for res in (ldl, lu):
        fwd = list(res.P.fwd)
        fwd[0], fwd[-1] = fwd[-1], fwd[0]
        res.P = type(res.P)(fwd)
    assert not oracle.oracle_verify_ldl(a, ldl).ok and not mine_ldl(ctx, rows, ldl)
    assert not oracle.oracle_verify_lu(a, lu).ok and not mine_lu(ctx, rows, lu)


@pytest.mark.parametrize("key", FIELDS)
def test_rejects_singular_2x2_d_block(key):
    ctx = FIELDS[key]
    rows = workloads.sym_rows(ctx, random.Random(6), 10)
    a = workloads.to_dense(ctx, rows)
    res = factor.fast_ldl(a)
    # Replace blocks covering exactly two rows by a 2x2 block with a zero entry.
    k = next(k for k, blk in enumerate(res.D) if blk.size == 2 or res.D[k + 1].size == 1)
    span = 1 if res.D[k].size == 2 else 2
    singular = dataclasses.replace(DBlock.antidiag(ctx.one, ctx.one), a12=ctx.zero)
    res.D = res.D[:k] + [singular] + res.D[k + span:]
    assert not oracle.oracle_verify_ldl(a, res).ok and not mine_ldl(ctx, rows, res)


@pytest.mark.parametrize("p", [2, 1009, 2**31 - 1])
def test_products_are_exact(p):
    rng = random.Random(p)
    x = [[rng.randrange(p) for _ in range(40)] for _ in range(6)]
    y = [[rng.randrange(p) for _ in range(5)] for _ in range(40)]
    want = [[sum(x[i][k] * y[k][j] for k in range(40)) % p for j in range(5)] for i in range(6)]
    assert exact.matmul(p, exact.array(p, x), exact.array(p, y)).tolist() == want
