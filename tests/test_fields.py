from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exldl
from exldl.fields import (
    GF2 as GF2_KIND,
    CounterDisabled,
    DivisionByZero,
    EntryOutOfField,
    FieldContext,
    op_count_snapshot,
    packed_ops,
)

gf2 = FieldContext.gf2()
gf7 = FieldContext.gfp(7)
qq = FieldContext.rational()


def elements(ctx):
    if ctx.kind == "gf2":
        return st.integers(0, 1)
    if ctx.kind == "gfp":
        return st.integers(0, ctx.p - 1)
    return st.fractions(max_denominator=6).map(lambda f: Fraction(f))


@pytest.mark.parametrize("ctx", [gf2, gf7, qq], ids=["gf2", "gf7", "qq"])
def test_field_axioms(ctx):
    @settings(max_examples=120, deadline=None)
    @given(elements(ctx), elements(ctx), elements(ctx))
    def axioms(a, b, c):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == ctx.zero
        if not ctx.is_zero(a):
            assert ctx.mul(a, ctx.inv(a)) == ctx.one

    axioms()


def test_gf2_characteristic_two():
    assert gf2.add(1, 1) == 0


def test_gf7_inverse():
    assert gf7.inv(3) == 5
    assert gf7.mul(3, gf7.inv(3)) == 1


def test_rational_canonical():
    assert qq.el("2/4") + qq.el("1/2") == Fraction(1)
    assert qq.el("2/4") == Fraction(1, 2)


def test_gfp_rejects_composites():
    with pytest.raises(ValueError):
        FieldContext.gfp(9)
    with pytest.raises(ValueError):
        FieldContext.gfp(1 << 32)
    FieldContext.gfp(2147483647)  # Mersenne prime below 2**31


def test_context_rejects_bad_kinds_moduli_and_elements():
    with pytest.raises(ValueError, match="unknown field kind 'gf4'"):
        FieldContext("gf4")
    with pytest.raises(ValueError, match="modulus only applies to GF"):
        FieldContext(GF2_KIND, 2)
    # 121 = 11^2 has no factor among the small primes the test divides by first
    with pytest.raises(ValueError, match="GF.p. modulus 121 is not prime"):
        FieldContext.gfp(121)
    for ctx in (gf2, gf7):
        with pytest.raises(EntryOutOfField, match="1/2 is not an element"):
            ctx.el(Fraction(1, 2))
    assert gf7.el(Fraction(9, 1)) == 2


def test_inversion_of_zero():
    for ctx in (gf2, gf7, qq):
        with pytest.raises(DivisionByZero):
            ctx.inv(ctx.zero)


def test_counter_scalar_ops():
    ctx = FieldContext.gfp(7)
    with pytest.raises(CounterDisabled):
        op_count_snapshot(ctx)
    ctx.enable_counter()
    ctx.inv(3)
    snap = op_count_snapshot(ctx)
    assert snap == {"add": 0, "mul": 0, "inv": 1}
    ctx.counter.reset()
    assert op_count_snapshot(ctx) == {"add": 0, "mul": 0, "inv": 0}


def test_counter_classical_2x2_matmul():
    # Hand count for a classical 2x2 product: 8 muls, 4 adds.
    from exldl.dense import DenseMatrix, matmul

    ctx = FieldContext.gfp(7)
    a = DenseMatrix.from_rows(ctx, [[1, 2], [3, 4]])
    b = DenseMatrix.from_rows(ctx, [[5, 6], [0, 1]])
    ctx.enable_counter()
    matmul(a, b)
    snap = op_count_snapshot(ctx)
    assert snap["mul"] == 8
    assert snap["add"] == 4


def test_packed_ops_counts_whole_words():
    assert packed_ops(1) == 64
    assert packed_ops(64) == 64
    assert packed_ops(65) == 128
    assert packed_ops(0) == 0


def test_gf2_packed_rows_match_scalar():
    # Bit-packed row arithmetic must agree with elementwise scalar arithmetic.
    import random

    from exldl.dense import DenseMatrix, matmul

    rng = random.Random(7)
    a_rows = [[rng.randint(0, 1) for _ in range(37)] for _ in range(11)]
    b_rows = [[rng.randint(0, 1) for _ in range(23)] for _ in range(37)]
    a = DenseMatrix.from_rows(gf2, a_rows)
    b = DenseMatrix.from_rows(gf2, b_rows)
    got = matmul(a, b).to_lists()
    want = [
        [sum(a_rows[i][k] * b_rows[k][j] for k in range(37)) % 2 for j in range(23)]
        for i in range(11)
    ]
    assert got == want


CONTRACT_FIELDS = [("gf2", None, "gf2"), ("gfp", 7, "gfp:7"),
                   ("gfp", 2147483647, "gfp:2147483647"), ("rational", None, "rational")]


@pytest.mark.parametrize("kind, p, spec", CONTRACT_FIELDS, ids=[c[2] for c in CONTRACT_FIELDS])
def test_context_contract(kind, p, spec):
    # What the benchmark and the CLI read of a context.
    import pickle

    from exldl.cli import parse_field

    named = {"gf2": FieldContext.gf2, "gfp": lambda: FieldContext.gfp(p),
             "rational": FieldContext.rational}[kind]()
    ctx = FieldContext(kind, p)
    ways = [ctx, named, parse_field(spec), pickle.loads(pickle.dumps(ctx))]
    for other in ways:
        assert other == ctx and hash(other) == hash(ctx)
        assert type(other) is type(ctx) and other.kind == kind and other.p == p
        assert other.spec == spec
    assert ctx != FieldContext.gfp(3)
    assert kind in ("gf2", "gfp", "rational")
    counter = ctx.enable_counter()
    assert ctx.counter is counter
    assert (counter.add, counter.mul, counter.inv) == (0, 0, 0)
    ctx.mul(ctx.one, ctx.one)
    assert counter.mul == 1
    ctx.disable_counter()
    assert ctx.counter is None


def test_all_exports_resolve():
    assert [name for name in exldl.__all__ if not hasattr(exldl, name)] == []
