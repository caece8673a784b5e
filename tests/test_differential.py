"""GF(2) has two backends: bit-packed rows (`gf2`) and int64 residues
modulo 2 (`gfp:2`).  On the same input they must give the same factors,
saddle partial LDLs, transcripts and transcript products.  Their op
counts differ by design (packed rows are metered per 64-bit word), so
only values are compared.
"""

import random

import pytest

from exldl.dense import DenseMatrix
from exldl.factor import fast_ldl, fast_lu
from exldl.fields import FieldContext, InconsistentSystem
from exldl.saddle import (
    SaddleSystem, complete_saddle_ldl, gamma_eliminate_partial, schilders_partial_ldl,
)
from exldl.sparse import L_TIMES, LH_TIMES, SOLVE_L, SparseSym, apply_transcript, sparse_ldl

PACKED = FieldContext.gf2()
RESIDUES = FieldContext.gfp(2)


def both(rows):
    return [DenseMatrix.from_rows(ctx, rows) for ctx in (PACKED, RESIDUES)]


def random_rows(rng, m, n):
    density = rng.choice([0.1, 0.5, 0.9])
    return [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]


def symmetric_rows(rng, n):
    rows = random_rows(rng, n, n)
    if rng.random() < 0.3:  # zero diagonal: antidiagonal D blocks
        for i in range(n):
            rows[i][i] = 0
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def matrix(ctx, rows, ncols):
    out = DenseMatrix.zeros(ctx, len(rows), ncols)  # from_rows cannot make 0 x n
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out.set(i, j, v)
    return out


def blocks(d):
    return [(b.kind, b.d, b.a12, b.a21) for b in d]


def ldl_values(res):
    return res.P.fwd, res.r, res.L.to_lists(), blocks(res.D)


def partial_values(f):
    return f.P.fwd, f.Q.fwd, f.r, f.Y.to_lists(), f.L.to_lists(), f.U.to_lists(), f.D


@pytest.mark.parametrize("cutoff", [None, 2])
def test_dense_factors_agree(cutoff):
    rng = random.Random(f"dense-{cutoff}")
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 24), rng.randint(1, 24))
        lus = [fast_lu(a, cutoff) for a in both(rows)]
        assert len({(f.P.fwd, f.Q.fwd, f.r) for f in lus}) == 1, rows
        assert lus[0].L.to_lists() == lus[1].L.to_lists(), rows
        assert lus[0].U.to_lists() == lus[1].U.to_lists(), rows
        rows = symmetric_rows(rng, rng.randint(1, 24))
        packed, residues = (fast_ldl(a, cutoff) for a in both(rows))
        assert ldl_values(packed) == ldl_values(residues), rows


def band(rng, n):
    width = rng.randint(1, 3)
    return [
        (i, j, 1)
        for i in range(n)
        for j in range(i, min(n, i + width + 1))
        if rng.random() < 0.7
    ]


def apply_all(t, x, y):
    """The three transcript products, or the error SOLVE_L raises."""
    out = [apply_transcript(t, x, L_TIMES), apply_transcript(t, y, LH_TIMES)]
    for rhs in (out[0], y):
        try:
            out.append(apply_transcript(t, rhs, SOLVE_L))
        except InconsistentSystem:
            out.append(None)
    return [m if m is None else m.to_lists() for m in out]


@pytest.mark.parametrize("cutoff", [None, 2])
def test_sparse_ldl_and_transcripts_agree(cutoff):
    rng = random.Random(f"sparse-{cutoff}")
    for _ in range(25):
        n = rng.randint(4, 30)
        entries = band(rng, n)
        outs = [
            sparse_ldl(SparseSym.from_entries(ctx, n, entries), cutoff=cutoff, explicit=True)
            for ctx in (PACKED, RESIDUES)
        ]
        packed, residues = outs
        assert packed.order.fwd == residues.order.fwd
        assert packed.transcript.pivot_order == residues.transcript.pivot_order
        assert packed.transcript.transforms == residues.transcript.transforms, entries
        assert ldl_values(packed.explicit) == ldl_values(residues.explicit), entries
        x, y = random_rows(rng, packed.rank, 3), random_rows(rng, n, 3)
        got = [apply_all(out.transcript, matrix(ctx, x, 3), matrix(ctx, y, 3))
               for ctx, out in zip((PACKED, RESIDUES), outs)]
        assert got[0] == got[1], entries


@pytest.mark.parametrize("cutoff", [None, 2])
def test_saddle_constructions_agree(cutoff):
    """Both partial LDLs and their completions, with n + m up to 40: above
    16 the saddle matrix passes `dense._CROSSOVER` and the GF(p) working
    copy is an int64 array."""
    rng = random.Random(f"saddle-{cutoff}")
    sizes = 0
    for _ in range(30):
        n, m = rng.randint(0, 24), rng.randint(0, 16)
        a, b = symmetric_rows(rng, n), random_rows(rng, m, n)
        if m > 1 and rng.random() < 0.3:  # repeated rows: a rank-deficient B
            b = [b[rng.randrange(m)] for _ in range(m)]
        sizes = max(sizes, n + m)
        systems = [SaddleSystem(matrix(ctx, a, n), matrix(ctx, b, n))
                   for ctx in (PACKED, RESIDUES)]
        for partial in (gamma_eliminate_partial, lambda s: schilders_partial_ldl(s, cutoff)):
            packed, residues = (partial(s) for s in systems)
            assert partial_values(packed) == partial_values(residues), (a, b)
            full = [complete_saddle_ldl(s, f) for s, f in zip(systems, (packed, residues))]
            assert ldl_values(full[0]) == ldl_values(full[1]), (a, b)
    assert sizes > 16
