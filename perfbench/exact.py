"""Exact checks of factorizations, written independently of exldl.

Matrices are lists of rows or numpy arrays. Entries are ints for GF(2) and
GF(p) (`p` is the modulus, 2 for GF(2)) and `fractions.Fraction` for Q
(`p` is None). D factors are tuples: ("scalar", d) or
("antidiag", a12, a21).

Finite-field matrices become int64 arrays, rational ones object arrays.
A finite-field product runs in float64 only when no partial sum can reach
2**53; otherwise it runs in int64 on 16-bit limbs of the right operand, so
no partial sum reaches 2**63. A rational product adds column-by-row outer
products of the nonzeros.

Each check returns None when the factorization is right and otherwise a
description of the first violation. The rank is not recomputed: a unit
lower-trapezoidal L has full column rank, a block diagonal D whose blocks
are nonsingular is invertible, and an upper-trapezoidal U with nonzero
diagonal has full row rank, so once structure and identity hold the
factored matrix has rank r.
"""

from __future__ import annotations

import numpy as np

_FLOAT_EXACT = 1 << 53
_LIMB_CHUNK = 1 << 15  # inner-dimension chunk for the int64 limb product


def array(p, rows, ncols=None):
    """Rows as an int64 array (finite field) or an object array (Q)."""
    x = np.array(rows, dtype=object if p is None else np.int64)
    if x.ndim != 2:
        x = x.reshape(len(rows), ncols if ncols is not None else 0)
    return x


def _matmul_mod(x, y, p):
    m, k = x.shape
    n = y.shape[1]
    if k == 0:
        return np.zeros((m, n), dtype=np.int64)
    if k * (p - 1) ** 2 < _FLOAT_EXACT:
        prod = x.astype(np.float64) @ y.astype(np.float64)
        return prod.astype(np.int64) % p
    out = np.zeros((m, n), dtype=np.int64)
    for k0 in range(0, k, _LIMB_CHUNK):
        xs = x[:, k0:k0 + _LIMB_CHUNK]
        ys = y[k0:k0 + _LIMB_CHUNK]
        # (xs @ hi) % p < 2**31, times 2**16 < 2**47; xs @ lo < 2**15 * 2**31 * 2**16.
        out = (out + (xs @ (ys >> 16)) % p * 65536 + xs @ (ys & 0xFFFF)) % p
    return out


def _matmul_q(x, y):
    out = [[0] * y.shape[1] for _ in range(x.shape[0])]
    xl, yl = x.tolist(), y.tolist()
    for k in range(x.shape[1]):
        col = [(i, row[k]) for i, row in enumerate(xl) if row[k]]
        if not col:
            continue
        yrow = [(j, v) for j, v in enumerate(yl[k]) if v]
        for i, v in col:
            orow = out[i]
            for j, w in yrow:
                orow[j] += v * w
    return array(None, out, y.shape[1])


def matmul(p, x, y):
    """x @ y over the field."""
    return _matmul_q(x, y) if p is None else _matmul_mod(x, y, p)


def _reduce(p, x):
    return x if p is None else x % p


def _first_mismatch(want, got, what):
    bad = np.argwhere(want != got)
    if not len(bad):
        return None
    i, j = (int(t) for t in bad[0])
    return f"{what} mismatch at ({i},{j}): want {want[i, j]}, got {got[i, j]}"


def _is_perm(perm, n):
    return len(perm) == n and sorted(perm) == list(range(n))


def _entries_ok(p, x, what):
    if p is not None and ((x < 0) | (x >= p)).any():
        return f"{what} has an entry outside 0..{p - 1}"
    return None


def _unit_lower(x, what):
    k = min(x.shape)
    if (np.diagonal(x)[:k] != 1).any():
        return f"{what} has a diagonal entry that is not one"
    if (np.triu(x, 1) != 0).any():
        return f"{what} is nonzero above the diagonal"
    return None


def _upper_nonsingular(x, what):
    if (np.diagonal(x) == 0).any():
        return f"{what} has a zero diagonal entry"
    if (np.tril(x, -1) != 0).any():
        return f"{what} is nonzero below the diagonal"
    return None


def _check_d(p, blocks, r):
    size = 0
    for k, blk in enumerate(blocks):
        vals = blk[1:]
        if any(v == 0 for v in vals) or (p is not None and not all(0 <= v < p for v in vals)):
            return f"D block {k} is singular or not in the field"
        if blk[0] == "scalar" and len(vals) == 1:
            size += 1
        elif blk[0] == "antidiag" and len(vals) == 2:
            if vals[0] != vals[1]:
                return f"antidiagonal D block {k} is not symmetric"
            size += 2
        else:
            return f"D block {k} is malformed: {blk[0]!r}"
    if size != r:
        return f"D blocks cover {size} rows, rank is {r}"
    return None


def d_times(p, blocks, x):
    """D @ x for block-diagonal symmetric D."""
    out = x.copy()
    off = 0
    for blk in blocks:
        if blk[0] == "scalar":
            out[off] = x[off] * blk[1]
            off += 1
        else:
            out[off] = x[off + 1] * blk[1]
            out[off + 1] = x[off] * blk[2]
            off += 2
    return _reduce(p, out)


def check_ldl(p, a, perm, l, d, r):
    """A[perm[i]][perm[j]] == (L D L^T)[i][j], L unit lower-trapezoidal n x r."""
    a = array(p, a)
    l = array(p, l, r)
    n = a.shape[0]
    if not _is_perm(perm, n):
        return "P is not a permutation"
    if l.shape != (n, r):
        return f"L is not {n}x{r}"
    msg = _check_d(p, d, r) or _entries_ok(p, l, "L") or _unit_lower(l, "L")
    if msg:
        return msg
    # L D L^T = (D L^T)^T L^T since D is symmetric.
    lt = np.ascontiguousarray(l.T)
    recon = matmul(p, np.ascontiguousarray(d_times(p, d, lt).T), lt)
    return _first_mismatch(a[np.ix_(perm, perm)], recon, "P^T A P vs L D L^T")


def check_lu(p, a, prow, pcol, l, u, r, structural=True):
    """A[prow[i]][pcol[j]] == (L U)[i][j]; with `structural`, the first r
    pivot rows keep their order and L in original row order has a strict
    echelon staircase."""
    a = array(p, a)
    m, n = a.shape
    l, u = array(p, l, r), array(p, u, n)
    if not (_is_perm(prow, m) and _is_perm(pcol, n)):
        return "P or Q is not a permutation"
    if r > min(m, n) or l.shape != (m, r) or u.shape != (r, n):
        return "factor shapes do not match"
    msg = (
        _entries_ok(p, l, "L") or _entries_ok(p, u, "U")
        or _unit_lower(l, "L") or _upper_nonsingular(u, "U")
    )
    if msg:
        return msg
    msg = _first_mismatch(a[np.ix_(prow, pcol)], matmul(p, l, u), "P A Q^T vs L U")
    if msg or not structural:
        return msg
    if any(prow[t] >= prow[t + 1] for t in range(r - 1)):
        return "pivot rows are not in original order"
    orig = np.empty_like(l)
    orig[prow] = l
    nonzero = orig != 0
    if not nonzero.any(axis=0).all():
        return "L has a zero column"
    if (np.diff(nonzero.argmax(axis=0)) <= 0).any():
        return "echelon staircase violated"
    return None


def check_partial_ldl(p, a, b, pa, pb, y, l, u, d, r):
    """Partial LDL of the saddle matrix [[A, B^T], [B, 0]]: with
    V = Y - diag(D) on the leading r rows, P^T A P - V L^T - L V^T - L D L^T
    vanishes outside the trailing block, and B[pb][:, pa] == U^T L^T."""
    a, b = array(p, a), array(p, b)
    n, m = a.shape[0], b.shape[0]
    y, l, u = array(p, y, r), array(p, l, r), array(p, u, m)
    if not (_is_perm(pa, n) and _is_perm(pb, m)):
        return "P or Q is not a permutation"
    if r > min(n, m) or len(d) != r or not (l.shape == y.shape == (n, r) and u.shape == (r, m)):
        return "partial LDL factor shapes do not match"
    dv = array(p, [list(d)], r)
    msg = (
        _entries_ok(p, l, "L") or _entries_ok(p, y, "Y") or _entries_ok(p, u, "U")
        or _entries_ok(p, dv, "D") or _unit_lower(l, "L") or _upper_nonsingular(u, "U")
    )
    if msg:
        return msg
    if (np.triu(y) != 0).any():
        return "Y is nonzero on or above the diagonal"
    v = y.copy()
    v[np.arange(r), np.arange(r)] -= dv[0]
    lt = np.ascontiguousarray(l.T)
    vl = matmul(p, _reduce(p, v), lt)
    ldl = matmul(p, _reduce(p, l * dv), lt)
    resid = _reduce(p, a[np.ix_(pa, pa)] - vl - vl.T - ldl)
    resid[r:, r:] = 0
    if (resid != 0).any():
        i, j = (int(t) for t in np.argwhere(resid != 0)[0])
        return f"residual leaks outside the trailing block at ({i},{j})"
    recon = matmul(p, np.ascontiguousarray(u.T), lt)
    return _first_mismatch(b[np.ix_(pb, pa)], recon, "Q B P^T vs U^T L^T")


def check_transcript(p, a_pos, blocks, rank, peels, lh_times, l_times, width=128):
    """B D B^T == A for an implicit factor B, in post-order labels.

    `lh_times(c0, c1)` returns B^T times columns c0..c1-1 of the identity
    and `l_times(x)` returns B x, both as arrays. Each block of columns is
    compared exactly against `a_pos`.
    """
    n = a_pos.shape[0]
    if peels != n - rank:
        return f"{peels} peels for corank {n - rank}"
    msg = _check_d(p, blocks, rank)
    if msg:
        return msg
    for c0 in range(0, n, width):
        c1 = min(n, c0 + width)
        got = l_times(d_times(p, blocks, lh_times(c0, c1)))
        msg = _first_mismatch(a_pos[:, c0:c1], got, f"B D B^T columns {c0}..{c1 - 1}")
        if msg:
            return msg
    return None


def check_solves(p, x, y, z, w, v):
    """With y = B x, w = B^T z and v = solve(B, y): v == x and z^T y == w^T x."""
    if v.shape != x.shape or (v != x).any():
        return "solve_L(L_times(x)) != x"
    zt = np.ascontiguousarray(z.T)
    wt = np.ascontiguousarray(w.T)
    if (matmul(p, zt, y) != matmul(p, wt, x)).any():
        return "z^T (B x) != (B^T z)^T x"
    return None
