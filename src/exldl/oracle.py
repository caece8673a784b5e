"""Independent brute-force references for the acceptance tests.

Every verifier rejects a rank that its factor shapes cannot certify, runs
the structure checks, and compares one exact identity entry by entry with
zero tolerance, forming no product matrix.  The factors then certify the
rank, so no verifier runs a rank elimination (cf. Kaltofen, Nehring and
Saunders, ISSAC 2011): with r at most both dimensions, a unit lower
trapezoidal L has full column rank, an upper trapezoidal U with a nonzero
diagonal full row rank, and a D of nonzero scalars and antidiagonal pairs
is nonsingular, so L D L^H, L U and the partial LDL's U^H L^H all have
rank r.  A wrong rank claim with valid structure reads as the identity's
first mismatch.

Each product entry is one exact dot product (the parity of an AND of
packed GF(2) words, a residue sum, or an integer sum over a denominator
shared by the whole product over Q) compared with its target by
cross-multiplication (`_product_diff`).  No shipped field conjugates, so
the H of L^H, U^H and B^H is a plain transpose.  L D L^H is symmetric
once D is, so only its lower triangle is summed, and each sum is compared
with both mirrored target entries; for a sparse A (a `SparseSym`, read
only through its `n`, `ctx` and stored upper triangle `rows`) the sums
run over the supports of L's columns in a sparse accumulator per row
(Gustavson, ACM TOMS 4(3), 1978), with no n x n matrix.

`oracle_rank` (for `oracle_congruences` and as the tests' reference rank)
eliminates with pivot search: GF(2) rows packed into ints and combined by
XOR, GF(p) rows as residue lists, rational rows cleared of denominators
and eliminated fraction-free (Bareiss, Math. Comp. 22, 1968).  Inertia is
counted by the oracle's own symmetric elimination over Q and checked
through congruence invariance.  None of this code, the integer clearing
included, is shared with the fast factorization paths; it is meant for
test sizes up to a few hundred.  Reference computations are metered
coarsely (a row update of width w counts w muls and w adds, an (m, k, n)
product a classical one, the sparse route one mul and one add per term).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .dense import DenseMatrix
from .factor import ANTIDIAG, SCALAR, d_size
from .fields import GF2, GFP, RATIONAL, FieldContext, UnorderedField, _ratio


@dataclass
class VerifyReport:
    ok: bool
    first_violation: str | None = None
    reconstruction_error_count: int = 0

    def __bool__(self):
        return self.ok


def _fail(msg: str, count: int = 0) -> VerifyReport:
    return VerifyReport(False, msg, count)


# -- integer forms ----------------------------------------------------------------


def _cleared(row):
    """Integer numerators of a rational row over their common denominator."""
    den = 1
    for x in row:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in row]


def _packed(bits) -> int:
    """GF(2) list packed into one int, bit t = entry t."""
    out = 0
    for t, x in enumerate(bits):
        if x:
            out |= 1 << t
    return out


def _stripped(row):
    # Trailing zeros add nothing to a dot product; `map` stops at the
    # shorter operand, so triangular factors cost half.
    while row and not row[-1]:
        row.pop()
    return row


# -- rank ---------------------------------------------------------------------


def oracle_rank(a: DenseMatrix) -> int:
    """Rank by elimination with pivot search down each column.

    GF(2) rows are packed into ints and eliminated by XOR, GF(p) rows are
    lists of residues, and rational rows are cleared of denominators and
    eliminated fraction-free (Bareiss): after each pivot every remaining
    entry is a minor of the cleared matrix, so the division by the previous
    pivot is exact and the integers stay as small as those minors.
    """
    ctx = a.ctx
    m, n = a.nrows, a.ncols
    if m == 0 or n == 0:
        return 0
    rows = a.to_lists()
    kind = ctx.kind
    p = ctx.p
    if kind == GF2:
        rows = [_packed(row) for row in rows]
    elif kind == RATIONAL:
        rows = [_cleared(row) for row in rows]
    prev = 1  # previous Bareiss pivot
    r = 0
    for j in range(n):
        piv = None
        if kind == GF2:
            bit = 1 << j
            for i in range(r, m):
                if rows[i] & bit:
                    piv = i
                    break
        else:
            for i in range(r, m):
                if rows[i][j] != 0:
                    piv = i
                    break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        if kind == GF2:
            for i in range(r + 1, m):
                if rows[i] & bit:
                    rows[i] ^= prow
        elif kind == GFP:
            pinv = pow(prow[j], p - 2, p)
            tail = prow[j:]
            for i in range(r + 1, m):
                ri = rows[i]
                f = ri[j]
                if f:
                    c = f * pinv % p
                    ri[j:] = [(x - c * y) % p for x, y in zip(ri[j:], tail)]
        else:
            pval = prow[j]
            tail = prow[j:]
            for i in range(r + 1, m):
                ri = rows[i]
                f = ri[j]
                ri[j:] = [(pval * x - f * y) // prev for x, y in zip(ri[j:], tail)]
            prev = pval
        ctx.count_ops(add=(m - r - 1) * n, mul=(m - r - 1) * n, inv=1)
        r += 1
        if r == m:
            break
    return r


# -- raw list arithmetic (reference side only) ----------------------------------


def _operands(ctx: FieldContext, a, b, n: int):
    """Rows of a and columns of b in a form with cheap exact dot products.

    GF(2) rows and columns are packed ints (the dot product is the parity
    of their AND), GF(p) ones are residue lists.  Over Q, column t of a is
    cleared by its denominator alpha_t and row t of b by beta_t; with
    V = lcm_t(alpha_t * beta_t), row i of a is scaled to a_it * V / beta_t
    and column j of b to b_tj * beta_t, so every entry of a @ b is one
    integer dot product over the same V.  Per-index denominators stay small
    where whole rows of a factor do not, and only the left operand carries
    the large V.  Returns (rows, cols, V).
    """
    k = len(b)
    cols = [[b[t][j] for t in range(k)] for j in range(n)]
    if ctx.kind == GF2:
        return [_packed(row) for row in a], [_packed(col) for col in cols], None
    if ctx.kind == GFP:
        return [_stripped(list(row)) for row in a], [_stripped(col) for col in cols], None
    beta = [1] * k
    for t, brow in enumerate(b):
        for y in brow:
            if y.denominator != 1:
                beta[t] = lcm(beta[t], y.denominator)
    alpha = [1] * k
    for arow in a:
        for t, x in enumerate(arow):
            if x.denominator != 1:
                alpha[t] = lcm(alpha[t], x.denominator)
    big = 1
    for al, be in zip(alpha, beta):
        big = lcm(big, al * be)
    scale = [big // be for be in beta]
    rows = [
        _stripped([x.numerator * (s // x.denominator) for x, s in zip(arow, scale)])
        for arow in a
    ]
    cols = [
        _stripped([y.numerator * (be // y.denominator) for y, be in zip(col, beta)])
        for col in cols
    ]
    return rows, cols, big


def _dot_and_value(ctx: FieldContext, big):
    """(dot, value) for _operands: dot(row, col) is an exact integer form of
    one product entry and value(dot) is the canonical field element."""
    if ctx.kind == GF2:
        return (lambda x, y: (x & y).bit_count()), (lambda s: s & 1)
    if ctx.kind == GFP:
        p = ctx.p
        return (lambda x, y: sum(map(mul, x, y))), (lambda s: s % p)
    return (lambda x, y: sum(map(mul, x, y))), (lambda s: _ratio(s, big))


def _count_product(ctx: FieldContext, m: int, k: int, n: int):
    if m and k:
        ctx.count_ops(mul=m * k * n, add=m * n * (k - 1))


def _mm_lists(ctx: FieldContext, a, b, ncols: int | None = None):
    # `ncols` disambiguates empty products.
    m = len(a)
    k = len(a[0]) if a else 0
    n = len(b[0]) if b else (ncols or 0)
    if k == 0:
        return [[ctx.zero] * n for _ in range(m)]
    _count_product(ctx, m, k, n)
    rows, cols, big = _operands(ctx, a, b, n)
    dot, value = _dot_and_value(ctx, big)
    return [[value(dot(row, col)) for col in cols] for row in rows]


def _product_diff(ctx: FieldContext, target, a, b, n: int, symmetric: bool = False):
    """Compare target with the product a @ b (n columns) entry by entry.

    Returns (count, first) as `_first_mismatch` gives them, without
    forming the product: over Q an entry s / V equals t exactly when
    s * den(t) == num(t) * V.
    With symmetric=True the product is known to be symmetric, so only
    entries on and below the diagonal are computed; each one is compared
    with target[i][j] and with target[j][i].
    """
    rows, cols, big = _operands(ctx, a, b, n)
    dot, value = _dot_and_value(ctx, big)
    if ctx.kind == RATIONAL:
        def same(s, t):
            return s * t.denominator == t.numerator * big
    else:
        def same(s, t):
            return value(s) == t
    bad = []
    for i, (row, trow) in enumerate(zip(rows, target)):
        for j in range(i + 1 if symmetric else n):
            s = dot(row, cols[j])
            if not same(s, trow[j]):
                bad.append((i, j, s))
            if symmetric and j < i and not same(s, target[j][i]):
                bad.append((j, i, s))
    return _first_mismatch(bad, lambda i, j: target[i][j], value)


def _first_mismatch(bad, target_at, value):
    """(count, first) of the mismatches `bad`, each (i, j, s): the product
    entry of integer form s differs from the target entry target_at(i, j).
    `first` is (i, j, target, product) at the row-major first (i, j), or
    None."""
    if not bad:
        return 0, None
    i, j, s = min(bad)
    return len(bad), (i, j, target_at(i, j), value(s))


def _t_lists(a):
    return [list(col) for col in zip(*a)]


def _ld_columns(blocks):
    """(src, fac) for block-diagonal D: column k of L @ D is column src[k]
    of L (the pair swapped for a 2x2 block) times the entry fac[k] of D."""
    src, fac = [], []
    off = 0
    for blk in blocks:
        if blk.kind == SCALAR:
            src.append(off)
            fac.append(blk.d)
        else:
            src += [off + 1, off]
            fac += [blk.a21, blk.a12]
        off += blk.size
    return src, fac


def _ld_lists(ctx: FieldContext, llists, blocks):
    """L @ D for block-diagonal D, one multiplication per entry (see
    `_ld_columns`)."""
    src, fac = _ld_columns(blocks)
    if ctx.kind == GF2:
        return [[row[s] & f for s, f in zip(src, fac)] for row in llists]
    if ctx.kind == GFP:
        p = ctx.p
        return [[row[s] * f % p for s, f in zip(src, fac)] for row in llists]
    return [[row[s] * f if row[s] else row[s] for s, f in zip(src, fac)] for row in llists]


def _perm_lists(a: DenseMatrix, pfwd, qfwd):
    rows = a.to_lists()
    return [[row[j] for j in qfwd] for row in (rows[i] for i in pfwd)]


def _check_d_blocks(blocks):
    for k, blk in enumerate(blocks):
        if blk.kind == SCALAR:
            if blk.d == 0:
                return f"zero scalar D block at {k}"
        elif blk.kind == ANTIDIAG:
            if blk.a12 == 0 or blk.a21 == 0:
                return f"zero entry in antidiagonal D block at {k}"
            if blk.a21 != blk.a12:
                return f"antidiagonal D block at {k} breaks conjugate symmetry"
        else:
            return f"unknown D block kind {blk.kind!r} at {k}"
    return None


def _check_unit_lower_trapezoid(rows, r: int, what: str):
    """`rows` are the lists of an n x r factor."""
    for i, row in enumerate(rows[:r]):
        if row[i] != 1:
            return f"{what} diagonal entry {i} is not one"
        for j in range(i + 1, r):
            if row[j] != 0:
                return f"{what}[{i}][{j}] above the diagonal is nonzero"
    return None


def _check_upper_trapezoid(rows, r: int, what: str):
    """`rows` are the lists of an r x m factor with a nonzero diagonal."""
    for i, row in enumerate(rows[:r]):
        if row[i] == 0:
            return f"{what} diagonal entry {i} is zero"
        for j in range(i):
            if row[j] != 0:
                return f"{what}[{i}][{j}] below the diagonal is nonzero"
    return None


# -- LDL verification ------------------------------------------------------------


def oracle_verify_ldl(a, res) -> VerifyReport:
    """Shape, P, D and unit-lower-trapezoid checks, r <= n (past column n
    a unit lower trapezoid may have zero columns, which certify nothing),
    and P A P^H = L D L^H entry by entry.

    A dense A (a `DenseMatrix`) must be square.  Any other A is read as a
    sparse H-symmetric matrix, through its `n`, `ctx` and `rows`, the
    stored upper triangle (row i maps column j >= i to a nonzero entry),
    and compared by `_sparse_ldl_diff`; both routes give the same report
    on every input.
    """
    dense = isinstance(a, DenseMatrix)
    if dense and a.nrows != a.ncols:
        return _fail(f"A has shape {a.shape}, expected a square matrix")
    ctx = a.ctx
    n = a.nrows if dense else a.n
    r = res.r
    if res.L.shape != (n, r):
        return _fail(f"L has shape {res.L.shape}, expected {(n, r)}")
    if len(res.P.fwd) != n:
        return _fail("P has wrong size")
    if d_size(res.D) != r:
        return _fail("D block sizes do not sum to the rank")
    msg = _check_d_blocks(res.D)
    if msg:
        return _fail(msg)
    llists = res.L.to_lists()
    msg = _check_unit_lower_trapezoid(llists, r, "L")
    if msg:
        return _fail(msg)
    if r > n:
        return _fail(f"rank {r} exceeds n = {n}")
    if dense:
        ap = _perm_lists(a, res.P.fwd, res.P.fwd)
        # Metered as the two products L D and (L D) L^H.
        _count_product(ctx, n, r, r)
        _count_product(ctx, n, r, n)
        # D is symmetric (checked above), hence so is L D L^H.
        count, first = _product_diff(
            ctx, ap, _ld_lists(ctx, llists, res.D), _t_lists(llists), n, symmetric=True
        )
    else:
        supports = [[(i, row[k]) for i, row in enumerate(llists) if row[k]] for k in range(r)]
        count, first = _sparse_ldl_diff(ctx, a.rows, res.P, supports, res.D)
    if count:
        i, j, got, want = first
        return _fail(
            f"reconstruction mismatch at ({i},{j}): permuted A is {got}, LDL^H gives {want}",
            count,
        )
    return VerifyReport(True)


def _sparse_ldl_diff(ctx: FieldContext, rows, perm, supports, blocks):
    """(count, first) of `_product_diff(..., symmetric=True)` for the
    permuted sparse A against L D L^H, without an n x n matrix.

    `rows` is A's stored upper triangle, `perm` is P, and `supports` lists
    the nonzero (i, L[i][k]) of each column k of L, in row order.  Column
    k of L D is one of them times one entry of D (`_ld_columns`); each
    pair of entries of the same column of L D and of L with j <= i adds
    one term to entry (i, j) of the lower triangle, so the sums cost the
    squared support sizes.  Each sum is compared with both mirrored
    entries of the permuted A, and each stored entry of A that no sum
    reaches with zero.
    """
    # Over Q the sums are field elements already: scale one.
    _, value = _dot_and_value(ctx, 1)
    ld = [[(i, v * f) for i, v in supports[k]] for k, f in zip(*_ld_columns(blocks))]
    acc = {}  # row i of the lower triangle -> {j: unreduced sum}
    terms = 0
    for xcol, ycol in zip(ld, supports):
        js = [j for j, _ in ycol]
        for i, x in xcol:
            cut = bisect_right(js, i)
            terms += cut
            row = acc.setdefault(i, {})
            for j, y in ycol[:cut]:
                row[j] = row.get(j, 0) + x * y
    ctx.count_ops(mul=terms, add=terms)
    pinv = perm.inv
    bad = []
    for u, arow in enumerate(rows):
        for v, t in arow.items():
            i, j = pinv[u], pinv[v]
            if i < j:
                i, j = j, i
            s = value(acc.get(i, {}).pop(j, 0))
            if s != t:
                bad.append((i, j, s))
                if j < i:
                    bad.append((j, i, s))
    for i, row in acc.items():
        for j, s in row.items():
            s = value(s)
            if s:
                bad.append((i, j, s))
                if j < i:
                    bad.append((j, i, s))

    def target_at(i, j):
        u, v = sorted((perm.fwd[i], perm.fwd[j]))
        return rows[u].get(v, ctx.zero)

    return _first_mismatch(bad, target_at, lambda s: s)


# -- LU verification ---------------------------------------------------------------


def oracle_verify_lu(a: DenseMatrix, res, structural: bool = True) -> VerifyReport:
    """Check r <= min(m, n), the trapezoid shapes, the sizes of P and Q,
    P A Q^T = L U entry by entry, and (optionally) the pivot-row order
    preservation plus the echelon staircase of the L factor brought back
    to original row order."""
    ctx = a.ctx
    m, n = a.nrows, a.ncols
    r = res.r
    if r > min(m, n):
        return _fail(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    if res.L.shape != (m, r) or res.U.shape != (r, n):
        return _fail("factor shapes do not match")
    if len(res.P.fwd) != m:  # a short P or Q would hide rows or columns of A
        return _fail("P has wrong size")
    if len(res.Q.fwd) != n:
        return _fail("Q has wrong size")
    llists, ulists = res.L.to_lists(), res.U.to_lists()
    msg = _check_unit_lower_trapezoid(llists, r, "L") or _check_upper_trapezoid(ulists, r, "U")
    if msg:
        return _fail(msg)
    ap = _perm_lists(a, res.P.fwd, res.Q.fwd)
    _count_product(ctx, m, r, n)
    count, first = _product_diff(ctx, ap, llists, ulists, n)
    if count:
        i, j, got, want = first
        return _fail(
            f"reconstruction mismatch at ({i},{j}): permuted A is {got}, LU gives {want}",
            count,
        )
    if structural:
        piv = res.P.fwd[:r]
        if any(piv[t] >= piv[t + 1] for t in range(r - 1)):
            return _fail("pivot rows are not in original relative order")
        # Echelon staircase: with L back in original row order, the topmost
        # nonzero of column k (L's unit diagonal gives it one) sits strictly
        # below that of column k-1, i.e. trailing supports strictly shrink.
        lorig = [llists[t] for t in res.P.inv]
        tops = [next(i for i, row in enumerate(lorig) if row[k] != 0) for k in range(r)]
        if any(tops[t] >= tops[t + 1] for t in range(r - 1)):
            return _fail("echelon staircase violated: column supports do not shrink")
    return VerifyReport(True)


# -- partial LDL (saddle systems) ----------------------------------------------------


def oracle_verify_partial_ldl(system, f) -> VerifyReport:
    """Check r <= min(n, m), the shapes of L, Y, U and D, the sizes of P
    and Q, and the two identities of the constraint-complemented partial
    LDL entry by entry.

    With V = Y - diag(D) on the leading r rows, P A P^H - V L^H - L V^H -
    L D L^H must vanish outside the trailing (n - r) x (n - r) block; the
    subtracted sum is [V + L D | L] @ [L^H ; V^H], compared with P A P^H
    on the leading r rows and on the leading r columns of the others.
    The constraint block must satisfy Q B P^H = U^H L^H.
    """
    a, b = system.A, system.B
    ctx = a.ctx
    n, m = a.nrows, b.nrows
    r = f.r
    if r > min(n, m):
        return _fail(f"rank {r} exceeds min(n, m) = {min(n, m)}")
    if f.L.shape != (n, r) or f.Y.shape != (n, r) or f.U.shape != (r, m):
        return _fail("partial LDL factor shapes do not match")
    if len(f.P.fwd) != n:
        return _fail("P has wrong size")
    if len(f.Q.fwd) != m:  # a short Q would hide rows of B
        return _fail("Q has wrong size")
    if len(f.D) != r:
        return _fail("partial LDL D has wrong length")
    llists, v, ulists = f.L.to_lists(), f.Y.to_lists(), f.U.to_lists()
    msg = _check_unit_lower_trapezoid(llists, r, "L")
    if msg:
        return _fail(msg)
    for i, row in enumerate(v[:r]):
        if row[i] != 0:
            return _fail(f"Y diagonal entry {i} is nonzero")
        for j in range(i + 1, r):
            if row[j] != 0:
                return _fail(f"Y[{i}][{j}] above the diagonal is nonzero")
    msg = _check_upper_trapezoid(ulists, r, "U")
    if msg:
        return _fail(msg)
    # V = Y - diag(D) on the leading r rows.
    for i in range(r):
        v[i][i] = ctx.sub(v[i][i], f.D[i])
    left = [[ctx.add(x, ctx.mul(y, d)) for x, y, d in zip(vrow, lrow, f.D)] + lrow
            for vrow, lrow in zip(v, llists)]
    lh = _t_lists(llists)
    right = lh + _t_lists(v)
    ap = _perm_lists(a, f.P.fwd, f.P.fwd)
    _count_product(ctx, r, 2 * r, n)
    _count_product(ctx, n - r, 2 * r, r)
    _, head = _product_diff(ctx, ap[:r], left[:r], right, n)
    _, tail = _product_diff(ctx, [row[:r] for row in ap[r:]], left[r:],
                            [row[:r] for row in right], r)
    if head or tail:
        i, j = head[:2] if head else (r + tail[0], tail[1])
        return _fail(f"residual leaks outside the trailing block at ({i},{j})")
    bp = _perm_lists(b, f.Q.fwd, f.P.fwd)
    _count_product(ctx, m, r, n)
    # U^H from the matrix: with r = 0 its m rows are not in `ulists`.
    count, first = _product_diff(ctx, bp, f.U.conj_transpose().to_lists(), lh, n)
    if count:
        i, j, got, want = first
        return _fail(
            f"constraint block mismatch at ({i},{j}): permuted B is {got}, U^H L^H gives {want}",
            count,
        )
    return VerifyReport(True)


# -- inertia through congruence -------------------------------------------------------


def oracle_inertia(a: DenseMatrix) -> tuple:
    """(positive, negative, zero) eigenvalue counts of a symmetric rational
    matrix, by symmetric elimination on its integer form.

    The matrix is cleared by one common denominator, a positive scale, and
    each step is a congruence (Sylvester's law of inertia): a nonzero
    diagonal pivot d counts as the sign of d and leaves |d| times its
    Schur complement; when every diagonal entry is zero, a pair with
    b = a_ij != 0 counts as one positive and one negative eigenvalue (the
    block [[0, b], [b, 0]]) and leaves |b| times its Schur complement; a
    zero matrix counts as zeros.  The entries are divided by their gcd
    after each step.
    """
    ctx = a.ctx
    if ctx.kind != RATIONAL:
        raise UnorderedField("inertia needs the rationals")
    rows = a.to_lists()
    den = lcm(1, *(x.denominator for row in rows for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    pos = neg = 0
    while m:
        n = len(m)
        k = next((i for i in range(n) if m[i][i]), None)
        if k is not None:
            d = m[k][k]
            sign = 1 if d > 0 else -1
            pos, neg = pos + (d > 0), neg + (d < 0)
            rest = [t for t in range(n) if t != k]
            m = [[sign * (d * m[x][y] - m[x][k] * m[k][y]) for y in rest] for x in rest]
        else:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
            if pair is None:
                break
            i, j = pair
            b = m[i][j]
            sign = 1 if b > 0 else -1
            pos, neg = pos + 1, neg + 1
            rest = [t for t in range(n) if t not in pair]
            m = [[sign * (b * m[x][y] - m[x][i] * m[j][y] - m[x][j] * m[i][y]) for y in rest]
                 for x in rest]
        g = gcd(*(v for row in m for v in row))
        if g > 1:
            m = [[v // g for v in row] for row in m]
        ctx.count_ops(add=len(m) ** 2, mul=len(m) ** 2)
    return pos, neg, len(m)


def oracle_congruences(a: DenseMatrix, trials: int, seed: int = 0):
    """G A G^H for `trials` random invertible integer G (entries -3..3)."""
    ctx = a.ctx
    n = a.nrows
    rng = random.Random(seed)
    for _ in range(trials):
        while True:
            g = DenseMatrix.from_rows(
                ctx,
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
            )
            if oracle_rank(g) == n:
                break
        glists = g.to_lists()
        gagh = _mm_lists(ctx, _mm_lists(ctx, glists, a.to_lists()), _t_lists(glists))
        yield DenseMatrix.from_rows(ctx, gagh)


def oracle_inertia_congruence(a: DenseMatrix, trials: int, seed: int = 0) -> VerifyReport:
    """Inertia must be invariant under congruence by random invertible G."""
    if a.ctx.kind != RATIONAL:
        raise UnorderedField("inertia congruence check needs the rationals")
    base = oracle_inertia(a)
    for t, cong in enumerate(oracle_congruences(a, trials, seed)):
        got = oracle_inertia(cong)
        if got != base:
            return _fail(f"inertia changed under congruence trial {t}: {base} -> {got}")
    return VerifyReport(True)
