"""Golden digests of the tree engine and the saddle completion.

The inputs come from a fixed formula, not a random generator.  Each case
runs one call over one field at one Strassen cutoff and hashes what it
returns: the transforms, the elimination order, the explicit factors, the
interface Schur complement S and carried rows F, and the op counts.  A
change that alters any of them, or the field operations it spends, changes
its SHA-256.  The inputs have zero diagonals, so the bag step reaches its
constraint complementation (step 2) and peels with nonzero coefficients.
"""

import hashlib

import pytest

from exldl import sparse
from exldl.cli import parse_field
from exldl.dense import DenseMatrix
from exldl.saddle import SaddleSystem, complete_saddle_ldl, schilders_partial_ldl
from exldl.sparse import Peel, SparseSym, VertexElim, sparse_ldl, sparse_lu, tree_ldl
from exldl.treedec import TreeDecomposition, normalize_td

FIELDS = ("gf2", "gfp:7", "gfp:2147483647", "rational")
CUTOFFS = (None, 2)


def value(ctx, i, j, salt):
    """A small entry, zero about a third of the time (half on the diagonal)."""
    if (i + 2 * j + salt) % (2 if i == j else 3) == 0:
        return ctx.zero
    v = (7 * i + 11 * j + 13 * salt + 5 * i * j) % 9 - 4
    if ctx.is_ordered():
        return ctx.el(f"{v}/{(i + j + salt) % 3 + 1}")
    return ctx.el(v)


def sym(ctx, n, pattern, salt):
    """The symmetric matrix with `value` on the given (i, j) and diagonal."""
    a = SparseSym(ctx, n)
    for i, j in sorted(pattern | {(v, v) for v in range(n)}):
        a.set(i, j, value(ctx, i, j, salt))
    return a


def strip(ctx, length, salt):
    """3 x length grid, vertex (r, c) -> 3c + r, with sliding-window bags."""
    pattern = set()
    for v in range(3 * length):
        if v % 3 < 2:
            pattern.add((v, v + 1))
        if v + 3 < 3 * length:
            pattern.add((v, v + 3))
    bags = [
        [3 * c + rr for rr in range(r, 3)] + [3 * c + 3 + rr for rr in range(r + 1)]
        for c in range(length - 1)
        for r in range(3)
    ]
    td = TreeDecomposition.build(3 * length, bags, [(i, i + 1) for i in range(len(bags) - 1)])
    return sym(ctx, 3 * length, pattern, salt), td


def ktree(ctx, n, salt):
    """A partial 4-tree: each new vertex joins four vertices of a bag."""
    bags = [list(range(5))]
    edges = []
    pattern = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    for v in range(5, n):
        host = (7 * v + salt) % len(bags)
        sub = [u for t, u in enumerate(bags[host]) if t != v % 5]
        bags.append(sorted(sub + [v]))
        edges.append((host, len(bags) - 1))
        pattern.update((u, v) for u in sub if (u + v + salt) % 4)
    return sym(ctx, n, pattern, salt), TreeDecomposition.build(n, bags, edges)


def dense(ctx, m, n, salt, band=None):
    return DenseMatrix.from_rows(ctx, [
        [value(ctx, i, j, salt) if band is None or abs(i - j) <= band else ctx.zero
         for j in range(n)]
        for i in range(m)
    ])


def saddles(ctx):
    """Three systems: a general one, one whose A has a zero diagonal (so
    pairs give antidiagonal blocks), and one whose B is rank-deficient."""
    yield SaddleSystem(dense_sym(ctx, 7, 1), dense(ctx, 3, 7, 2))
    a = dense_sym(ctx, 6, 3)
    for i in range(6):
        a.set(i, i, ctx.zero)
    yield SaddleSystem(a, dense(ctx, 4, 6, 4))
    b = dense(ctx, 2, 8, 5)
    yield SaddleSystem(dense_sym(ctx, 8, 6), DenseMatrix.from_rows(ctx, b.to_lists() * 2))


def dense_sym(ctx, n, salt):
    return sym(ctx, n, {(i, j) for i in range(n) for j in range(i + 1, n)}, salt).densify()


# -- serialization -----------------------------------------------------------------


def mat(ctx, m):
    return [[ctx.fmt(v) for v in row] for row in m.to_lists()]


def blk(ctx, b):
    return (b.kind, *(ctx.fmt(v) for v in (b.d, b.a12, b.a21) if v is not None))


def entries(ctx, col):
    return [(i, ctx.fmt(v)) for i, v in col]


def transform(ctx, tf):
    if isinstance(tf, Peel):
        return ("peel", tf.target, entries(ctx, tf.coeffs))
    if isinstance(tf, VertexElim):
        return ("vertex", tf.pivot, entries(ctx, tf.col), blk(ctx, tf.block))
    return ("edge", tf.pivots, entries(ctx, tf.col1), entries(ctx, tf.col2), blk(ctx, tf.block))


def ldl(ctx, res):
    return (res.P.fwd, mat(ctx, res.L), [blk(ctx, b) for b in res.D], res.r)


def transcript(ctx, t):
    return [transform(ctx, tf) for tf in t.transforms]


# -- the calls ---------------------------------------------------------------------


def run_calls(ctx, cutoff):
    """(name, serialized result, transcript or None) of each call."""
    a, td = strip(ctx, 16, 1)
    out = sparse_ldl(a, td, cutoff=cutoff, explicit=True)
    t = out.transcript
    yield "strip-ldl", (transcript(ctx, t), out.order.fwd, ldl(ctx, out.explicit)), t

    a, td = ktree(ctx, 50, 2)
    out = sparse_ldl(a, td, cutoff=cutoff, explicit=True)
    t = out.transcript
    yield "ktree-ldl", (transcript(ctx, t), out.order.fwd, ldl(ctx, out.explicit)), t

    a, td = ktree(ctx, 36, 3)
    ntd = normalize_td(td)
    t, s, f = tree_ldl(a.relabel(ntd.order), ntd, 2, cutoff)
    yield "tree-ldl-gamma", (transcript(ctx, t), ntd.order.fwd, mat(ctx, s), mat(ctx, f)), t

    out = sparse_lu(dense(ctx, 14, 12, 4, band=2), cutoff=cutoff, explicit=True)
    lu, t = out.explicit, out.transcript
    factors = (lu.P.fwd, lu.Q.fwd, mat(ctx, lu.L), mat(ctx, lu.U), lu.r)
    yield "band-lu", (transcript(ctx, t), out.order.fwd, factors), t

    results = []
    for system in saddles(ctx):
        f = schilders_partial_ldl(system, cutoff)
        results.append(ldl(ctx, complete_saddle_ldl(system, f)))
    yield "saddle-complete", results, None


def digests(spec, cutoff, monkeypatch):
    """(name -> SHA-256 of result and op counts, step-2 runs, transcripts)."""
    ctx = parse_field(spec)
    counter = ctx.enable_counter()
    step2 = []

    def counted(*args, **kwargs):
        step2.append(1)
        return schilders_partial_ldl(*args, **kwargs)

    monkeypatch.setattr(sparse, "schilders_partial_ldl", counted)
    out, transcripts = {}, []
    for name, result, t in run_calls(ctx, cutoff):
        text = repr((result, counter.snapshot()))
        counter.reset()
        out[name] = hashlib.sha256(text.encode()).hexdigest()
        if t is not None:
            transcripts.append(t)
    ctx.disable_counter()
    return out, len(step2), transcripts


# SHA-256 of each call's result and op counts, keyed by "field cutoff".
GOLDEN = {
    "gf2 None": {
        "strip-ldl": "0420e0b480c59cf7fc63a67ad7cc134e11093234bd566b6b1d45b44a62b37861",
        "ktree-ldl": "b4524d2fc831a0aa6863bce9fe7441235e289c7329b1bf9c258c0b00734d675b",
        "tree-ldl-gamma": "f53e3eb177f0875a4136ac5ec1c8c832740314f75f736cbe7e7145fd5a069d3b",
        "band-lu": "289cbed1505a7c2108aed2b8ee1de1d7fe2eb16c286d96115e263a00049c5b5c",
        "saddle-complete": "6deee460b612aa72356f3749568942268e48726f50eae90ca5b495880991017f",
    },
    "gf2 2": {
        "strip-ldl": "0420e0b480c59cf7fc63a67ad7cc134e11093234bd566b6b1d45b44a62b37861",
        "ktree-ldl": "e027d542a0e650608be373393c5df3a47ae96190d8e3aed2a0b2f24d90c49a75",
        "tree-ldl-gamma": "f53e3eb177f0875a4136ac5ec1c8c832740314f75f736cbe7e7145fd5a069d3b",
        "band-lu": "289cbed1505a7c2108aed2b8ee1de1d7fe2eb16c286d96115e263a00049c5b5c",
        "saddle-complete": "44322c9171929c5018403d2d300242899e4c31913bc36ed085c810de2b9f14e5",
    },
    "gfp:7 None": {
        "strip-ldl": "95fb3ef2e5e17bc84cd9628467c0b2799c589becec266ecda4df0b9ff7a5d6fe",
        "ktree-ldl": "bc594977575a1e772ec5d596f21c271d4d2c6f2ee9dcf861f9a304c948b56125",
        "tree-ldl-gamma": "37c15a351b01213695536053c52b4a3028d6ae6a7f9df9d6cb107aa6fbba9e83",
        "band-lu": "9dd6d91ee46a3af95b8790d04297566bdb451b902e57d1a84e566b3295d21046",
        "saddle-complete": "051a5ca45d882151908bd99c9eab2d72527f648138f194ec85c12dcdad653d16",
    },
    "gfp:7 2": {
        "strip-ldl": "95fb3ef2e5e17bc84cd9628467c0b2799c589becec266ecda4df0b9ff7a5d6fe",
        "ktree-ldl": "25dc30288f6620256a73d6bdd96e1c2b6eae00336cf7f229e453ee3d88715347",
        "tree-ldl-gamma": "ee7949ca44bda523cbeb8434ef3d7218ee0ed9f6d0d32668a9c3dfc6925c05eb",
        "band-lu": "9dd6d91ee46a3af95b8790d04297566bdb451b902e57d1a84e566b3295d21046",
        "saddle-complete": "e51d45ba3e33064e98c68e767b35b8296fa7c6a56abbd7bac4a158b635ee5d29",
    },
    "gfp:2147483647 None": {
        "strip-ldl": "4a8d24ff2cc7de07b3afd5a212460686e15d29cadcba0a223af104c2f5719765",
        "ktree-ldl": "5535b4ae9765dba2fa30416dc4e2c8f668ada51738be256044f3081a62fa3d64",
        "tree-ldl-gamma": "3d7fcdf2939dda236d4883da2d03a06ac4cfcd4ac414b204cfca1458bffaf32e",
        "band-lu": "64ad2e5594efc034d8156f9956e0122fcdee9c71ef78aef2e26a010e259cc35a",
        "saddle-complete": "56b9419a0db81bfda424624df0967de9ec42c1b62fc418e5710185c7cb8ad904",
    },
    "gfp:2147483647 2": {
        "strip-ldl": "4a8d24ff2cc7de07b3afd5a212460686e15d29cadcba0a223af104c2f5719765",
        "ktree-ldl": "4546614a542406c0f9df91dd5fcddb915b7e3338d59b1e3c1628d94fa4318a71",
        "tree-ldl-gamma": "bbfc331b33f8f38d8764b3050155124b36efe6710718d3dd257b3dd65e784e5e",
        "band-lu": "64ad2e5594efc034d8156f9956e0122fcdee9c71ef78aef2e26a010e259cc35a",
        "saddle-complete": "64a9c981426240deddb291f20d19ee33e0954581e168c78a60bfc75e41735e40",
    },
    "rational None": {
        "strip-ldl": "a904cb476c91b4d068049f7802b2a23e85330317540080ce8593f8236cdb8c7e",
        "ktree-ldl": "e6a638ae76fc864fa9b0cdec06a432f6cf491833d096a4470e7dfccbd85fbd5a",
        "tree-ldl-gamma": "261ed304ccea66856f41aa39bdf39b311b5441bcadb15350c77fe5aa105ff977",
        "band-lu": "15f8cedd5e0f921f1e8ff5e683262b2712e1ce5123bf501e84e7d22cbb496b25",
        "saddle-complete": "831b485c0220ea604594511060a8948701083f3bfad29590e9e2c900a22edf31",
    },
    "rational 2": {
        "strip-ldl": "a904cb476c91b4d068049f7802b2a23e85330317540080ce8593f8236cdb8c7e",
        "ktree-ldl": "0c81c5567a29eaaf64e237cd50508a07fa2d3f554d46f8f509c3567ff8878b89",
        "tree-ldl-gamma": "06e099a1bd322eef1ebe05eef99227dac88e5ac88889c7c5f3b83a4b3ba69b6b",
        "band-lu": "15f8cedd5e0f921f1e8ff5e683262b2712e1ce5123bf501e84e7d22cbb496b25",
        "saddle-complete": "737d3168859cf69dae3965af4ffd3953203285a71605d76c67bc02fade2f3b63",
    },
}


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_engine_golden(spec, cutoff, monkeypatch):
    got, step2, transcripts = digests(spec, cutoff, monkeypatch)
    assert step2 > 0, "no bag reached the constraint complementation"
    assert any(
        isinstance(tf, Peel) and tf.coeffs for t in transcripts for tf in t.transforms
    ), "no peel with nonzero coefficients"
    assert got == GOLDEN[f"{spec} {cutoff}"]
