"""Golden digests of the tree engine, the saddle completion and the small
dense kernels the bag step calls.

The inputs come from a fixed formula, not a random generator, but for two
wide partial k-trees drawn from a generator seeded by the field's name,
with bags wide enough for the matrix steps at the default cutoff.  Each
case runs one call over one field at one Strassen cutoff and hashes what
it returns: the transforms, the elimination order, the explicit factors,
the interface Schur complement S and carried rows F, and the op counts.
A change that alters any of them, or the field operations it spends,
changes its SHA-256.  The fixed inputs have zero diagonals, so the bag
step reaches its constraint complementation (step 2) and peels with
nonzero coefficients.
The same calls and a random k-tree sweep give the same results and op
counts when every bag takes the matrix steps instead of the flat ones.
The kernel cases run `fast_ldl` (on leaves of its recursion and on larger
inputs), `natural_order_ldl`, `fast_lu`, `tri_solve`, `_peel_dependent`
and `schilders_partial_ldl` -> `residual_schur` -> `pair_columns` on
inputs of at most 9 rows, and check that they reach the branches named in
`test_kernel_golden`.  The elimination cases run `vertex_eliminate` at
every index and `edge_eliminate` at every ordered pair of those inputs,
and check that they raise `ZeroPivot`, `SingularPivot` and (on a repeated
index) `ValueError` and eliminate both a normalised and an antidiagonal
pair.  The gamma cases run
`gamma_eliminate_partial` on saddle systems on both sides of the
crossover.  The large kernel cases run `fast_ldl`, `fast_lu`,
`tri_solve` and `schilders_partial_ldl` -> `complete_saddle_ldl` at
n = 40 and 64 over GF(2) and GF(p), where the dense kernels cross to whole
arrays.  The sweep runs `fast_ldl` at n = 0..20 and five cutoffs on
inputs from a random generator seeded by the field's name, on both sides
of its flat base."""

import hashlib
import random
import zlib

import pytest

from exldl import factor, sparse
from exldl.cli import parse_field
from exldl.dense import (
    _CROSSOVER, _TRI_BASE, LEFT, LOWER, LOWER_UNIT, RIGHT, UPPER, UPPER_UNIT, DenseMatrix,
    matmul, tri_solve,
)
from exldl.factor import (
    ANTIDIAG, SCALAR, edge_eliminate, fast_ldl, fast_lu, natural_order_ldl, vertex_eliminate,
)
from exldl.fields import ResidualLeakage, SingularPivot, ZeroPivot
from exldl.saddle import (
    PartialLDL,
    SaddleSystem,
    complete_saddle_ldl,
    gamma_eliminate_partial,
    pair_columns,
    residual_schur,
    schilders_partial_ldl,
)
from exldl.sparse import Peel, SparseSym, Transcript, VertexElim, sparse_ldl, sparse_lu, tree_ldl
from exldl.treedec import TreeDecomposition, normalize_td
from test_saddle import example_fill_family

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

    # bags of up to 13 frontal rows, several with carried rows that pivot:
    # at the default cutoff these take the matrix steps
    rng = random.Random(zlib.crc32(ctx.spec.encode()))
    for n, width, density, diagonal in ((70, 10, 0.5, False), (70, 12, 0.9, True)):
        a, td = random_ktree(ctx, rng, n, width, density, diagonal)
        out = sparse_ldl(a, td, cutoff=cutoff, explicit=True)
        t = out.transcript
        yield f"wide-ldl-{width}", (transcript(ctx, t), out.order.fwd, ldl(ctx, out.explicit)), t

    results = []
    for system in saddles(ctx):
        f = schilders_partial_ldl(system, cutoff)
        results.append(ldl(ctx, complete_saddle_ldl(system, f)))
    yield "saddle-complete", results, None


def digests(spec, cutoff, monkeypatch):
    """(name -> SHA-256 of result and op counts, step-2 pairs, transcripts)."""
    ctx = parse_field(spec)
    counter = ctx.enable_counter()
    step2 = []

    def counted(make):  # each constraint pair of step 2, on either path
        def pair(*args):
            step2.append(1)
            return make(*args)
        return pair

    # the flat steps make their pairs with skeleton_pair, the matrix steps
    # with pair_columns
    for name in ("skeleton_pair", "pair_columns"):
        monkeypatch.setattr(sparse, name, counted(getattr(sparse, name)))
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
        "wide-ldl-10": "d918a58c3d67cfa7e93321da34640809d094e02738acd2c874568b1fc4532b47",
        "wide-ldl-12": "326c6a0229c4ee07c9b7895830c7105f322a77fbf4c96bd1115355aa17ee07b7",
        "saddle-complete": "6deee460b612aa72356f3749568942268e48726f50eae90ca5b495880991017f",
    },
    "gf2 2": {
        "strip-ldl": "0420e0b480c59cf7fc63a67ad7cc134e11093234bd566b6b1d45b44a62b37861",
        "ktree-ldl": "e027d542a0e650608be373393c5df3a47ae96190d8e3aed2a0b2f24d90c49a75",
        "tree-ldl-gamma": "f53e3eb177f0875a4136ac5ec1c8c832740314f75f736cbe7e7145fd5a069d3b",
        "band-lu": "289cbed1505a7c2108aed2b8ee1de1d7fe2eb16c286d96115e263a00049c5b5c",
        "wide-ldl-10": "9d1f0f48334b0df76787e2787693b95268d09a37307ffacd49017adf0e46ce5a",
        "wide-ldl-12": "8db17a94248ff90ce82d73b0d4ece2189e8b01ffd768d0cd1ad1c41cc5c72a9b",
        "saddle-complete": "44322c9171929c5018403d2d300242899e4c31913bc36ed085c810de2b9f14e5",
    },
    "gfp:7 None": {
        "strip-ldl": "95fb3ef2e5e17bc84cd9628467c0b2799c589becec266ecda4df0b9ff7a5d6fe",
        "ktree-ldl": "bc594977575a1e772ec5d596f21c271d4d2c6f2ee9dcf861f9a304c948b56125",
        "tree-ldl-gamma": "37c15a351b01213695536053c52b4a3028d6ae6a7f9df9d6cb107aa6fbba9e83",
        "band-lu": "9dd6d91ee46a3af95b8790d04297566bdb451b902e57d1a84e566b3295d21046",
        "wide-ldl-10": "89fd0dca366fea0576e62f916ea7b24bd61f03ac119e4eaba03f01d3b1e56716",
        "wide-ldl-12": "daa66ca75e8267d879e3aee358639f315f6033506e65f6f3fba77463fdf3fa89",
        "saddle-complete": "051a5ca45d882151908bd99c9eab2d72527f648138f194ec85c12dcdad653d16",
    },
    "gfp:7 2": {
        "strip-ldl": "95fb3ef2e5e17bc84cd9628467c0b2799c589becec266ecda4df0b9ff7a5d6fe",
        "ktree-ldl": "25dc30288f6620256a73d6bdd96e1c2b6eae00336cf7f229e453ee3d88715347",
        "tree-ldl-gamma": "ee7949ca44bda523cbeb8434ef3d7218ee0ed9f6d0d32668a9c3dfc6925c05eb",
        "band-lu": "9dd6d91ee46a3af95b8790d04297566bdb451b902e57d1a84e566b3295d21046",
        "wide-ldl-10": "1df52c5bbdc5531eac94e40edc649f9274553270247e0ca228cf0479fad20bb2",
        "wide-ldl-12": "a4238823ebcc207d64d594d8b052c9924dbf5758ad7181ea3b9535a99c477f63",
        "saddle-complete": "e51d45ba3e33064e98c68e767b35b8296fa7c6a56abbd7bac4a158b635ee5d29",
    },
    "gfp:2147483647 None": {
        "strip-ldl": "4a8d24ff2cc7de07b3afd5a212460686e15d29cadcba0a223af104c2f5719765",
        "ktree-ldl": "5535b4ae9765dba2fa30416dc4e2c8f668ada51738be256044f3081a62fa3d64",
        "tree-ldl-gamma": "3d7fcdf2939dda236d4883da2d03a06ac4cfcd4ac414b204cfca1458bffaf32e",
        "band-lu": "64ad2e5594efc034d8156f9956e0122fcdee9c71ef78aef2e26a010e259cc35a",
        "wide-ldl-10": "91a54b0ed6197ef10147df50246e63ddee5ce828f1e9a3bfbae9f56eec6ba16a",
        "wide-ldl-12": "16becdf812f08cf31110c7f04f241c61a1934b80ce00a9d43c3605d2b30af4d2",
        "saddle-complete": "56b9419a0db81bfda424624df0967de9ec42c1b62fc418e5710185c7cb8ad904",
    },
    "gfp:2147483647 2": {
        "strip-ldl": "4a8d24ff2cc7de07b3afd5a212460686e15d29cadcba0a223af104c2f5719765",
        "ktree-ldl": "4546614a542406c0f9df91dd5fcddb915b7e3338d59b1e3c1628d94fa4318a71",
        "tree-ldl-gamma": "bbfc331b33f8f38d8764b3050155124b36efe6710718d3dd257b3dd65e784e5e",
        "band-lu": "64ad2e5594efc034d8156f9956e0122fcdee9c71ef78aef2e26a010e259cc35a",
        "wide-ldl-10": "808c09c97e54a1000d6e6d48d4f998276be231c3190bc60493487a5388af301d",
        "wide-ldl-12": "83bc3636a848aa534d614505264186f883ed6a60ff4be6ad082be541aa2fbc96",
        "saddle-complete": "64a9c981426240deddb291f20d19ee33e0954581e168c78a60bfc75e41735e40",
    },
    "rational None": {
        "strip-ldl": "a904cb476c91b4d068049f7802b2a23e85330317540080ce8593f8236cdb8c7e",
        "ktree-ldl": "e6a638ae76fc864fa9b0cdec06a432f6cf491833d096a4470e7dfccbd85fbd5a",
        "tree-ldl-gamma": "261ed304ccea66856f41aa39bdf39b311b5441bcadb15350c77fe5aa105ff977",
        "band-lu": "15f8cedd5e0f921f1e8ff5e683262b2712e1ce5123bf501e84e7d22cbb496b25",
        "wide-ldl-10": "9b08134e291c96d49fd686b91943fef11dd741d75e604df7ec5f4b3825e8992f",
        "wide-ldl-12": "b468874e930a8b85ec7ea6a2206d4708bfad46236a021d2c7caccf145271c005",
        "saddle-complete": "831b485c0220ea604594511060a8948701083f3bfad29590e9e2c900a22edf31",
    },
    "rational 2": {
        "strip-ldl": "a904cb476c91b4d068049f7802b2a23e85330317540080ce8593f8236cdb8c7e",
        "ktree-ldl": "0c81c5567a29eaaf64e237cd50508a07fa2d3f554d46f8f509c3567ff8878b89",
        "tree-ldl-gamma": "06e099a1bd322eef1ebe05eef99227dac88e5ac88889c7c5f3b83a4b3ba69b6b",
        "band-lu": "15f8cedd5e0f921f1e8ff5e683262b2712e1ce5123bf501e84e7d22cbb496b25",
        "wide-ldl-10": "cd531f20e2ca9edafa19c7870f4c9da3549ca7f070a57dcba0603e78183e2545",
        "wide-ldl-12": "9ae90864ebbb1fe358d844f6c11815d1b6015da6b83d5ea9055c682e5beceb13",
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


# -- the flat bag step against the matrix steps --------------------------------------
#
# A bag of at most `_TRI_BASE` frontal and constraint rows, half of them within
# the cutoff, runs steps 2 and 3 as pivots on one working copy
# (`sparse._flat_steps`); others run them as matrix operations
# (`sparse._matrix_steps`).  Both must give the same results and op counts.


def typed_transcript(ctx, t):
    def col(c):
        return [(i, *typed(ctx, v)) for i, v in c]

    out = []
    for tf in t.transforms:
        if isinstance(tf, Peel):
            out.append(("peel", tf.target, col(tf.coeffs)))
        elif isinstance(tf, VertexElim):
            out.append(("vertex", tf.pivot, col(tf.col), blk(ctx, tf.block), block_types(tf.block)))
        else:
            out.append(("edge", tf.pivots, col(tf.col1), col(tf.col2), blk(ctx, tf.block),
                        block_types(tf.block)))
    return out


def random_ktree(ctx, rng, n, width, density, diagonal):
    """A random partial k-tree of this width on n vertices with its tree
    decomposition: each edge holds a `sweep_el` entry with probability
    density, and so does the diagonal when `diagonal`."""
    bags = [list(range(width + 1))]
    edges = []
    pattern = {(i, j) for i in range(width + 1) for j in range(i + 1, width + 1)}
    for v in range(width + 1, n):
        host = rng.randrange(len(bags))
        sub = rng.sample(bags[host], width)
        bags.append(sorted(sub + [v]))
        edges.append((host, len(bags) - 1))
        pattern.update((u, v) for u in sub)
    a = SparseSym(ctx, n)
    for i, j in sorted(pattern):
        if rng.random() < density:
            a.set(i, j, sweep_el(ctx, rng))
    if diagonal:
        for i in range(n):
            a.set(i, i, sweep_el(ctx, rng))
    return a, TreeDecomposition.build(n, bags, edges)


def ktree_sweep(ctx):
    """Random partial k-trees of widths 2..5 and n up to 60, at two
    densities, with and without a diagonal (many are rank-deficient)."""
    rng = random.Random(zlib.crc32(ctx.spec.encode()))
    for n, width in ((8, 2), (20, 3), (33, 4), (45, 5), (60, 3), (60, 4)):
        for density in (0.4, 0.9):
            for diagonal in (True, False):
                yield random_ktree(ctx, rng, n, width, density, diagonal)


def bag_step_results(spec):
    """The engine golden calls, then sparse_ldl and tree_ldl with a
    two-vertex interface on the k-tree sweep, at cutoffs None and 2: each
    call's result with its transcript's entry types, and its op counts."""
    ctx = parse_field(spec)
    counter = ctx.enable_counter()
    out, ranks = [], []
    try:
        for cutoff in CUTOFFS:
            for name, result, t in run_calls(ctx, cutoff):
                typed_t = typed_transcript(ctx, t) if t is not None else None
                out.append((name, result, typed_t, counter.snapshot()))
                counter.reset()
            for a, td in ktree_sweep(ctx):
                res = sparse_ldl(a, td, cutoff=cutoff, explicit=True)
                ranks.append(res.rank < a.n)
                explicit = (res.explicit.P.fwd, typed_mat(ctx, res.explicit.L),
                            [blk(ctx, b) for b in res.explicit.D], res.explicit.r)
                out.append((typed_transcript(ctx, res.transcript), res.order.fwd, explicit,
                            counter.snapshot()))
                counter.reset()
                ntd = normalize_td(td)
                t, s, f = tree_ldl(a.relabel(ntd.order), ntd, 2, cutoff)
                out.append((typed_transcript(ctx, t), typed_mat(ctx, s), typed_mat(ctx, f),
                            counter.snapshot()))
                counter.reset()
    finally:
        ctx.disable_counter()
    assert any(ranks) and not all(ranks), "the sweep needs full-rank and rank-deficient inputs"
    return out


@pytest.mark.parametrize("spec", FIELDS)
def test_flat_bag_step_matches_the_matrix_steps(spec, monkeypatch):
    # sparse.skeleton_pair and sparse._FlatLDL serve only the flat steps, the
    # first for their constraint pairs (r1 > 0), the second for their local LDL;
    # some flat bags keep rows that step 1 peeled in their working copy
    reached, in_ldl = set(), []
    pair, lu_rows, flat_steps = sparse.skeleton_pair, factor._lu_rows, sparse._flat_steps

    def traced_flat_steps(transcript, s, ids, unpiv, beta, cutoff, dims):
        _, nf, k, _, _ = dims
        if len(ids) > nf + k:
            reached.add("stale rows")
        return flat_steps(transcript, s, ids, unpiv, beta, cutoff, dims)

    def traced_pair(ctx, k1, k2, row_ids):
        reached.add("two scalars" if k1[0] else "antidiagonal")
        return pair(ctx, k1, k2, row_ids)

    class TracedFlatLDL(factor._FlatLDL):
        def node(self, ids):
            in_ldl.append(ids)
            try:
                return super().node(ids)
            finally:
                in_ldl.pop()

    def traced_lu_rows(s, m, n, pad=0):
        if in_ldl:
            reached.add("bordered")
        return lu_rows(s, m, n, pad)

    monkeypatch.setattr(sparse, "skeleton_pair", traced_pair)
    monkeypatch.setattr(sparse, "_FlatLDL", TracedFlatLDL)
    monkeypatch.setattr(factor, "_lu_rows", traced_lu_rows)
    monkeypatch.setattr(sparse, "_flat_steps", traced_flat_steps)
    flat = bag_step_results(spec)
    assert reached == {"two scalars", "antidiagonal", "bordered", "stale rows"}
    monkeypatch.setattr(sparse, "_flat_bag", lambda nf, k, cutoff: False)
    monkeypatch.setattr(sparse, "_flat_steps", None)  # the matrix steps only
    matrix = bag_step_results(spec)
    assert flat == matrix


@pytest.mark.parametrize("spec", FIELDS)
def test_transcript_lists_match_its_transforms(spec):
    # `append` keeps pivot_order, dblocks and peeled; each equals the list
    # rebuilt from the transforms, on the k-tree sweep and a sparse_lu
    ctx = parse_field(spec)
    ts = [sparse_ldl(a, td, explicit=False).transcript for a, td in ktree_sweep(ctx)]
    ts.append(sparse_lu(dense(ctx, 14, 12, 4, band=2), explicit=False).transcript)
    assert any(t.peeled for t in ts)
    for t in ts:
        elims = [tf for tf in t.transforms if not isinstance(tf, Peel)]
        pivots = [p for tf in elims for p, _ in tf.columns()]
        assert t.pivot_order == pivots
        assert t.dblocks == [tf.block for tf in elims]
        assert t.peeled == [tf.target for tf in t.transforms if isinstance(tf, Peel)]
        assert t.rank == len(pivots) == factor.d_size(t.dblocks)
        assert t.peel_count == len(t.peeled) == t.n - t.rank


# -- the small dense kernels the bag step calls --------------------------------------
#
# Every input has at most 9 rows and columns, the sizes of the frontals and
# constraint blocks the tree engine hands to these kernels.


def from_lists(ctx, rows):
    return DenseMatrix.from_rows(ctx, [[ctx.el(v) for v in row] for row in rows])


def folded_sym(ctx, n, k, salt):
    """Symmetric n x n with index i a copy of index i % k: rank at most k."""
    base = dense_sym(ctx, k, salt)
    rows = [[base.get(i % k, j % k) for j in range(n)] for i in range(n)]
    return DenseMatrix.from_rows(ctx, rows)


def bordered(ctx, n, salt):
    """Symmetric n x n whose leading n - n//3 block has rank 2 (one coupled
    pair) while its trailing rows couple to all of it: fast_ldl takes its
    bordered branch (3 r1 < n)."""
    n1 = n - n // 3
    a = DenseMatrix.zeros(ctx, n, n)
    a.set(0, 1, ctx.one)
    a.set(1, 0, ctx.one)
    for i in range(n):
        for j in range(max(i, n1), n):
            v = value(ctx, i, j, salt) or ctx.one
            a.set(i, j, v)
            a.set(j, i, ctx.conj(v))
    return a


def ldl_inputs(ctx):
    yield from_lists(ctx, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # antidiagonal pivot
    yield from_lists(ctx, [[1, 1, 0], [1, 0, 0], [0, 0, 0]])  # zero Schur complement
    yield from_lists(ctx, [[0, 0], [0, 5]])
    for n in range(1, 10):
        yield dense_sym(ctx, n, n)
    for n in (4, 6, 8):
        a = dense_sym(ctx, n, n + 20)
        for i in range(n):
            a.set(i, i, ctx.zero)
        yield a
    yield folded_sym(ctx, 7, 3, 1)
    yield folded_sym(ctx, 9, 4, 2)
    yield bordered(ctx, 7, 3)
    yield bordered(ctx, 9, 4)


def tri_inputs(ctx):
    for n in (1, 4, 9):
        for shape in (LOWER, LOWER_UNIT, UPPER, UPPER_UNIT):
            lower = shape in (LOWER, LOWER_UNIT)
            l = DenseMatrix.from_rows(ctx, [
                [ctx.el(2 * (i % 3) + 1) if i == j else
                 value(ctx, i, j, n) if (j < i) == lower else ctx.zero
                 for j in range(n)]
                for i in range(n)
            ])
            yield l, dense(ctx, n, 3, n + 1), LEFT, shape
            yield l, dense(ctx, 3, n, n + 2), RIGHT, shape


def dependent_rows(ctx, salt):
    """Six rows of rank 3 (rows 1, 4 and 5 combine the others), then one
    zero row."""
    r0, r1, r2 = ([value(ctx, i, j, salt) for j in range(7)] for i in range(3))
    rows = [r0, [x + y for x, y in zip(r0, r1)], r1, r2,
            [2 * x + y for x, y in zip(r0, r2)], [x - y for x, y in zip(r1, r2)], [0] * 7]
    return from_lists(ctx, rows)


def small_saddles(ctx):
    """A system with a unit diagonal in A, one with A = 0 (every pair has
    a11 = 0) and one whose B has rank 2."""
    a = dense_sym(ctx, 6, 8)
    for i in range(6):
        a.set(i, i, ctx.one)
    yield SaddleSystem(a, dense(ctx, 3, 6, 9))
    yield SaddleSystem(DenseMatrix.zeros(ctx, 5, 5), dense(ctx, 2, 5, 10))
    b = dense(ctx, 2, 7, 12)
    yield SaddleSystem(dense_sym(ctx, 7, 11), DenseMatrix.from_rows(ctx, b.to_lists() * 2))


def lu(ctx, res):
    return (res.P.fwd, res.Q.fwd, mat(ctx, res.L), mat(ctx, res.U), res.r)


def run_kernels(ctx, cutoff, reached):
    """(name, serialized result) of each group of kernel calls; `reached`
    collects the branches the inputs took."""
    out = []
    for a in ldl_inputs(ctx):
        if a.nrows <= 3:  # a leaf of fast_ldl's recursion
            res = fast_ldl(a, cutoff)
            reached.update({b.kind for b in res.D})
            if res.r < a.nrows:
                reached.add("zero-break")
            out.append(ldl(ctx, res))
    yield "base-ldl", out

    yield "natural-ldl", [ldl(ctx, natural_order_ldl(a)) for a in ldl_inputs(ctx)]

    out = []
    for a in ldl_inputs(ctx):
        n = a.nrows
        n1 = n - n // 3
        if n > 3 and 3 * fast_ldl(a.block(0, n1, 0, n1)).r < n:
            reached.add("bordered")
        out.append(ldl(ctx, fast_ldl(a, cutoff)))
    yield "fast-ldl", out

    shapes = [(1, 4), (3, 3), (4, 6), (6, 4), (7, 9), (9, 5), (9, 9)]
    mats = [dense(ctx, m, n, m + n) for m, n in shapes]
    mats += [dependent_rows(ctx, 5), dependent_rows(ctx, 6).conj_transpose(),
             DenseMatrix.zeros(ctx, 3, 4)]
    yield "fast-lu", [lu(ctx, fast_lu(b, cutoff)) for b in mats]

    yield "tri-solve", [mat(ctx, tri_solve(*args, cutoff)) for args in tri_inputs(ctx)]

    out = []
    for rows in (dependent_rows(ctx, 7), dependent_rows(ctx, 8), DenseMatrix.zeros(ctx, 2, 3),
                 dense(ctx, 3, 6, 9)):
        t = Transcript(ctx, 30)
        ids = list(range(20, 20 + rows.nrows))
        keep = sparse._peel_dependent(t, rows.conj_transpose().schur(), rows.ncols, ids,
                                      cutoff or ctx.default_cutoff)
        kept, ids = rows.take_rows(keep), [ids[s] for s in keep]
        if sum(isinstance(tf, Peel) for tf in t.transforms) >= 2:
            reached.add("two-peels")
        out.append((transcript(ctx, t), mat(ctx, kept), ids))
    yield "peel-dependent", out

    out = []
    for system in small_saddles(ctx):
        n, m = system.n, system.m
        f = schilders_partial_ldl(system, cutoff)
        pairs = []
        for k in range(f.r):
            pivots, cols, blks = pair_columns(f, k, range(n), range(n, n + m))
            reached.add("a11-zero" if blks[0].kind == ANTIDIAG else "a11-nonzero")
            pairs.append((pivots, [entries(ctx, c) for c in cols], [blk(ctx, b) for b in blks]))
        partial = (f.P.fwd, f.Q.fwd, mat(ctx, f.Y), mat(ctx, f.L), mat(ctx, f.U),
                   [ctx.fmt(d) for d in f.D], f.r)
        out.append((partial, mat(ctx, residual_schur(system, f)), pairs))
        if f.r:
            bad = f.L.copy()
            i = min(n - 1, f.r)
            bad.set(i, 0, ctx.el(bad.get(i, 0) + 1))
            try:
                residual_schur(system, PartialLDL(f.P, f.Q, f.Y, bad, f.U, f.D, f.r))
            except ResidualLeakage as exc:
                out.append(str(exc))
    yield "saddle-trio", out


def kernel_digests(spec, cutoff):
    """(name -> SHA-256 of result and op counts, branches reached)."""
    ctx = parse_field(spec)
    counter = ctx.enable_counter()
    reached = set()
    out = {}
    try:
        for name, result in run_kernels(ctx, cutoff, reached):
            text = repr((result, counter.snapshot()))
            counter.reset()
            out[name] = hashlib.sha256(text.encode()).hexdigest()
    finally:
        ctx.disable_counter()
    return out, reached


# SHA-256 of each kernel group's results and op counts, recorded like GOLDEN.
KERNEL_GOLDEN = {
    "gf2 None": {
        "base-ldl": "6847a6d894bc5339dd69968b03946864b2510fc5aaffe3286a976336ccb9150f",
        "natural-ldl": "b2c0a0e4cd3c4172561f88c5879c7612063afe9a44655a2400244783f0384669",
        "fast-ldl": "c3419b67c95e75f5645ca37d16bdc5319ad248d7d46dcb77981684f5c1e53622",
        "fast-lu": "72b17c520732efc2f63756aa53cdbbbe6e67fa99fe7cba31e0fbf79927b2be76",
        "tri-solve": "f414aee10828db41f1d04c27f834a1165ba3ef0ec4fad6f05aa7310a52db2710",
        "peel-dependent": "c13ecdb799ce28d211d35d44bc89e6bb96fba6bc5863eb4af812f16343ed9029",
        "saddle-trio": "73de352eedb7bfa58e977623190122453c69811059e63680a8fdd3de554f682c",
    },
    "gf2 2": {
        "base-ldl": "6847a6d894bc5339dd69968b03946864b2510fc5aaffe3286a976336ccb9150f",
        "natural-ldl": "b2c0a0e4cd3c4172561f88c5879c7612063afe9a44655a2400244783f0384669",
        "fast-ldl": "0847c40b38d2ce125e8cea37b15e111953e67964bf891d10d58658681802f93f",
        "fast-lu": "13de3c5202ab87ffc51a7467bcd12e9325c8b7b912e54d7e6e1913ef44eca87f",
        "tri-solve": "f414aee10828db41f1d04c27f834a1165ba3ef0ec4fad6f05aa7310a52db2710",
        "peel-dependent": "c13ecdb799ce28d211d35d44bc89e6bb96fba6bc5863eb4af812f16343ed9029",
        "saddle-trio": "12799b54eea209a2ceeca287f6132f3e6aa6519880d6da3f08fdcca51cc1d866",
    },
    "gfp:7 None": {
        "base-ldl": "65eeae4d33bac6e7854d4df3e5ec4ec6cbc6aaae7513f401560e45bab44ffba6",
        "natural-ldl": "3f2dad5414484359ddaab569cf27a4681f5b4dc2fd8ee82ba8485b40f4f785ea",
        "fast-ldl": "8a091413d58e460473d47a992a8c347ded9ebfda70f90a66b7e0634f7388764b",
        "fast-lu": "cbd8b42000fead6bac0868181077f30a72112003236a05020a1179365197eb8c",
        "tri-solve": "d6b86a1d2942c9e8b8b524ce489eb05ba6ce518729af9995ec3de89b6429061a",
        "peel-dependent": "33204d9d066e3f3ff0686712acbb2278dabe6deb6b478f2dd3ae27c03d2ab928",
        "saddle-trio": "b28f3c8f852002769646280be3e62751f073e5261d9c84a3434d61a84615924b",
    },
    "gfp:7 2": {
        "base-ldl": "65eeae4d33bac6e7854d4df3e5ec4ec6cbc6aaae7513f401560e45bab44ffba6",
        "natural-ldl": "3f2dad5414484359ddaab569cf27a4681f5b4dc2fd8ee82ba8485b40f4f785ea",
        "fast-ldl": "088c1e5486940763d97523d0db3ff136262b32187c1028c6565351fdd130c5cf",
        "fast-lu": "33b5af4feddd710e48801d2f36314d166ffdc048428758817a2a03c626bbb4c7",
        "tri-solve": "d6b86a1d2942c9e8b8b524ce489eb05ba6ce518729af9995ec3de89b6429061a",
        "peel-dependent": "246f956ea5fdd013d62abea602391f84a891fdba3b34f7bef3368483c75d5857",
        "saddle-trio": "3bc008d3b7afb0729ec7c65785975f518e8e660f58ec5195a3392b830b588b89",
    },
    "gfp:2147483647 None": {
        "base-ldl": "7344c0d4093605c67cda683cd8a3ddd53dd35eaf86ca556c358f76816679c26a",
        "natural-ldl": "73625d4d227f16133f45279295d5b58da4581b1d7b9b4c55e4664cd3a2a6ad38",
        "fast-ldl": "8e3c083ecb3963ffa4c147fd5f4a0e31264521d97aaeb4df2685dc72feca0aa9",
        "fast-lu": "fead2c662e35484977a4484f88f588a4f182ad05900e5982c712ac52a816112e",
        "tri-solve": "69b3cce0168771e97d648c6b22616ab6e405c00cf5a50670f900fc022b81d4d9",
        "peel-dependent": "78c62d86cdf0544fc38195477298636de419facabac6a562d274157ee1b635c3",
        "saddle-trio": "7ea9efb51cd777bca15af4472ba786b302f9b2ee515eebd47586ff8bf931318e",
    },
    "gfp:2147483647 2": {
        "base-ldl": "7344c0d4093605c67cda683cd8a3ddd53dd35eaf86ca556c358f76816679c26a",
        "natural-ldl": "73625d4d227f16133f45279295d5b58da4581b1d7b9b4c55e4664cd3a2a6ad38",
        "fast-ldl": "f274735901d6e3813a9fc7cd4235c1afe17ee2102515737c28fcd3ae7c0d9c22",
        "fast-lu": "fe7c7bb60ff78b129c569aab2e2fdeaa235c712993ea0352befce9b2686347a2",
        "tri-solve": "69b3cce0168771e97d648c6b22616ab6e405c00cf5a50670f900fc022b81d4d9",
        "peel-dependent": "d5d67f2bda88de230095257d4890925a29cbc2ce955695da69f1c9878f12b205",
        "saddle-trio": "1f6bb5b339783668a265ed0fa8b386c5e11c35084e47132332b39977f525c646",
    },
    "rational None": {
        "base-ldl": "214085da7329cd358fce59a8a8fb0c214864e8143b3bf093f402a79cb7b09928",
        "natural-ldl": "67ef4f0b4884554b2b7042b4e0486c2d90b55fb2711f62f3c9c017ef7f588f53",
        "fast-ldl": "d53dc9aa60ddb84dff3fa7f2b7f8e540dc3fe6eb1ca247680b70952d71790e6a",
        "fast-lu": "75216ea03221c50e6239e3d666c088e6de16279715d6f7de5fe02140164c9f86",
        "tri-solve": "9b5a85a9211cf0b619caadab79c2a6530fc3eeb1cbdfcb4b06deef430e75a967",
        "peel-dependent": "664185afde549bdafd8ecd553799e9a4f0d27522bf995ad9e86552fb454cfb68",
        "saddle-trio": "88dbd4cc0530aba362721137a10f5732220df85cbd8997522a7e84f8b0825657",
    },
    "rational 2": {
        "base-ldl": "214085da7329cd358fce59a8a8fb0c214864e8143b3bf093f402a79cb7b09928",
        "natural-ldl": "67ef4f0b4884554b2b7042b4e0486c2d90b55fb2711f62f3c9c017ef7f588f53",
        "fast-ldl": "755dbe032e212d589b6c4274ee315ab4c8811be767fcabcf345f5535cd7602b4",
        "fast-lu": "ea3620926ffc9e8719ff820e1f373269b077a32c9016519e31f028faa660f0fa",
        "tri-solve": "9b5a85a9211cf0b619caadab79c2a6530fc3eeb1cbdfcb4b06deef430e75a967",
        "peel-dependent": "8268945c9f6a6212205415353c136de322aa62bdb3d87174138b3ab16f4c6e28",
        "saddle-trio": "d30d497a6e69c5feafa284572c313d5f4340d3e7dd5c25d9fcf8b98f9797e33f",
    },
}


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_kernel_golden(spec, cutoff):
    got, reached = kernel_digests(spec, cutoff)
    assert reached >= {"antidiag", "zero-break", "bordered", "two-peels", "a11-zero", "a11-nonzero"}
    assert got == KERNEL_GOLDEN[f"{spec} {cutoff}"]


# -- the symmetric elimination steps -------------------------------------------------
#
# `vertex_eliminate(a, i)` at every i and `edge_eliminate(a, i, j)` at every
# ordered pair (i = j included, which raises ValueError) of each `ldl_inputs`
# matrix: the result, or the error raised, with each call's op counts.


def typed(ctx, v):
    return ctx.fmt(v), type(v).__name__


def block_types(b):
    return [type(v).__name__ for v in (b.d, b.a12, b.a21) if v is not None]


def eliminations(ctx, reached):
    """(name, serialized calls) of the vertex and the edge steps; `reached`
    collects the errors raised and the kinds of pair eliminated."""
    counter = ctx.counter
    for name, step, arity in (("vertex", vertex_eliminate, 1), ("edge", edge_eliminate, 2)):
        out = []
        for a in ldl_inputs(ctx):
            n = a.nrows
            for args in ([(i,) for i in range(n)] if arity == 1 else
                         [(i, j) for i in range(n) for j in range(n)]):
                counter.reset()
                try:
                    res = step(a, *args)
                except (ZeroPivot, SingularPivot, ValueError) as exc:
                    reached.add(type(exc).__name__)
                    got = (type(exc).__name__, str(exc))
                else:
                    if arity == 1:
                        l, d, s = res
                        got = (mat(ctx, l), typed(ctx, d), mat(ctx, s))
                    else:
                        kinds = [b.kind for b in res.blocks]
                        assert kinds in ([ANTIDIAG], [SCALAR, SCALAR])
                        reached.add("antidiag-pair" if kinds == [ANTIDIAG] else "normalised-pair")
                        got = (res.pivots, mat(ctx, res.cols), [blk(ctx, b) for b in res.blocks],
                               [block_types(b) for b in res.blocks], mat(ctx, res.s))
                out.append((args, got, counter.snapshot()))
        yield name, out


# SHA-256 of each field's vertex and edge steps and their op counts.
ELIMINATION_GOLDEN = {
    "gf2": {
        "vertex": "cc0c7eff2cebc0846fcaa4b9cb4a59670b0b450d62154fc703d48db53cf8446a",
        "edge": "852f8f814f0bb49c94931bab00c267ee8a4d13732cb0dfa758d5eb308603e65f",
    },
    "gfp:7": {
        "vertex": "f2365b7441f3e60c370b1cc062fb63c808b81ba305b83356252eb171f9af078a",
        "edge": "1c835bc4dcddddcd62ee0df354268593cb8b58fad848c076e1471055aa00f16f",
    },
    "gfp:2147483647": {
        "vertex": "ec896c3dbcf4417ca962ceb8a6dcbddef05d1d2ad0b4816f0b4f3b59739ec239",
        "edge": "b2a0889e3c0e14c1bb6bd6056f01f9feaac86a3cbe1a56ac9fa1f03b42e942fc",
    },
    "rational": {
        "vertex": "4caf88267c54726350757c04acbef91c5e2033429ee2b9690ae7782224fd70aa",
        "edge": "4b3ecaca1bb5ade87557b39ac06a0504af63fb49a961d30c0daa5923f4672791",
    },
}


@pytest.mark.parametrize("spec", FIELDS)
def test_elimination_golden(spec):
    ctx = parse_field(spec)
    ctx.enable_counter()
    reached = set()
    try:
        got = {name: hashlib.sha256(repr(out).encode()).hexdigest()
               for name, out in eliminations(ctx, reached)}
    finally:
        ctx.disable_counter()
    assert reached == {"ZeroPivot", "SingularPivot", "ValueError", "normalised-pair",
                       "antidiag-pair"}
    assert got == ELIMINATION_GOLDEN[spec]


# -- the direct saddle partial LDL ---------------------------------------------------
#
# `gamma_eliminate_partial` on systems with a zero B, a zero A, a low-rank B,
# repeated B rows, n = 0, m = 0 and the fill family, on both sides of
# `_CROSSOVER`: the saddle matrix of n + m <= 16 indices has at most 256
# entries, so the GF(p) working copy is the residue lists below and the
# int64 array above.


def gamma_inputs(ctx):
    yield SaddleSystem(dense_sym(ctx, 5, 30), DenseMatrix.zeros(ctx, 3, 5))
    yield SaddleSystem(DenseMatrix.zeros(ctx, 5, 5), dense(ctx, 3, 5, 31))
    yield SaddleSystem(dense_sym(ctx, 7, 32), dependent_rows(ctx, 33))
    yield SaddleSystem(dense_sym(ctx, 6, 35), from_lists(ctx, dense(ctx, 3, 6, 34).to_lists() * 2))
    yield SaddleSystem(DenseMatrix.zeros(ctx, 0, 0), DenseMatrix.zeros(ctx, 3, 0))
    yield SaddleSystem(dense_sym(ctx, 4, 36), DenseMatrix.zeros(ctx, 0, 4))
    for n in (3, 6, 9):
        yield example_fill_family(ctx, None, n)
    yield from saddles(ctx)
    yield from small_saddles(ctx)
    yield SaddleSystem(dense_sym(ctx, 14, 37), dense(ctx, 6, 14, 38))
    a = dense_sym(ctx, 12, 39)
    for i in range(12):
        a.set(i, i, ctx.zero)
    yield SaddleSystem(a, dense(ctx, 8, 12, 40, band=2))
    yield SaddleSystem(dense_sym(ctx, 13, 41), from_lists(ctx, dense(ctx, 5, 13, 42).to_lists() * 2))
    yield SaddleSystem(DenseMatrix.zeros(ctx, 11, 11), dependent_rows(ctx, 43).block(0, 7, 0, 6).pad(7, 11))


def typed_mat(ctx, m):
    return [[typed(ctx, v) for v in row] for row in m.to_lists()]


def gamma_runs(ctx, reached):
    """(group, serialized calls) below and above the crossover; `reached`
    collects whether a pivot had a zero or a nonzero a11 = -D[k]."""
    counter = ctx.counter
    out = {"below": [], "above": []}
    for system in gamma_inputs(ctx):
        counter.reset()
        f = gamma_eliminate_partial(system)
        reached.update("a11-nonzero" if d else "a11-zero" for d in f.D)
        group = "below" if (system.n + system.m) ** 2 <= _CROSSOVER else "above"
        out[group].append((
            f.P.fwd, f.Q.fwd, typed_mat(ctx, f.Y), typed_mat(ctx, f.L), typed_mat(ctx, f.U),
            [typed(ctx, d) for d in f.D], f.r, counter.snapshot(),
        ))
    return out


# SHA-256 of each field's gamma results and op counts, recorded like GOLDEN.
GAMMA_GOLDEN = {
    "gf2": {
        "below": "69153692b87b04bb379de16986d9d071d930691b38a7b1d43104cd0cceb6f8d0",
        "above": "bdc163eeb6b8eb00bea5a82051cbef6eb5d68d0daca9aab7e81c56a7d38d82d1",
    },
    "gfp:7": {
        "below": "75d85d128196806ccfa6b95f4f9bb6e8a5a81b3de128e9a3be9797449b6ba379",
        "above": "a552b1967885c67871f6b19d097d781eb99be0b4e1ea87874f48f0beb64273f9",
    },
    "gfp:2147483647": {
        "below": "986ae4b9bcfd91f6e75f3fb54f518bf254a2a85a13c2e0bf000313ac9f78ef0c",
        "above": "a68cfc07ed48443623f71a02ea034184fbf0271b3a08c15c86d93fcf7033da45",
    },
    "rational": {
        "below": "1f0c05465cc80d827f572106b0b3a046f9cf40e90005db4a608c72e5aa2b8cab",
        "above": "651df1e4f60284fc1d29fd3bf44bc9403cc312800c28a1d9fcb83a0471687654",
    },
}


@pytest.mark.parametrize("spec", FIELDS)
def test_gamma_golden(spec):
    ctx = parse_field(spec)
    ctx.enable_counter()
    reached = set()
    try:
        got = {group: hashlib.sha256(repr(out).encode()).hexdigest()
               for group, out in gamma_runs(ctx, reached).items()}
    finally:
        ctx.disable_counter()
    assert reached == {"a11-zero", "a11-nonzero"}
    assert got == GAMMA_GOLDEN[spec]


# -- the dense kernels above the crossover -------------------------------------------
#
# At n = 40 and 64 the GF(2) and GF(p) kernels take their whole-array
# routes (BLAS products, array elimination, limb-split substitution at
# p = 2^31 - 1), which the inputs of at most 9 rows above never reach.

LARGE_FIELDS = ("gf2", "gfp:1009", "gfp:2147483647")
LARGE_CUTOFFS = (None, 8)


def triangle(ctx, n, shape, salt):
    lower = shape in (LOWER, LOWER_UNIT)
    return DenseMatrix.from_rows(ctx, [
        [ctx.el(2 * (i % 3) + 1) if i == j else
         value(ctx, i, j, salt) if (j < i) == lower else ctx.zero
         for j in range(n)]
        for i in range(n)
    ])


def run_large_kernels(ctx, cutoff):
    """(name, serialized result) of each group of calls at n = 40 and 64."""
    for n in (40, 64):
        yield f"fast-ldl-{n}", [ldl(ctx, fast_ldl(a, cutoff))
                                for a in (dense_sym(ctx, n, n), folded_sym(ctx, n, n // 5, 1))]
        mats = (dense(ctx, n, n, n), dense(ctx, n // 2, n + 8, 3), folded_sym(ctx, n, n // 4, 2))
        yield f"fast-lu-{n}", [lu(ctx, fast_lu(b, cutoff)) for b in mats]
        out = []
        for shape in (LOWER, LOWER_UNIT, UPPER, UPPER_UNIT):
            l = triangle(ctx, n, shape, n)
            out.append(mat(ctx, tri_solve(l, dense(ctx, n, n, 5), LEFT, shape, cutoff)))
            out.append(mat(ctx, tri_solve(l, dense(ctx, 9, n, 6), RIGHT, shape, cutoff)))
        yield f"tri-solve-{n}", out
        system = SaddleSystem(dense_sym(ctx, n, 7), dense(ctx, n // 4, n, 8))
        f = schilders_partial_ldl(system, cutoff)
        partial = (f.P.fwd, f.Q.fwd, mat(ctx, f.Y), mat(ctx, f.L), mat(ctx, f.U),
                   [ctx.fmt(d) for d in f.D], f.r)
        yield f"saddle-{n}", (partial, ldl(ctx, complete_saddle_ldl(system, f)))


# SHA-256 of each group's results and op counts, recorded like GOLDEN.
LARGE_KERNEL_GOLDEN = {
    "gf2 None": {
        "fast-ldl-40": "695f9897e7cfb14b3cc18fdfcb337bdad9cede2e106d353e707788f26df94579",
        "fast-lu-40": "50c250e6cf608c8d3dc98f4307af3df4c793b285613e8bd1135f90e8fba3d022",
        "tri-solve-40": "93be2fb9c95e0014fcb5aa9a6095b6145b63254ff47c96efe39cc9d07319f624",
        "saddle-40": "b58bb1ca994ddd9f393b5a12fceb2b574c236ddc557f4881b807e3d7c98ac83d",
        "fast-ldl-64": "82281b6bc4b3b6f67513f9231b80552a45162c464a4fbab6ef43c43062944b08",
        "fast-lu-64": "a61fa4557454cb62b2852b10207b3184db22bdf97b80de1da9b7962b938e11dc",
        "tri-solve-64": "be7741ef1a1b8cdcaa810bc75f6e983089f2b9cb88701c79ce29cf5cebadc233",
        "saddle-64": "ac3b5c36981cb4f0b4ae1f6228125e3c952ee9b03a0939b1af421fcc1e331134",
    },
    "gf2 8": {
        "fast-ldl-40": "7ddfb77780b5bb3bc98e75b852d7d6c15f2247e150e2828f3d68cefc4030a8ef",
        "fast-lu-40": "775ac900ae3ca8372d64f29af7f254c2042db0e0df88e34f20c4e5e702ea1ad9",
        "tri-solve-40": "c87cef497b449db2b1af56afc8576b8ea0df966a9367fed5d6eb0199ea62082c",
        "saddle-40": "b751c4cf05db34363b60386f989d9850841396bc1747b9bd02c6e902ad968a5f",
        "fast-ldl-64": "d771412f424c492899f2be703bfb08c3cb6af68bd1228c091a3da6b040572308",
        "fast-lu-64": "25f340450e774a438856ac8c323d7cbb74f657ebc37aeaa9c747582458a8393c",
        "tri-solve-64": "f28bfdd3849b5bde1b457db39a9ae1e409914d754f94efdc72faca22f7334da5",
        "saddle-64": "164d4f8a40e3c16c2454391eb1cc34c3d5003e94144c30e8e8ada0baea25768b",
    },
    "gfp:1009 None": {
        "fast-ldl-40": "f231ea48d1d137ff73bfd3a3fa468ca81e1f02bb830e2e4d9a0e54aa800c445c",
        "fast-lu-40": "6e3d2ca489f31c7caa3ffb7f18edfb28b5db33bfe3e8fecc47a5fd36368cfef7",
        "tri-solve-40": "fe76b3ca37242e3008c90ed4423fdfe3de54854fc607e423dc3e5b68f16ff8f2",
        "saddle-40": "b735485654db6d5af26edff4fc9d9c56d23574b164852b163f1431421ad9e69b",
        "fast-ldl-64": "a29fa97addfce32c1d6688a923ad161df1d2a2666c47627f4539278b545ccc54",
        "fast-lu-64": "2fa47bd9a2ece39beeca38d79e78d51dca27df2224913e6c3dfaaee5bb510023",
        "tri-solve-64": "3b8acfd5fce0994bd59f1941290ade8cb5b7c04a36f48b315e958007b369331d",
        "saddle-64": "a8e58bdf16db87de3dfe6391b4ecfeaf1b9170a3ecea5dc0df23b2430ec0d568",
    },
    "gfp:1009 8": {
        "fast-ldl-40": "c4982de306d06af539dc79785fbc7950d4c58092c7ac53bc4ffac3f78a285f08",
        "fast-lu-40": "e42876bcfb3e006474ddaabc46c74de1cc30da25de0663875495270b5f77a0c6",
        "tri-solve-40": "4f7169175f4576d3f16aa4b69470aead5f2a3e61994b31610ec67eca1399a0c4",
        "saddle-40": "1d50a89679b0de6b1f12f8e9934940dcd0dfdfc3b6b1106b05e034815ec78e52",
        "fast-ldl-64": "5863e39fefe8ac2e66bae03d3900e08fa6f2aa8dc1b411a037d0d6aff4885cf2",
        "fast-lu-64": "ceb6277f962e1022ff33fb7be4457021403a2587cc880091eb4d2d9f42b4b4ce",
        "tri-solve-64": "f6c66ad532e25e9957b04b158b639d69b0e5f3eec6cbbe6bc01ef35e90edfe80",
        "saddle-64": "f72fed0d6d160a75fe5868d91f3ca041e941b472e63bb844d70f2a8362267542",
    },
    "gfp:2147483647 None": {
        "fast-ldl-40": "72cb7971ab970a7d02004718e88c8d76a2b57bb789f4b97e32fdf89f9baf67a1",
        "fast-lu-40": "83a6e21793a24de62c1779abf41b21323086ef093b726c1cd6bb3c817201b8be",
        "tri-solve-40": "c9d993e43b612e1c2493ffd8343214aecf5ce0c2f0aa11f569bdbcd85f498566",
        "saddle-40": "1256eba8c6e180f99ebed00d6b99acc5e49cfcdffb724652f124ba0308878d1d",
        "fast-ldl-64": "ebc1dceb7c5f956dc9fc2a5ff1db5afcdc266580e19f88dc8d238f5f5d819c54",
        "fast-lu-64": "a9340f312c6fd6435977096090e8a6399527af11f8434c951cc2810a2d18c028",
        "tri-solve-64": "f8a4abb011817db331211a1bad160f1199f52744db6d78399a4d425eb67e5a64",
        "saddle-64": "cffef0c9a2e4bd58ae8d6c9419d5e1ab006cce872005786a1b377f712732fd19",
    },
    "gfp:2147483647 8": {
        "fast-ldl-40": "bf38caa25026c63de89b87e7c44c27fad7bacdc5f4b544744755f51225f17216",
        "fast-lu-40": "7970781516342e7e59c0ac73b82b8de622dbb5e346d3c75b92862f66ecf83e92",
        "tri-solve-40": "1c6e75956d82a347c275a0a9d6858c0c4024b9313df328245ac8c984cb847b22",
        "saddle-40": "083e9512ac0a4d6dd99a9bb07e5b0d265295a777fe7aa0fcfecfd066106ee679",
        "fast-ldl-64": "64657597dc3645a4f6a346fcbf4c03264a92a1e2bd058634ccb690a766e5305b",
        "fast-lu-64": "05db6adcd61fd65dec3642424286d68206838bb90adc75811693c1b35d97d0c3",
        "tri-solve-64": "93d0855103a5423d8cee79e8aa01279deb383f8a77a9aec109d71a1b66ce3c06",
        "saddle-64": "7acb0f87526679f0525ca96dd47a5ccf482de368d71063b9d43052d3bd8e364a",
    },
}


@pytest.mark.parametrize("spec", LARGE_FIELDS)
@pytest.mark.parametrize("cutoff", LARGE_CUTOFFS)
def test_large_kernel_golden(spec, cutoff, monkeypatch):
    ctx = parse_field(spec)
    cls = type(DenseMatrix.zeros(ctx, 0, 0))
    product, eliminate = cls._mm_classical, factor._lu_rows
    largest = {"product": 0, "elimination": 0}  # nonzeros of a left factor, entries of an input

    def sized_product(a, b):
        nonzeros = sum(1 for row in a.to_lists() for v in row if v)
        largest["product"] = max(largest["product"], nonzeros)
        return product(a, b)

    def sized_elimination(s, m, n, pad=0):
        largest["elimination"] = max(largest["elimination"], m * n)
        return eliminate(s, m, n, pad)

    monkeypatch.setattr(cls, "_mm_classical", sized_product)
    monkeypatch.setattr(factor, "_lu_rows", sized_elimination)
    counter = ctx.enable_counter()
    got = {}
    try:
        for name, result in run_large_kernels(ctx, cutoff):
            got[name] = hashlib.sha256(repr((result, counter.snapshot())).encode()).hexdigest()
            counter.reset()
    finally:
        ctx.disable_counter()
    assert largest["elimination"] > _CROSSOVER, largest
    if cutoff is None:  # Strassen leaves at cutoff 8 keep GF(2) products below it
        assert largest["product"] > _CROSSOVER, largest
    assert got == LARGE_KERNEL_GOLDEN[f"{spec} {cutoff}"]


# -- fast_ldl on either side of its flat base ----------------------------------------
#
# n = 0..20 at five cutoffs: blocks of at most `_TRI_BASE` rows are
# factored by the flat replay when the cutoff lets every product below
# them be classical, and by the matrix recursion otherwise.

SWEEP_FIELDS = ("gf2", "gfp:7", "gfp:1009", "gfp:2147483647", "rational")
SWEEP_CUTOFFS = (None, 1, 2, 4, 8)


def sweep_el(ctx, rng):
    if ctx.is_ordered():
        return ctx.el(f"{rng.randint(-4, 4)}/{rng.randint(1, 4)}")
    return ctx.el(rng.randrange(ctx.p or 2))


def sweep_sym(ctx, rng, n, density, diagonal=True):
    rows = [[ctx.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else i + 1, n):
            if rng.random() < density:
                v = sweep_el(ctx, rng)
                rows[i][j], rows[j][i] = v, ctx.conj(v)
    return DenseMatrix.from_entries(ctx, rows, n)


def sweep_inputs(ctx):
    """Per n = 0..20: a random symmetric matrix, one of planted rank
    about n/4 (G S G^H), one 10-30% dense and one with a zero diagonal."""
    rng = random.Random(zlib.crc32(ctx.spec.encode()))
    for n in range(21):
        yield sweep_sym(ctx, rng, n, 1.0)
        k = max(1, n // 4)
        g = DenseMatrix.from_entries(ctx, [[sweep_el(ctx, rng) for _ in range(k)]
                                           for _ in range(n)], k)
        yield matmul(matmul(g, sweep_sym(ctx, rng, k, 1.0)), g.conj_transpose())
        yield sweep_sym(ctx, rng, n, 0.1 + 0.1 * (n % 3))
        yield sweep_sym(ctx, rng, n, 0.5, diagonal=False)


def sweep_digest(spec, cutoff):
    """(SHA-256 of every fast_ldl result and its op counts, the results)."""
    ctx = parse_field(spec)
    counter = ctx.enable_counter()
    out = []
    try:
        for a in sweep_inputs(ctx):
            counter.reset()
            res = fast_ldl(a, cutoff)
            out.append((ldl(ctx, res), counter.snapshot()))
    finally:
        ctx.disable_counter()
    return hashlib.sha256(repr(out).encode()).hexdigest(), out


# SHA-256 of the sweep's results and op counts, keyed by "field cutoff", recorded
# with the matrix recursion down to n <= 3 (before the flat base).
SWEEP_GOLDEN = {
    "gf2 None": "cf7965b5e627ade1bf43d5d12fdb2cbddbc7bcb1f82e1087be8a1eb5f72c687e",
    "gf2 1": "cb0c897295b968ba9b5dca00306dd6886ec0418f4d3cb8e3b55626d5e5da7668",
    "gf2 2": "238caddc0ba8a9fb1bc8f9b5454bc2f1c130ac6397d43686546d4da23f3b92ae",
    "gf2 4": "ddb14ee9f745214517f90adc9ad84b4efa56758a7df7faeeb77b0c5c56bbe217",
    "gf2 8": "65aea980244af799f82683dfe65deb3cd7c9be341575470a7c71ca8f97e45e35",
    "gfp:7 None": "d1e78c267cef0519a10526d7abc243f7c0c78ecf7ae74ba7157682b0d8dc6f45",
    "gfp:7 1": "a76319df2940efa275c14c91dc462acf639fc33a6a1ad893466064c45d86d485",
    "gfp:7 2": "1274c68eedd14ed0978c9ce5f3428100dc07bfe1f2dd3cd853c41dc82e1c9060",
    "gfp:7 4": "17814fdf65c183f51a2387aa45c5420be536deaf81e7614fb44895ad730b532d",
    "gfp:7 8": "d1e78c267cef0519a10526d7abc243f7c0c78ecf7ae74ba7157682b0d8dc6f45",
    "gfp:1009 None": "ebdde1d52f7a027eaf00732ef0bf1c8a2961ed69eee9c9dce5f1c2aeca4d2cee",
    "gfp:1009 1": "2bccc83b8d602f232847136630e7e3d9f1019ce1d19066472d7aa3564891072d",
    "gfp:1009 2": "ecae90d70be45d15078dcb1be86b1dffe61f60b446fa5a834947315bbbc465ab",
    "gfp:1009 4": "9be402df5a19166ca094f64bd4c16f526d6c87db74fffe3fdf8ebdeca24a7b05",
    "gfp:1009 8": "ebdde1d52f7a027eaf00732ef0bf1c8a2961ed69eee9c9dce5f1c2aeca4d2cee",
    "gfp:2147483647 None": "35b40a5af07c4376a8df7b1d96729afa2f39ecf43e79c26a7509168b09848f0e",
    "gfp:2147483647 1": "743da4004e2211fca888a7f05db1b93b4952938f8d208b59ee30c7272d571a08",
    "gfp:2147483647 2": "eeec2d03ae1d8736d280d44fe3c6a9478da6fbcd8c72b0105bcda29f6aedbb3a",
    "gfp:2147483647 4": "53db27b9e6ea1d6d6719c96a47f5dfc079f13d320783c18c1d50ff262626e7d2",
    "gfp:2147483647 8": "35b40a5af07c4376a8df7b1d96729afa2f39ecf43e79c26a7509168b09848f0e",
    "rational None": "ef7f9ddf7c7e79c8b670ea9f4c1faab16234e01163fa65e313fa7d5f56701229",
    "rational 1": "3493bb60865ace6ad57713b8260971e0c25af2e8a5678c682c6b8812fb666b1c",
    "rational 2": "a3b6107fc4544725e270b49cb23da03878f594e9812a8d47a26249c0ecea9219",
    "rational 4": "58243145e337c7b18fc349921672c88f06e9c9fcb7df5e87b0d549b4de9a35f2",
    "rational 8": "ef7f9ddf7c7e79c8b670ea9f4c1faab16234e01163fa65e313fa7d5f56701229",
}


@pytest.mark.parametrize("spec", SWEEP_FIELDS)
@pytest.mark.parametrize("cutoff", SWEEP_CUTOFFS)
def test_fast_ldl_sweep_golden(spec, cutoff, monkeypatch):
    flat, lu_rows = factor._ldl_flat, factor._lu_rows
    flat_sizes, bordered, inside = set(), set(), []

    def traced_flat(a):
        flat_sizes.add(a.nrows)
        inside.append(a)
        try:
            return flat(a)
        finally:
            inside.pop()

    def traced_lu_rows(s, m, n, pad=0):  # fast_ldl's bordered branch, the only LU in the sweep
        bordered.add("flat" if inside else "matrix")
        return lu_rows(s, m, n, pad)

    monkeypatch.setattr(factor, "_ldl_flat", traced_flat)
    monkeypatch.setattr(factor, "_lu_rows", traced_lu_rows)
    got, results = sweep_digest(spec, cutoff)
    # Blocks of at most _TRI_BASE rows and 2 cutoff + 1 take the flat base,
    # larger ones (n = 17..20 always) the matrix recursion.
    assert max(flat_sizes) == min(_TRI_BASE, 2 * (cutoff or parse_field(spec).default_cutoff) + 1)
    assert bordered == ({"matrix"} if cutoff == 1 else {"flat", "matrix"})
    assert any(b[0] == ANTIDIAG for (_, _, blocks, _), _ in results for b in blocks)
    assert any(0 < r < len(p) for (p, _, _, r), _ in results)  # a zero Schur complement
    assert got == SWEEP_GOLDEN[f"{spec} {cutoff}"]


@pytest.mark.parametrize("spec", SWEEP_FIELDS)
def test_flat_base_matches_the_matrix_recursion(spec, monkeypatch):
    # Cutoff 1 keeps the flat base to the leaves; so does a base of 3 rows,
    # which also keeps every product classical, so the op counts match too.
    _, flat = sweep_digest(spec, None)
    _, leaves = sweep_digest(spec, 1)
    assert [res for res, _ in flat] == [res for res, _ in leaves]
    monkeypatch.setattr(factor, "_TRI_BASE", 3)
    _, matrix = sweep_digest(spec, None)
    assert flat == matrix
