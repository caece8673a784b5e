import argparse
import json
import random
from dataclasses import replace

import pytest

from exldl.cli import (
    MODES,
    main,
    mm_to_dense,
    mm_to_sparse_sym,
    parse_field,
    read_matrix_market,
    reverify_json,
    write_matrix_market,
)
from exldl import cli, oracle
from exldl.dense import DenseMatrix
from exldl.fields import EntryOutOfField, ParseError
from exldl.sparse import Peel, SparseSym, sparse_ldl, transcript_ldl

from conftest import GF7, QQ, rand_matrix, rand_symmetric


def write_mm(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_parse_field():
    assert parse_field("gf2").kind == "gf2"
    assert parse_field("gfp:7").p == 7
    assert parse_field("rational").kind == "rational"
    with pytest.raises(ParseError):
        parse_field("gf3")


def test_read_pattern_symmetric(tmp_path):
    p = tmp_path / "a.mtx"
    write_mm(p, ["%%MatrixMarket matrix coordinate pattern symmetric", "2 2 1", "2 1"])
    a = mm_to_dense(p, parse_field("gf2"))
    assert a.to_lists() == [[0, 1], [1, 0]]


def test_read_integer_reduces(tmp_path):
    p = tmp_path / "a.mtx"
    write_mm(p, ["%%MatrixMarket matrix coordinate integer general", "1 1 1", "1 1 9"])
    a = mm_to_dense(p, parse_field("gfp:7"))
    assert a.get(0, 0) == 2


def test_read_rational_guard(tmp_path):
    p = tmp_path / "a.mtx"
    write_mm(p, ["%%MatrixMarket matrix coordinate rational general", "1 1 1", "1 1 2/3"])
    with pytest.raises(EntryOutOfField):
        mm_to_dense(p, parse_field("gf2"))
    a = mm_to_dense(p, parse_field("rational"))
    assert a.get(0, 0) == QQ.el("2/3")


def test_read_errors(tmp_path):
    p = tmp_path / "a.mtx"
    write_mm(p, ["%%MatrixMarket matrix coordinate real general", "1 1 1", "1 1 0.5"])
    with pytest.raises(ParseError):
        read_matrix_market(p, parse_field("rational"))
    write_mm(p, ["%%MatrixMarket matrix coordinate integer general", "1 1 2", "1 1 3"])
    with pytest.raises(ParseError):
        read_matrix_market(p, parse_field("gfp:7"))


def test_roundtrip_write_read(tmp_path, rng):
    for ctx in (GF7, QQ):
        m = rand_matrix(ctx, rng, 4, 6)
        p = tmp_path / "m.mtx"
        write_matrix_market(p, m)
        back = mm_to_dense(p, ctx)
        assert back == m
    s = rand_symmetric(GF7, rng, 5)
    p = tmp_path / "s.mtx"
    write_matrix_market(p, s, symmetric=True)
    assert mm_to_dense(p, GF7) == s
    sp = mm_to_sparse_sym(p, GF7)
    assert sp.densify() == s


def star_mtx(tmp_path, n=8):
    p = tmp_path / "star.mtx"
    lines = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{n} {n} {n-1}"]
    for i in range(2, n + 1):
        lines.append(f"{i} 1")
    write_mm(p, lines)
    return p


def test_cmd_dense_ldl_star(tmp_path, capsys):
    p = star_mtx(tmp_path)
    out = tmp_path / "out.json"
    code = main(
        [
            "--field", "gf2", "--mode", "dense-ldl", "--matrix", str(p),
            "--verify", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["rank"] == 2
    assert payload["report"]["verify"]["ok"] is True


@pytest.mark.parametrize("cutoff", ["0", "-3", "x"])
def test_cmd_rejects_strassen_cutoff_below_one(tmp_path, capsys, cutoff):
    p = star_mtx(tmp_path)
    out = tmp_path / "out.json"
    argv = ["--field", "gf2", "--mode", "dense-ldl", "--matrix", str(p), "--out", str(out)]
    code = main(argv + ["--strassen-cutoff", cutoff])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: exldl")
    assert "argument --strassen-cutoff: expected an int of at least 1" in err
    assert not out.exists()
    assert main(argv + ["--strassen-cutoff", "1"]) == 0


def test_cmd_sparse_requires_td(tmp_path, capsys):
    p = star_mtx(tmp_path)
    code = main(["--field", "gf2", "--mode", "sparse-ldl", "--matrix", str(p)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cmd_corrupt_header(tmp_path, capsys):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket garbage\n")
    code = main(["--field", "gf2", "--mode", "dense-ldl", "--matrix", str(p)])
    assert code == 1


def test_cmd_sparse_ldl_greedy(tmp_path):
    p = star_mtx(tmp_path)
    out = tmp_path / "out.json"
    code = main(
        [
            "--field", "gf2", "--mode", "sparse-ldl", "--matrix", str(p),
            "--greedy-td", "--verify", "--stats", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["rank"] == 2
    assert payload["report"]["peel_count"] == 6
    assert payload["report"]["verify"]["ok"] is True
    assert "op_counts" in payload["report"]


def test_cmd_sparse_lu(tmp_path):
    p = tmp_path / "b.mtx"
    write_mm(
        p,
        [
            "%%MatrixMarket matrix coordinate integer general",
            "3 4 6",
            "1 1 1", "1 2 2", "2 2 3", "2 3 1", "3 3 5", "3 4 2",
        ],
    )
    out = tmp_path / "out.json"
    code = main(
        [
            "--field", "gfp:7", "--mode", "sparse-lu", "--matrix", str(p),
            "--greedy-td", "--verify", "--out", str(out),
        ]
    )
    assert code == 0
    assert reverify_json(out)


def test_cmd_saddle_split(tmp_path):
    rng = random.Random(3)
    a = rand_symmetric(GF7, rng, 3)
    b = rand_matrix(GF7, rng, 2, 3)
    comb = DenseMatrix.zeros(GF7, 5, 3)
    comb.set_block(0, 0, a)
    comb.set_block(3, 0, b)
    p = tmp_path / "m.mtx"
    write_matrix_market(p, comb)
    out = tmp_path / "out.json"
    code = main(
        [
            "--field", "gfp:7", "--mode", "saddle", "--matrix", str(p),
            "--saddle-split", "3", "--verify", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["verify"]["ok"] is True
    assert reverify_json(out)


def test_byte_identical_reruns(tmp_path):
    p = star_mtx(tmp_path)
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    argv = [
        "--field", "gf2", "--mode", "sparse-ldl", "--matrix", str(p),
        "--greedy-td", "--verify", "--stats", "--seed", "42",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reverify_all_dense_modes(tmp_path):
    rng = random.Random(9)
    s = rand_symmetric(QQ, rng, 6)
    p = tmp_path / "a.mtx"
    write_matrix_market(p, s, symmetric=True)
    out = tmp_path / "out.json"
    code = main(
        [
            "--field", "rational", "--mode", "dense-ldl", "--matrix", str(p),
            "--verify", "--out", str(out),
        ]
    )
    assert code == 0
    assert reverify_json(out)
    payload = json.loads(out.read_text())
    assert "inertia" in payload["report"]
    g = rand_matrix(GF7, rng, 5, 7)
    p2 = tmp_path / "g.mtx"
    write_matrix_market(p2, g)
    out2 = tmp_path / "lu.json"
    code = main(
        [
            "--field", "gfp:7", "--mode", "dense-lu", "--matrix", str(p2),
            "--verify", "--out", str(out2),
        ]
    )
    assert code == 0
    assert reverify_json(out2)


@pytest.mark.parametrize("spec", ["gf2", "gfp:3", "gfp:7", "gfp:1009", "rational"])
def test_sparse_ldl_checks_neither_densify_nor_rank(tmp_path, monkeypatch, spec):
    """sparse-ldl --verify and reverify_json check the explicit factors on
    the stored entries: a 3 x 3 grid with a twin of vertex 0 (both
    diagonals zero, so the rank is below n).  --verify checks an implicit
    result, a 30-vertex star with 28 peels, as the LDL its transcript
    states, and fails with code 2 once a peel coefficient is changed;
    reverify_json checks the star's file the same way, and rejects it once
    a peel coefficient in the file is changed."""
    ctx = parse_field(spec)
    rng = random.Random(11)
    a = DenseMatrix.zeros(ctx, 10, 10)
    edges = [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)]
    for i, j in edges + [(i, i) for i in range(1, 9)]:
        x = ctx.one if spec == "gf2" else ctx.el(rng.randint(1, 2))
        a.set(i, j, x)
        a.set(j, i, x)
    for u in (1, 3):
        a.set(u, 9, a.get(u, 0))
        a.set(9, u, a.get(0, u))
    write_matrix_market(tmp_path / "a.mtx", a, symmetric=True)
    out = tmp_path / "out.json"

    def banned(*args):
        raise AssertionError("the sparse-ldl check built a dense matrix or ran a rank elimination")

    monkeypatch.setattr(SparseSym, "densify", banned)
    monkeypatch.setattr(oracle, "oracle_rank", banned)
    argv = ["--field", spec, "--mode", "sparse-ldl", "--matrix", str(tmp_path / "a.mtx"),
            "--greedy-td", "--verify", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["verify"] == {"ok": True}
    assert payload["report"]["rank"] < 10 and payload["factors"]["L"]
    assert reverify_json(out)

    star = DenseMatrix.zeros(ctx, 30, 30)
    for v in range(1, 30):
        x = ctx.one if spec == "gf2" else ctx.el(rng.randint(1, 2))
        star.set(0, v, x)
        star.set(v, 0, x)
    write_matrix_market(tmp_path / "star.mtx", star, symmetric=True)
    argv = ["--field", spec, "--mode", "sparse-ldl", "--matrix", str(tmp_path / "star.mtx"),
            "--greedy-td", "--verify", "--out", str(out)]
    with pytest.warns(UserWarning, match="returning the implicit transcript only"):
        assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["verify"] == {"ok": True}
    assert payload["report"]["peel_count"] == 28 and "L" not in payload["factors"]
    # reverify_json checks the LDL that the file's transcript states
    assert reverify_json(out)

    def bump_coeff(payload):
        peel = next(tf for tf in payload["factors"]["transcript"] if tf["kind"] == "peel")
        peel["coeffs"][0][1] = ctx.fmt(ctx.add(ctx.el(peel["coeffs"][0][1]), ctx.one))

    def peel_a_pivot(payload):  # malformed: rejected rather than raising
        transforms = payload["factors"]["transcript"]
        edge = next(tf for tf in transforms if tf["kind"] == "edge_elim")
        next(tf for tf in transforms if tf["kind"] == "peel")["target"] = edge["pivots"][0]

    def another_rank(payload):
        payload["report"]["rank"] += 1

    def another_d(payload):
        payload["factors"]["D"].pop()

    bad = tmp_path / "bad.json"
    for tamper in (bump_coeff, peel_a_pivot, another_rank, another_d):
        payload = json.loads(out.read_text())
        tamper(payload)
        bad.write_text(json.dumps(payload))
        assert reverify_json(bad) is False, tamper.__name__

    def bumped(*args, **kwargs):
        outcome = sparse_ldl(*args, **kwargs)
        t = outcome.transcript
        k, tf = next((k, tf) for k, tf in enumerate(t.transforms) if isinstance(tf, Peel))
        (idx, val), *rest = tf.coeffs
        t.transforms[k] = Peel(tf.target, ((idx, ctx.add(val, ctx.one)), *rest))
        return outcome

    monkeypatch.setattr(cli, "sparse_ldl", bumped)
    with pytest.warns(UserWarning):
        assert main(argv) == 2
    verify = json.loads(out.read_text())["report"]["verify"]
    assert not verify["ok"] and verify["first_violation"].startswith("reconstruction mismatch")


def twinned(ctx, rng, n, twins):
    """A random symmetric band (bandwidth 2) on n vertices, then `twins`
    vertices, each a nonzero multiple c of a distinct band vertex u: row t
    is c times row u, so each plants one unit of corank."""
    def nonzero():
        return ctx.one if ctx.kind == "gf2" else ctx.el(rng.choice([-3, -2, -1, 1, 2, 3]))

    rows = [{} for _ in range(n + twins)]
    for i in range(n):
        for j in range(i, min(n, i + 3)):
            if rng.random() < 0.7:
                rows[i][j] = rows[j][i] = nonzero()
    for t, u in zip(range(n, n + twins), rng.sample(range(n), twins)):
        c = nonzero()
        for w, x in list(rows[u].items()):
            rows[t][w] = rows[w][t] = ctx.mul(c, x)
            if w == u:
                rows[t][t] = ctx.mul(c, ctx.mul(c, x))
    return SparseSym.from_entries(ctx, n + twins, [
        (i, j, v) for i, row in enumerate(rows) for j, v in row.items() if i <= j])


def bump_peel(t):
    """Add one to a peel coefficient; False when no peel has one."""
    at = [k for k, tf in enumerate(t.transforms) if isinstance(tf, Peel) and tf.coeffs]
    if not at:
        return False
    tf = t.transforms[at[0]]
    (idx, val), *rest = tf.coeffs
    t.transforms[at[0]] = Peel(tf.target, ((idx, t.ctx.add(val, t.ctx.one)), *rest))
    return True


def bump_elimination(t):
    """Add one to an entry of an elimination's column, keeping its pivots
    and D block; False when no column has one."""
    for k, tf in enumerate(t.transforms):
        field = next((f for f in ("col", "col1", "col2") if getattr(tf, f, None)), None)
        if field:
            (idx, val), *rest = getattr(tf, field)
            t.transforms[k] = replace(tf, **{field: ((idx, t.ctx.add(val, t.ctx.one)), *rest)})
            return True
    return False


@pytest.mark.parametrize("spec", ["gf2", "gfp:7", "rational"])
def test_implicit_sparse_ldl_check_matches_the_relabelled_route(spec, monkeypatch):
    """The CLI's implicit sparse-ldl check reads A in its own labels.  It
    gives the report (ok, first violation and count) of the route it
    replaced, which checks A relabelled to the post-order against the
    transcript's LDL over positions, on transcripts with peels as the tree
    engine gives them and with one changed peel coefficient or elimination
    entry."""
    ctx = parse_field(spec)
    rng = random.Random(27)
    check = cli._MODES["sparse-ldl"][3]
    args = argparse.Namespace(td=None, greedy_td=True, strassen_cutoff=None)
    tampered = []
    for n, twins in ((12, 2), (30, 5), (45, 9), (60, 12)):
        a = twinned(ctx, rng, n, twins)
        for tamper in (None, bump_peel, bump_elimination):
            outcome = []

            def implicit(*fargs, **kwargs):
                out = sparse_ldl(*fargs, **{**kwargs, "explicit": False})
                outcome.append(tamper is None or tamper(out.transcript))
                outcome.append(out)
                return out

            monkeypatch.setattr(cli, "sparse_ldl", implicit)
            verify = cli._sparse_ldl(a, args, ctx, check)[3]
            changed, out = outcome
            assert out.explicit is None and out.peel_count >= twins
            if not changed:
                continue
            got = verify()
            want = oracle.oracle_verify_ldl(a.relabel(out.order), transcript_ldl(out.transcript))
            assert got == want
            assert got.ok == (tamper is None), (n, tamper and tamper.__name__)
            if tamper:
                tampered.append(tamper)
                assert got.first_violation.startswith("reconstruction mismatch")
                assert got.reconstruction_error_count > 0
    assert set(tampered) == {bump_peel, bump_elimination}


def test_reverify_rejects_an_implicit_sparse_lu_file(tmp_path):
    """A sparse-lu file without explicit factors is not re-checked: one row
    of 30 ones has corank 29, above the recovery threshold."""
    b = DenseMatrix.from_rows(GF7, [[1] * 30])
    write_matrix_market(tmp_path / "b.mtx", b)
    out = tmp_path / "out.json"
    with pytest.warns(UserWarning, match="returning the implicit transcript only"):
        assert main(["--field", "gfp:7", "--mode", "sparse-lu", "--matrix", str(tmp_path / "b.mtx"),
                     "--greedy-td", "--out", str(out)]) == 0
    assert "L" not in json.loads(out.read_text())["factors"]
    assert reverify_json(out) is False


@pytest.mark.parametrize("spec", ["gf2", "gfp:3", "gfp:7", "gfp:1009", "rational"])
def test_reverify_rejects_a_sparse_ldl_rank_above_n(tmp_path, spec):
    """A full-rank sparse-ldl file given one more rank, a zero column of L
    and one more scalar D block still reconstructs A, and is rejected."""
    ctx = parse_field(spec)
    a = DenseMatrix.zeros(ctx, 4, 4)
    for i in range(4):
        a.set(i, i, ctx.one)
    for i in range(3):
        a.set(i, i + 1, ctx.one)
        a.set(i + 1, i, ctx.one)
    write_matrix_market(tmp_path / "a.mtx", a, symmetric=True)
    out = tmp_path / "out.json"
    assert main(["--field", spec, "--mode", "sparse-ldl", "--matrix", str(tmp_path / "a.mtx"),
                 "--greedy-td", "--verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["rank"] == 4 and reverify_json(out)
    payload["report"]["rank"] = 5
    payload["factors"]["D"].append({"kind": "scalar", "d": "1"})
    out.write_text(json.dumps(payload))
    assert reverify_json(out) is False


def test_fmt_el():
    assert QQ.fmt(QQ.el("2/4")) == "1/2"
    assert QQ.fmt(QQ.el(3)) == "3"
    assert GF7.fmt(5) == "5"


@pytest.mark.parametrize(
    "field, header, body",
    [
        ("gfp:4", "integer general", ["1 1 1", "1 1 1"]),
        ("gfp:3000000019", "integer general", ["1 1 1", "1 1 1"]),
        ("rational", "rational general", ["1 1 1", "1 1 1/0"]),
        ("gfp:7", "integer symmetric", ["2 3 1", "1 3 1"]),
        ("gfp:7", "integer general", ["-1 -1 0"]),
        ("gf2", "integer general", ["-1 -1 0"]),
        ("gfp:7", "integer general", ["2 2 2", "1 1 1", "1 1 4"]),  # a repeated coordinate
        ("gfp:7", "integer symmetric", ["2 2 2", "2 1 3", "1 2 5"]),  # (2, 1) is (1, 2)
    ],
)
def test_cmd_malformed_input_is_an_input_error(tmp_path, capsys, field, header, body):
    p = tmp_path / "m.mtx"
    write_mm(p, [f"%%MatrixMarket matrix coordinate {header}"] + body)
    out = tmp_path / "out.json"
    code = main(["--field", field, "--mode", "dense-lu", "--matrix", str(p), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "body",
    [
        ["3 3 4", "1 1 2", "2 2 3", "3 3 1", "1 2 5"],  # (1, 2) without (2, 1)
        ["3 3 4", "1 1 2", "2 2 3", "3 3 1", "2 1 5"],  # (2, 1) without (1, 2)
        ["3 3 5", "1 1 2", "2 2 3", "3 3 1", "2 1 4", "1 2 5"],
    ],
)
def test_sparse_ldl_rejects_an_asymmetric_general_file(tmp_path, capsys, body):
    p = tmp_path / "m.mtx"
    write_mm(p, ["%%MatrixMarket matrix coordinate integer general"] + body)
    out = tmp_path / "out.json"
    argv = ["--field", "gfp:7", "--mode", "sparse-ldl", "--matrix", str(p), "--greedy-td", "--verify"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "not symmetric" in err
    assert not out.exists()


PATH6 = [f"{i + 1} {i} 1" for i in range(1, 6)]  # the path 1-2-3-4-5-6
BAND34 = ["1 1 1", "1 2 2", "2 2 3", "2 3 1", "3 3 5", "3 4 2"]


@pytest.mark.parametrize(
    "mode, header, body, td",
    [
        # edge (3, 4) is in no bag
        ("sparse-ldl", "symmetric", PATH6,
         ["s td 4 2 6", "b 1 1 2", "b 2 2 3", "b 3 4 5", "b 4 5 6", "1 2", "2 3", "3 4"]),
        # the bags holding vertex 3 (1 and 4) are not connected
        ("sparse-ldl", "symmetric", PATH6,
         ["s td 4 3 6", "b 1 3 4 6", "b 2 4 5 6", "b 3 1 2", "b 4 2 3", "1 2", "2 3", "3 4"]),
        ("sparse-ldl", "symmetric", PATH6, ["s td 0 0 6"]),
        # embedding edges (1, 5) and (2, 5) of B[1][1] and B[1][2] are in no bag
        ("sparse-lu", "general", BAND34,
         ["s td 3 4 7", "b 1 1 2", "b 2 2 3 6", "b 3 3 4 5 7", "1 2", "2 3"]),
    ],
)
def test_cmd_rejects_td_that_does_not_decompose(tmp_path, capsys, mode, header, body, td):
    p = tmp_path / "m.mtx"
    size = "6 6 5" if mode == "sparse-ldl" else "3 4 6"
    write_mm(p, [f"%%MatrixMarket matrix coordinate integer {header}", size] + body)
    t = tmp_path / "m.td"
    t.write_text("\n".join(td) + "\n")
    out = tmp_path / "out.json"
    argv = ["--field", "gfp:7", "--mode", mode, "--matrix", str(p), "--td", str(t)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
def test_reverify_rejects_tampered_factors(tmp_path, mode):
    """Wrong factors fail the check and malformed ones are rejected while
    reading: a repeated P entry, an L entry outside L (row or column 999,
    or a negative row that would wrap onto a real entry), a zero D block,
    and for LU a repeated Q entry; a P entry that is not an int, a D block
    of unknown kind (for LU a Q entry that is not an int), a missing D or
    U, a missing rank, and a rank of 99 (for LU, on a full-rank square
    input, whose factors pass every other check up to U's last row)."""
    symmetric = mode in ("dense-ldl", "sparse-ldl", "saddle")
    p_key = "P_full" if mode == "saddle" else "P"

    def bump_l(ctx, factors):
        entry = factors["L"][-1]
        entry[2] = ctx.fmt(ctx.add(ctx.el(entry[2]), ctx.one))

    def swap_p(ctx, factors):
        p = factors[p_key]
        p[0], p[-1] = p[-1], p[0]

    def repeat_p(ctx, factors):
        factors[p_key][-1] = factors[p_key][0]

    def l_row_999(ctx, factors):
        factors["L"][-1][0] = 999

    def l_col_999(ctx, factors):
        factors["L"].append([0, 999, "1"])

    def l_row_negative(ctx, factors):
        factors["L"][-1][0] -= len(factors[p_key])

    def zero_d_or_repeat_q(ctx, factors):
        if "D" in factors:
            blk = factors["D"][0]
            blk["d" if blk["kind"] == "scalar" else "a12"] = "0"
        else:
            factors["Q"][-1] = factors["Q"][0]

    def p_not_int(ctx, factors):
        factors[p_key][0] = float(factors[p_key][0])

    def unknown_d_kind_or_q_not_int(ctx, factors):
        if "D" in factors:
            # antidiagonal blocks keep a12 and a21, so only their kind is wrong
            for blk in [b for b in factors["D"] if b["kind"] == "antidiag"] or factors["D"][:1]:
                blk["kind"] = "diagonal"
        else:
            factors["Q"][0] = str(factors["Q"][0])

    def drop_d_or_u(ctx, factors):
        del factors["D" if "D" in factors else "U"]

    tampers = (bump_l, swap_p, repeat_p, l_row_999, l_col_999, l_row_negative, zero_d_or_repeat_q,
               p_not_int, unknown_d_kind_or_q_not_int, drop_d_or_u)
    for spec in ("gfp:7", "gf2", "rational"):
        ctx = parse_field(spec)
        rng = random.Random(5)
        a = rand_symmetric(ctx, rng, 6) if symmetric else rand_matrix(ctx, rng, 5, 7)
        write_matrix_market(tmp_path / "a.mtx", a, symmetric=symmetric)
        argv = ["--field", spec, "--mode", mode, "--matrix", str(tmp_path / "a.mtx")]
        if mode == "saddle":
            write_matrix_market(tmp_path / "b.mtx", rand_matrix(ctx, rng, 3, 6))
            argv += ["--matrix-b", str(tmp_path / "b.mtx")]
        if mode.startswith("sparse"):
            argv.append("--greedy-td")
        out = tmp_path / "out.json"
        assert main(argv + ["--verify", "--out", str(out)]) == 0
        assert reverify_json(out)
        for tamper in tampers:
            payload = json.loads(out.read_text())
            tamper(ctx, payload["factors"])
            bad = tmp_path / f"{tamper.__name__}.json"
            bad.write_text(json.dumps(payload))
            assert not reverify_json(bad), (spec, tamper.__name__)
        payload = json.loads(out.read_text())
        del payload["report"]["rank"]
        bad.write_text(json.dumps(payload))
        assert not reverify_json(bad), (spec, "no rank")
        if not symmetric:
            write_matrix_market(tmp_path / "a.mtx", DenseMatrix.identity(ctx, 3))
            assert main(argv + ["--verify", "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
        payload["report"]["rank"] = 99
        bad.write_text(json.dumps(payload))
        assert not reverify_json(bad), (spec, "rank 99")


HEAD = "%%MatrixMarket matrix coordinate integer"
SYM_A = ["3 3 3", "1 1 1", "2 1 2", "3 3 1"]


@pytest.mark.parametrize(
    "mode, lines, extra, message",
    [
        ("dense-lu", [], [], "empty file"),
        ("dense-lu", [f"{HEAD} hermitian", "1 1 1", "1 1 1"], [], "line 1: unsupported symmetry 'hermitian'"),
        ("dense-lu", [f"{HEAD} general", "2 2"], [], "line 2: expected 'rows cols nnz'"),
        ("dense-lu", [f"{HEAD} general", "2 2 1", "1 1"], [], "line 3: expected 3 tokens"),
        ("dense-lu", [f"{HEAD} general", "2 2 1", "1 x 1"], [], "line 3: bad indices"),
        ("dense-lu", [f"{HEAD} general", "2 2 1", "3 1 1"], [], "line 3: index out of range"),
        # EntryOutOfField is a ValueError, so the value parser words it
        ("dense-lu", [f"{HEAD} general", "1 1 1", "1 1 1/2"], [], "line 3: bad value '1/2'"),
        ("dense-lu", [f"{HEAD} general", "% no size line"], [], "missing size line"),
        ("sparse-ldl", [f"{HEAD} general", "2 3 0"], ["--greedy-td"], "symmetric input must be square"),
        ("dense-ldl", [f"{HEAD} general", "2 2 1", "1 2 1"], [], "dense-ldl needs a symmetric matrix"),
        ("saddle", [f"{HEAD} general", "5 3 0"], ["--saddle-split", "2"],
         "--saddle-split does not match the matrix shape"),
        ("saddle", [f"{HEAD} general", "5 3 0"], ["--saddle-split", "6"],
         "--saddle-split does not match the matrix shape"),
        ("saddle", [f"{HEAD} general", "3 3 0"], [], "saddle mode needs --matrix-b or --saddle-split"),
        ("saddle", [f"{HEAD} general", "5 3 1", "1 2 1"], ["--saddle-split", "3"],
         "saddle mode needs a symmetric A block"),
    ],
)
def test_cmd_input_errors_name_their_cause(tmp_path, capsys, mode, lines, extra, message):
    p = tmp_path / "m.mtx"
    p.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out.json"
    argv = ["--field", "gfp:7", "--mode", mode, "--matrix", str(p), *extra, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert err.rstrip().endswith(message), err
    assert not out.exists()


def test_cmd_accepts_a_symmetric_general_file_in_sparse_ldl(tmp_path):
    p = tmp_path / "m.mtx"
    write_mm(p, [f"{HEAD} general", "3 3 5", "1 1 1", "2 1 2", "1 2 2", "2 3 3", "3 2 3"])
    out = tmp_path / "out.json"
    argv = ["--field", "gfp:7", "--mode", "sparse-ldl", "--matrix", str(p), "--greedy-td", "--verify"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["verify"] == {"ok": True} and payload["report"]["rank"] == 3
    assert reverify_json(out)


def test_cmd_prints_the_report_without_out(tmp_path, capsys):
    p = star_mtx(tmp_path)
    assert main(["--field", "gf2", "--mode", "dense-ldl", "--matrix", str(p), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "dense-ldl" and report["field"] == "gf2"
    assert report["rank"] == 2 and report["verify"] == {"ok": True}


@pytest.mark.parametrize("spec", ["gf2", "gfp:7", "rational"])
def test_reverify_an_implicit_sparse_ldl_file_with_vertex_eliminations(tmp_path, spec):
    """A 30-vertex star whose centre has a nonzero diagonal: its pairs
    split into vertex eliminations, and 28 peels leave it implicit."""
    ctx = parse_field(spec)
    star = DenseMatrix.zeros(ctx, 30, 30)
    star.set(0, 0, ctx.one)
    for v in range(1, 30):
        star.set(0, v, ctx.one)
        star.set(v, 0, ctx.one)
    write_matrix_market(tmp_path / "star.mtx", star, symmetric=True)
    out = tmp_path / "out.json"
    argv = ["--field", spec, "--mode", "sparse-ldl", "--matrix", str(tmp_path / "star.mtx"),
            "--greedy-td", "--verify", "--out", str(out)]
    with pytest.warns(UserWarning, match="returning the implicit transcript only"):
        assert main(argv) == 0
    factors = json.loads(out.read_text())["factors"]
    assert "L" not in factors
    assert "vertex_elim" in {tf["kind"] for tf in factors["transcript"]}
    assert reverify_json(out)


def test_reverify_rejects_an_unknown_mode_or_transform_kind(tmp_path):
    p = star_mtx(tmp_path, n=30)
    out = tmp_path / "out.json"
    with pytest.warns(UserWarning, match="returning the implicit transcript only"):
        assert main(["--field", "gf2", "--mode", "sparse-ldl", "--matrix", str(p),
                     "--greedy-td", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["factors"]["transcript"][0]["kind"] = "swap"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert reverify_json(bad) is False
    with pytest.raises(ParseError, match="unknown transform kind 'swap'"):
        cli._transform_from_json(GF7, {"kind": "swap"})
    payload["report"]["mode"] = "qr"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="unknown mode 'qr' in"):
        reverify_json(bad)
