"""Golden outputs of the CLI: every mode over four fields, byte for byte.

The inputs come from a fixed formula, not a random generator, and the runs
use relative file names from one directory, so each output file (the
factors, the report with op counts, and the recorded inputs) is the same
on every run.  A change that alters any output changes its SHA-256.
"""

import hashlib

import pytest

from exldl.cli import main

FIELDS = ("gf2", "gfp:7", "gfp:2147483647", "rational")


def value(spec, i, j, salt):
    """A small entry, zero about a third of the time."""
    if (i + 2 * j + salt) % 3 == 0:
        return "0"
    v = (7 * i + 11 * j + 13 * salt + 5 * i * j) % 9 - 4
    if spec == "rational":
        return f"{v}/{(i + j + salt) % 3 + 1}"
    return str(v)


def write_mtx(path, spec, m, n, salt, symmetric=False, band=None):
    lines = []
    for i in range(m):
        for j in range(i + 1 if symmetric else n):
            if band is not None and abs(i - j) > band:
                continue
            v = value(spec, i, j, salt)
            if v.split("/")[0] != "0":
                lines.append(f"{i + 1} {j + 1} {v}")
    mmfield = "rational" if spec == "rational" else "integer"
    symtag = "symmetric" if symmetric else "general"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {mmfield} {symtag}\n")
        fh.write(f"{m} {n} {len(lines)}\n")
        fh.write("".join(line + "\n" for line in lines))


CASES = [
    (mode, spec, cutoff)
    for spec in FIELDS
    for mode in ("dense-ldl", "dense-lu", "sparse-ldl", "sparse-lu", "saddle")
    for cutoff in ((None, "4") if mode in ("dense-ldl", "dense-lu", "saddle") else (None,))
]

# SHA-256 of each output file, keyed by "mode field cutoff".
GOLDEN = {
    "dense-ldl gf2 None": "b445f6ead9e2123942f5e68354de7d712fb481e07c719f4c4eb5eefc8ec764a7",
    "dense-ldl gf2 4": "edc320e7ab4729f2ccf598cc678bb636c54b716baae9b6056a7fb287b35ee80e",
    "dense-lu gf2 None": "2ecb1ae9813b1e610159e8c5b9eb3cca2e9f2a8aad15406ae1193c042729d08f",
    "dense-lu gf2 4": "15c065df6d0a867b49faba7664726de3f19679f14bd3819042a4096c29e0c49a",
    "sparse-ldl gf2 None": "c07f856aec912847a8b94cff594eb41feb27a46e46f8559773d47a3d416dd18d",
    "sparse-lu gf2 None": "d32ea2fed0d0c49d9c0ff40ec7cd16c0f68327301e740cc2d697a042bc0d1dc5",
    "saddle gf2 None": "78084d82b09d0f920050805f9ecbba5972142c7884a0c95995e1e55c82c95415",
    "saddle gf2 4": "e288a347d20f845fa81eca811526de2f2ef4b15b0117bf6e02392139f8618097",
    "dense-ldl gfp:7 None": "903db872cc269f74b2b53073447d7566dcc6fb4259370ae941474b6f4b626497",
    "dense-ldl gfp:7 4": "53a98a122810e3718020a0fa869822d528c13d1531130d2d11aa3ec201526280",
    "dense-lu gfp:7 None": "98d33ab9e4068b112cb0229d713d4779b8fc2e657b03c020a840665dcc19fbf2",
    "dense-lu gfp:7 4": "f7b0cb472e1e0c958960c2ff0522d0292c25890d50c4e876fc598ebb6adee633",
    "sparse-ldl gfp:7 None": "92d6533f711aee9f4527bc36ec73f460db057905062a61471c3a9e7ecf3e3d4f",
    "sparse-lu gfp:7 None": "abdbb0dad9298a7774d65667f1e0641be9ab641d42dd29d640b0c24849b7bbc1",
    "saddle gfp:7 None": "998969fb3a2f0ec241c157f50110fa0d571e34555120c3ee4b59b6ceee41c3d6",
    "saddle gfp:7 4": "fd2f864edb64f66711a4bb605ef9108ad0ad3a8e93c70d642d690ad04b753269",
    "dense-ldl gfp:2147483647 None": "93d819ae38b220c607bf1f9cc85206e302e2a71080d6b6862770919da70eee07",
    "dense-ldl gfp:2147483647 4": "72311accda4dffa55f4b1cd6e9ed281ddeace8030fa662789bd1087b18cd6326",
    "dense-lu gfp:2147483647 None": "93843b43a7e283a1bccf5d2994894fcd88b92fa989c6abd5f18c033e539114a9",
    "dense-lu gfp:2147483647 4": "e45cf3aea5686d0e507fd629357a94199b39cf4ec9eb9c793e2a4c2e525f564c",
    "sparse-ldl gfp:2147483647 None": "8e70cc2b9d329fafd1b4c7307b18ce8350e70debfffece526deb2f23d54b42bb",
    "sparse-lu gfp:2147483647 None": "0ca5929fd4372ce82764e348122f87de2ac7f27003133b9b68d46e94b19cde7c",
    "saddle gfp:2147483647 None": "5b92e5a9e3bcae3cd90cadfcf4e680c8369e667ea53121741c5770578e096535",
    "saddle gfp:2147483647 4": "ee97c6127c96b6eeba77eefeff5162094f91a0a651ea7ddf5970d67850e787e6",
    "dense-ldl rational None": "39ac102d2a19c74a4b58f577c652ed9ef85e50a66db119ef62b38b35d56c231e",
    "dense-ldl rational 4": "7c0bf9b915c1e4383acbefe559a565f12db7ad018a7096ebf6642a35b5fb6935",
    "dense-lu rational None": "d9f06c5c951cd34d8ebf1b3f3e4f9fcd0a0eebdfbd01264c6dba67447f5aad76",
    "dense-lu rational 4": "c25ccdb2d9f541fb62ed830218d1dee0db6d90ccb3420cfc9ffdfc8cb5b76dd0",
    "sparse-ldl rational None": "4d72e8a9dee0f34258b97572e0b894a8643c4af458d0d60d641a22eb64beca49",
    "sparse-lu rational None": "5af0599fbc574cc5a35b01d4bc99fb31736d7e3c1e63c1027f8d5202e60a6603",
    "saddle rational None": "5b7c253b6b897720a1b02e141136f8684bf06a130689c9505db53e03ee0d5481",
    "saddle rational 4": "b3725242b7c2e9bc196b24bef92dc01b7685f399a19caabda1bbc1a75ef6c666",
}


def run_case(mode, spec, cutoff):
    write_mtx("sym.mtx", spec, 9, 9, 1, symmetric=True)
    write_mtx("gen.mtx", spec, 7, 10, 2)
    write_mtx("band.mtx", spec, 12, 12, 3, symmetric=True, band=2)
    write_mtx("bandlu.mtx", spec, 8, 9, 4, band=1)
    write_mtx("a.mtx", spec, 7, 7, 5, symmetric=True)
    write_mtx("b.mtx", spec, 3, 7, 6)
    matrix = {"dense-ldl": "sym.mtx", "dense-lu": "gen.mtx", "sparse-ldl": "band.mtx",
              "sparse-lu": "bandlu.mtx", "saddle": "a.mtx"}[mode]
    argv = ["--field", spec, "--mode", mode, "--matrix", matrix, "--verify", "--stats"]
    if mode == "saddle":
        argv += ["--matrix-b", "b.mtx"]
    if mode.startswith("sparse"):
        argv.append("--greedy-td")
    if cutoff is not None:
        argv += ["--strassen-cutoff", cutoff]
    assert main(argv + ["--out", "out.json"]) == 0
    with open("out.json", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("mode, spec, cutoff", CASES)
def test_cli_output_matches_golden_digest(tmp_path, monkeypatch, mode, spec, cutoff):
    monkeypatch.chdir(tmp_path)
    assert run_case(mode, spec, cutoff) == GOLDEN[f"{mode} {spec} {cutoff}"]
