"""The CLI's outputs outside the benchmark's workloads are pinned byte for byte.

tests/test_workload_outputs.py pins the three benchmark workloads. These
cases pin the outputs they leave out: the `analyze` report on stdout (with
and without `--csv-dmf`), the `detect` report on stdout through
`--json-out ""`, `synthesize --texel-out`, and `generate`'s image and
sidecar. Each runs through cli.main in-process on a small `testgen` tiling
at seeds 1-3; the exit code, the sha256 of stdout, stderr and the sha256 of
every file the call writes must equal the values below.
"""

import hashlib

import pytest

from texelkit import GroundTruth, cli, generate, random_texel, save_pgm

ARGV = {
    "analyze-stdout": ["analyze", "in.pgm"],
    "analyze-csv-dmf": ["analyze", "in.pgm", "--csv-dmf", "dmf.csv"],
    "detect-json-out-empty": ["detect", "in.pgm", "out.pgm", "--json-out", ""],
    "synthesize-texel-out": ["synthesize", "in.pgm", "out.pgm", "--texel-out", "texel.pgm",
                             "--threshold", "1e9", "--width", "41", "--height", "29"],
    "generate": ["generate", "gen.pgm", "--texel-h", "5", "--texel-w", "4", "--reps-r", "3",
                 "--reps-c", "4", "--defects", "1,2", "--noise-amplitude", "2"],
}

_NO_REPRESENTATIVE = "warning: no block conforms at this threshold; no representative texel\n"
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (case, seed): (exit code, sha256 of stdout, stderr, {output file: sha256})
PINNED = {
    ("analyze-stdout", 1): (
        0, "ffd117da9750fc76b71486d7834c590c9fe78da91d2480374f8ae8c3f2899213", "", {}),
    ("analyze-stdout", 2): (
        0, "bd45b9d95b39c5dca1729a21dff39b42397de84e11e0daee0f05ed776f6e9e3d",
        _NO_REPRESENTATIVE, {}),
    ("analyze-stdout", 3): (
        0, "655125f21070d65ff96adeddec930a68fbda9abed52fcb7139a08c3029db6f3b",
        _NO_REPRESENTATIVE, {}),
    ("analyze-csv-dmf", 1): (
        0, "ffd117da9750fc76b71486d7834c590c9fe78da91d2480374f8ae8c3f2899213", "", {
            "dmf.csv": "cdf59a1a8cba4683553db5078f2a02fd7dec087b299540e747d28e74a45ecf89",
        }),
    ("analyze-csv-dmf", 2): (
        0, "bd45b9d95b39c5dca1729a21dff39b42397de84e11e0daee0f05ed776f6e9e3d",
        _NO_REPRESENTATIVE, {
            "dmf.csv": "d2fccba55ea796cc10c6dc3d4e3d2bd9e7d1baa2e7f08742fe7d919f15b88d15",
        }),
    ("analyze-csv-dmf", 3): (
        0, "655125f21070d65ff96adeddec930a68fbda9abed52fcb7139a08c3029db6f3b",
        _NO_REPRESENTATIVE, {
            "dmf.csv": "c8e88162a125467f7ee977f7bf5e89339f233cc3819bef3a023ec134a5d7ded3",
        }),
    ("detect-json-out-empty", 1): (
        1, "cc89b4f7397156ce72bc6167702eab138fc2baca0e7e2bf6058a3cc5b913c5e1", "", {
            "out.pgm": "88ffbef22cf6592a23d67ab5b3cb8a15ce2ecc1151ee6aa067ab92af4e1b9806",
        }),
    ("detect-json-out-empty", 2): (
        1, "8b5508ac0184fb15271230527cecfc337d74f44b24acdeebe0fb462ed8410ceb", "", {
            "out.pgm": "eb6396b5745490537d85ac70667bf9d63fcecd261ce172ffdc5bfce946d5dd87",
        }),
    ("detect-json-out-empty", 3): (
        1, "d5d6937e3baf6bd434197a245a54e36982679e127359377df0139f64c9a01d29", "", {
            "out.pgm": "ceb8e1f3394748bf6a860ce1fbfb731a6140f32a3623d62c626bdcf17116dadd",
        }),
    ("synthesize-texel-out", 1): (0, _EMPTY, "", {
        "out.pgm": "c20f21b882f8d0675f7af2e340eb39dee1fe32569a8e2368b4cd2b75d8e1076c",
        "texel.pgm": "8ecd5b0046b41d05effd86e1002dfa0898a9a22731b2b4f01761814f6649bd20",
    }),
    ("synthesize-texel-out", 2): (0, _EMPTY, "", {
        "out.pgm": "0b3e6bb19c7dd5ba7e1af2611b3d6760b892a2f130e0cc77fe5e245f771c5869",
        "texel.pgm": "8975468da157ab4a0e99b9538a119c3de15613c63d4edd95b5d84793b6387321",
    }),
    ("synthesize-texel-out", 3): (0, _EMPTY, "", {
        "out.pgm": "d043e11a4952c4c8df768177c43319494d3f0c7b19e04fe00709554f3dee2d6e",
        "texel.pgm": "ec5f19f8fd0493afc9901966d85bcf24d436454010f9d1577656c303d6af0505",
    }),
    ("generate", 1): (0, _EMPTY, "", {
        "gen.json": "311be773f4b1ffba11b40442e4cc80927725352405fc30ab0144bacb870f04fe",
        "gen.pgm": "f6f3105c8a3580f8371f6170c26d9847b1b1787f8796110c7206a64838b42b3c",
    }),
    ("generate", 2): (0, _EMPTY, "", {
        "gen.json": "c16cb99bff35928c770acbf027aef3df3091a9a836d4a0f3cb7c2e82291009ce",
        "gen.pgm": "6d053d0de0362d3f267101d4d671fe274693f76a7147f33243c1f0c8c441a2d9",
    }),
    ("generate", 3): (0, _EMPTY, "", {
        "gen.json": "541a58a0228173dd605db74d3fe8a335a95f32aa296bc2f4c3afc89f67f3ba85",
        "gen.pgm": "78661689325b27030078ea9a648fa821a5c6d25473c42dd78766b0b6bd6f17f2",
    }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case, seed", sorted(PINNED))
def test_outputs_are_pinned(case, seed, tmp_path, monkeypatch, capsys):
    # a 6x5 texel tiled 6x7 with one shifted block; noise grows with the seed
    gt = GroundTruth(texel_h=6, texel_w=5, reps_r=6, reps_c=7,
                     defect_blocks=[(seed, seed + 1)], noise_amplitude=seed - 1, seed=seed)
    (tmp_path / "in.pgm").write_bytes(save_pgm(generate(gt, random_texel(6, 5, seed))))
    monkeypatch.chdir(tmp_path)
    argv = ARGV[case] + (["--seed", str(seed)] if case == "generate" else [])
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    digests = {p.name: sha256(p.read_bytes())
               for p in sorted(tmp_path.iterdir()) if p.name != "in.pgm"}
    assert (rc, sha256(out.encode()), err, digests) == PINNED[case, seed]
