"""The README's Library example runs as written."""

import re
from pathlib import Path

import numpy as np

from texelkit import GroundTruth, cli, generate, load_pgm, random_texel, save_pgm

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ```python block under the README's "## Library" heading."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    return code


def test_library_example_writes_the_tiling(tmp_path, monkeypatch):
    texel = random_texel(6, 8, seed=4)
    gt = GroundTruth(texel_h=6, texel_w=8, reps_r=4, reps_c=4)
    (tmp_path / "fabric.pgm").write_bytes(save_pgm(generate(gt, texel)))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    big = load_pgm((tmp_path / "big.pgm").read_bytes())
    assert (big.width, big.height) == (1024, 768)
    assert np.array_equal(big.pixels, np.tile(texel.pixels, (128, 128))[:768, :1024])
    # an exact tiling has no anomalies, so its outlined copy is the input
    assert (tmp_path / "marked.pgm").read_bytes() == (tmp_path / "fabric.pgm").read_bytes()
    # the report is the one detect writes for the same input
    assert cli.main(["detect", "fabric.pgm", "detect.pgm", "--json-out", "detect.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "detect.json").read_bytes()
