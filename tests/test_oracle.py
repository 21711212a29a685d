"""Whole CLI runs against the plain reference pipeline in reference.py.

One property draws an input image, a command and its flags, runs cli.main
in process and compares its exit code, stdout, stderr and the bytes of
every file it writes with reference.run_cli. It runs once at the default
budgets and once with every working-set budget at its smallest, so each
budgeted loop (block feature runs, DMF chunks, P2 decode runs, report
runs) is checked end to end at its run boundaries.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import texelkit
from texelkit import blocks, cli, image, periodicity, stats

import reference

# every module-level working-set budget of the library, each set to 1 byte
# by the smallest-budget run: every loop then takes its smallest step
SMALLEST_BUDGETS = [
    (stats, "_CHUNK_BYTES"),
    (periodicity, "_FFT_CHUNK_BYTES"),
    (image, "_P2_RUN_BYTES"),
    (blocks, "_REPORT_CHUNK_BYTES"),
]

_FLAG_PATHS = ("csv_dmf", "texel_out", "json_out")


@st.composite
def cli_runs(draw):
    """PGM bytes, a command and its options as reference.run_cli takes them.

    The image is either a tiling of a random texel (3 to 5 repeats per
    axis) with up to two planted defect blocks and noise of 0 to 3 gray
    levels, or plain noise; both sides are at least 6, so the DMF probes 3
    displacements or more at every drawn --dmax-fraction. A P2 raster may
    end without a line break.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        th, tw = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        reps_r, reps_c = draw(st.integers(3, 5)), draw(st.integers(3, 5))
        texel = rng.integers(0, 256, (th, tw))
        pixels = np.tile(texel, (reps_r, reps_c))
        for i, j in draw(st.lists(st.tuples(st.integers(0, reps_r - 1),
                                            st.integers(0, reps_c - 1)), max_size=2)):
            pixels[i * th : (i + 1) * th, j * tw : (j + 1) * tw] = np.minimum(texel + 60, 255)
        noise = draw(st.integers(0, 3))
        pixels = np.clip(pixels + rng.integers(-noise, noise + 1, pixels.shape), 0, 255)
    else:
        pixels = rng.integers(0, 256, (draw(st.integers(6, 40)), draw(st.integers(6, 40))))
    mode = draw(st.sampled_from(["P5", "P2"]))
    data = reference.pgm_bytes(pixels.astype(np.uint8), mode)
    if mode == "P2" and draw(st.booleans()):
        data = data.rstrip(b"\n")

    h, w = pixels.shape
    command = draw(st.sampled_from(["analyze", "synthesize", "detect"]))
    options = {}
    if draw(st.booleans()):
        options["periods"] = (draw(st.integers(1, h)), draw(st.integers(1, w)))
    for name, values in (("threshold", ["0", "0.02", "0.1", "0.5", "1e9"]),
                         ("epsilon", ["1e-3", "1", "100"]),
                         ("dmax_fraction", ["0.5", "0.75", "1.0"])):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            options[name] = value
    if command == "analyze":
        options["csv_dmf"] = draw(st.booleans())
    if command == "synthesize":
        for name in ("width", "height"):
            size = draw(st.one_of(st.none(), st.integers(1, 50)))
            if size is not None:
                options[name] = size
        options["texel_out"] = draw(st.booleans())
    if command == "detect":
        options["thickness"] = draw(st.integers(1, 6))
        options["highlight_value"] = draw(st.integers(0, 255))
    if command != "synthesize":
        options["json_out"] = draw(st.booleans())
    return data, command, options


def argv_of(command, options, tmp: Path) -> list[str]:
    """The CLI arguments for a reference.run_cli call, input in.pgm and
    every output file named after its key in run_cli's result."""
    argv = [command, str(tmp / "in.pgm")] + ([] if command == "analyze" else [str(tmp / "output")])
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        if name == "periods":
            argv += ["--period-rows", str(value[0]), "--period-cols", str(value[1])]
        elif name in _FLAG_PATHS:
            argv += [flag, str(tmp / name)] if value else []
        else:
            argv += [flag, str(value)]
    return argv


def _tiling(th, tw, reps, defect=None):
    texel = np.random.default_rng(th * tw).integers(0, 256, (th, tw))
    pixels = np.tile(texel, (reps, reps))
    if defect is not None:
        i, j = defect
        pixels[i * th : (i + 1) * th, j * tw : (j + 1) * tw] = np.minimum(texel + 60, 255)
    return pixels.astype(np.uint8)


@pytest.mark.parametrize("smallest", [False, True], ids=["default-budgets", "smallest-budgets"])
@settings(max_examples=150, deadline=None)
@given(cli_runs())
@example((reference.pgm_bytes(_tiling(5, 7, 4), "P2"), "analyze", {"csv_dmf": True}))
@example((reference.pgm_bytes(_tiling(6, 4, 4, (1, 2)), "P5"), "detect",
          {"periods": (6, 4), "thickness": 2, "json_out": True}))
@example((reference.pgm_bytes(_tiling(3, 5, 5, (0, 0)), "P2").rstrip(b"\n"), "synthesize",
          {"threshold": "0.02", "width": 23, "height": 8, "texel_out": True}))
@example((reference.pgm_bytes(_tiling(4, 3, 4, (2, 1)), "P5"), "detect",
          {"epsilon": "100", "dmax_fraction": "0.75", "highlight_value": 7, "json_out": True}))
# the raster's last line is one digit and no line break: at the smallest
# budget the P2 decoder's last run is one byte
@example((reference.pgm_bytes(_tiling(2, 3, 3) // 26, "P2")[:-3] + b"\n7", "detect",
          {"periods": (2, 3)}))
def test_cli_run_equals_reference(smallest, run):
    data, command, options = run
    want = reference.run_cli(command, data, **options)
    with tempfile.TemporaryDirectory() as d, contextlib.ExitStack() as stack:
        tmp = Path(d)
        (tmp / "in.pgm").write_bytes(data)
        if smallest:
            for module, name in SMALLEST_BUDGETS:
                stack.enter_context(mock.patch.object(module, name, 1))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv_of(command, options, tmp))
        files = {p.name: p.read_bytes() for p in tmp.iterdir() if p.name != "in.pgm"}
    assert (code, out.getvalue(), err.getvalue(), files) == want


def test_every_budget_is_in_the_smallest_table():
    src = Path(texelkit.__file__).parent
    found = {
        (f"texelkit.{path.stem}", name)
        for path in src.glob("*.py")
        for name in re.findall(r"^(_\w+_BYTES)\s*=", path.read_text(), re.MULTILINE)
    }
    assert found, "no budget found: the pattern no longer matches the sources"
    assert found <= {(module.__name__, name) for module, name in SMALLEST_BUDGETS}
