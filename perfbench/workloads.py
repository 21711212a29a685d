"""Benchmark workloads: seeded fixtures, the CLI argv each one runs, and the
ground-truth checks on every output.

Fixtures come from texelkit.testgen and are written to disk during set-up;
the CLI receives only those files. The checks rebuild what each output must
be from the generator's ground truth with plain numpy, never with texelkit's
own encoder or classifier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from texelkit.image import save_pgm
from texelkit.testgen import GroundTruth, generate, random_texel

HIGHLIGHT_VALUE = 255  # detect's default --highlight-value; outlines are 1 px


@dataclass(frozen=True)
class Workload:
    """One seeded input and the CLI command run on it."""

    name: str
    command: str  # texelkit subcommand: analyze, detect or synthesize
    texel: tuple[int, int]  # (height, width) in pixels
    reps: tuple[int, int]  # tile rows, tile columns
    flags: tuple[str, ...]  # CLI flags besides the file paths
    why: str
    defects: tuple[tuple[int, int], ...] = ()
    noise: int = 0
    pgm_mode: str = "P5"
    # texel drawn on [0, 195] with power 4, as acceptance criterion 4 does:
    # every global feature then sits far from zero, which a 2% test needs
    skewed: bool = False
    out_size: tuple[int, int] | None = None  # synthesize: (width, height)

    @property
    def input_mpx(self) -> float:
        return self.texel[0] * self.reps[0] * self.texel[1] * self.reps[1] / 1e6


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="detect-dense",
            command="detect",
            texel=(8, 8),
            reps=(128, 128),
            flags=("--period-rows", "8", "--period-cols", "8"),
            defects=((77, 33),),
            noise=5,
            why="manual periods skip DMF; all 16384 noisy blocks are flagged, so "
                "highlighting, the JSON report and block statistics carry the call",
        ),
        Workload(
            name="analyze-periodic",
            command="analyze",
            texel=(24, 20),
            reps=(40, 48),
            flags=("--threshold", "0.02"),
            defects=((5, 7), (30, 40)),
            skewed=True,
            why="period estimation runs, so row and column DMF do almost all "
                "the work; only 1920 blocks and no highlighting",
        ),
        Workload(
            name="synth-p2",
            command="synthesize",
            texel=(14, 12),
            reps=(36, 42),
            flags=("--threshold", "0.02"),
            pgm_mode="P2",
            out_size=(4096, 4096),
            why="ASCII PGM decode and a 16-megapixel tiled write beside a "
                "smaller DMF; no JSON report",
        ),
    )
}


@dataclass
class Fixture:
    """Files of one workload instance and the ground truth behind them."""

    workload: Workload
    texel: np.ndarray
    image: np.ndarray
    input_path: Path
    output_path: Path
    report_path: Path

    def argv(self) -> list[str]:
        w = self.workload
        if w.command == "analyze":
            return ["analyze", str(self.input_path), *w.flags,
                    "--json-out", str(self.report_path)]
        if w.command == "detect":
            return ["detect", str(self.input_path), str(self.output_path), *w.flags,
                    "--json-out", str(self.report_path)]
        out_w, out_h = w.out_size
        return ["synthesize", str(self.input_path), str(self.output_path), *w.flags,
                "--width", str(out_w), "--height", str(out_h)]


def write_fixture(w: Workload, seed: int, workdir: Path) -> Fixture:
    """Generate the workload's input from `seed` and write it (plus the
    ground-truth sidecar) under `workdir`."""
    th, tw = w.texel
    gt = GroundTruth(
        texel_h=th, texel_w=tw, reps_r=w.reps[0], reps_c=w.reps[1],
        defect_blocks=list(w.defects), noise_amplitude=w.noise, seed=seed,
    )
    style = {"high": 195, "power": 4.0} if w.skewed else {}
    texel = random_texel(th, tw, seed, **style)
    img = generate(gt, texel)
    workdir.mkdir(parents=True, exist_ok=True)
    input_path = workdir / "input.pgm"
    input_path.write_bytes(save_pgm(img, w.pgm_mode))
    input_path.with_suffix(".json").write_text(gt.to_json() + "\n")
    return Fixture(
        workload=w,
        texel=texel.pixels,
        image=img.pixels,
        input_path=input_path,
        output_path=workdir / "output.pgm",
        report_path=workdir / "report.json",
    )


def _reject_constant(name: str):
    raise ValueError(f"report is not strict JSON: contains {name}")


def _p5_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def _anomalies(blocks: list[dict]) -> set[tuple[int, int]]:
    return {tuple(b["index"]) for b in blocks if not b["conforming"]}


def _outline_mask(shape, block_h, block_w, anomalies) -> np.ndarray:
    """Pixels on the 1-px outline of every anomalous block."""
    h, w = shape
    n_rows, n_cols = h // block_h, w // block_w
    flagged = np.zeros((n_rows, n_cols), dtype=bool)
    for i, j in anomalies:
        flagged[i, j] = True
    border = np.ones((block_h, block_w), dtype=bool)
    border[1:-1, 1:-1] = False
    mask = np.zeros(shape, dtype=bool)
    mask[: n_rows * block_h, : n_cols * block_w] = np.kron(flagged, border)
    return mask


def _check_report(fx: Fixture, report: dict, image: bytes | None) -> list[str]:
    """Problems with an analyze or detect report (and detect's image)."""
    w = fx.workload
    if w.command == "analyze":
        problems = []
        periods = report["periods"]
        got = (periods["row_period"], periods["col_period"])
        if got != w.texel:
            problems.append(f"periods {got}, expected {w.texel}")
        found = _anomalies(report["analysis"]["blocks"])
        if found != set(w.defects):
            problems.append(f"{len(found)} anomalies, expected exactly {sorted(w.defects)}")
        return problems

    found = _anomalies(report["blocks"])
    missed = set(w.defects) - found
    problems = [f"planted defects not flagged: {sorted(missed)}"] if missed else []
    expected = fx.image.copy()
    expected[_outline_mask(fx.image.shape, *w.texel, found)] = HIGHLIGHT_VALUE
    if image != _p5_bytes(expected):
        problems.append("highlighted image differs from the input outside "
                        "the anomaly outlines, or an outline is missing")
    return problems


def check(fx: Fixture, rc) -> tuple[list[str], dict[str, str]]:
    """Problems with one call's exit code and outputs, and the sha256 of
    each output file. An empty problem list means the call is correct."""
    w = fx.workload
    problems: list[str] = []
    digests: dict[str, str] = {}
    outputs = {}
    for path in (fx.report_path, fx.output_path):
        if path.exists():
            outputs[path.name] = data = path.read_bytes()
            digests[path.name] = hashlib.sha256(data).hexdigest()

    expected_rc = 1 if w.command == "detect" else 0
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")

    report = None
    if w.command in ("analyze", "detect"):
        try:
            report = json.loads(outputs[fx.report_path.name],
                                parse_constant=_reject_constant)
        except KeyError:
            problems.append("no JSON report written")
        except ValueError as exc:
            problems.append(str(exc))

    if report is not None:
        try:
            problems.extend(_check_report(fx, report, outputs.get(fx.output_path.name)))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems.append(f"report has an unexpected shape: {exc!r}")

    if w.command == "synthesize":
        out_w, out_h = w.out_size
        reps = (-(-out_h // w.texel[0]), -(-out_w // w.texel[1]))
        tiled = np.tile(fx.texel, reps)[:out_h, :out_w]
        if outputs.get(fx.output_path.name) != _p5_bytes(tiled):
            problems.append("synthesized image is not the ground-truth texel tiled")

    return problems, digests
