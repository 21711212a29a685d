"""Plain reference implementations of the whole texelkit pipeline.

Each stage is written in the plainest Python or numpy, with no chunks,
budgets, lookup tables, FFTs or streaming, so that agreement with the
library is meaningful: PGM decoding and encoding, the DMF, period
selection, block features and classification, the report, the DMF CSV,
outlines and tiling. `run_cli` chains them into one whole CLI run. Nothing
is taken from texelkit but the GrayImage and PgmError types.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from texelkit import GrayImage, PgmError

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")

# a '#' starts a comment that runs to the end of its line, inside a token or not
_COMMENT = re.compile(rb"#[^\r\n]*")
_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def p2_reference(data: bytes) -> GrayImage:
    """Per-token reference for P2 decoding.

    Comments become spaces and the file is split on its six whitespace
    bytes. Raises PgmError wherever load_pgm must, with load_pgm's message
    for every raster error: the first malformed sample, then a short
    raster, then the first sample of 1000 or more, then the largest sample.
    """
    tokens = _COMMENT.sub(b" ", data).split()
    if not tokens:
        raise PgmError("unexpected end of file while reading PGM header")
    if tokens[0] != b"P2":
        raise PgmError(f"not a P2 file: bad magic {tokens[0]!r}")
    header = []
    for k, what in enumerate(("width", "height", "maxval"), start=1):
        if k >= len(tokens):
            raise PgmError("unexpected end of file while reading PGM header")
        if not tokens[k].isdigit():
            raise PgmError(f"malformed PGM header: expected {what}, got {tokens[k]!r}")
        try:
            header.append(int(tokens[k]))
        except ValueError:  # more digits than Python converts to int
            raise PgmError(f"invalid PGM {what} of {len(tokens[k])} digits") from None
    width, height, maxval = header
    if width < 1 or height < 1 or not 1 <= maxval <= 255:
        raise PgmError(f"invalid P2 header {width}x{height}, maxval {maxval}")
    samples = tokens[4 : 4 + width * height]
    bad = next((t for t in samples if not t.isdigit()), None)
    if bad is not None:
        raise PgmError(f"malformed P2 sample: {bad!r}")
    if len(samples) < width * height:
        raise PgmError(
            f"truncated P2 pixel data: expected {width * height} samples, got {len(samples)}"
        )
    # the first sample of 1000 or more, named by its length when int() refuses it
    big = next((t for t in samples if len(t.lstrip(b"0")) >= 4), None)
    if big is not None:
        try:
            value = int(big)
        except ValueError:  # more digits than Python converts to int
            value = f"of {len(big)} digits"
        raise PgmError(f"sample value {value} exceeds declared maxval {maxval}")
    values = [int(t) for t in samples]
    if max(values) > maxval:
        raise PgmError(f"sample value {max(values)} exceeds declared maxval {maxval}")
    return GrayImage(np.array(values, dtype=np.uint8).reshape(height, width))


def load(data: bytes) -> GrayImage:
    """A P2 file, or a P5 file whose header has no comments, as pgm_bytes
    writes it."""
    if data.startswith(b"P2"):
        return p2_reference(data)
    header = _P5_HEADER.match(data)
    width, height, _ = map(int, header.groups())
    raster = data[header.end() : header.end() + width * height]
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def p2_text_reference(img: GrayImage) -> bytes:
    """Per-pixel reference for P2 encoding: lines of at most 70 characters,
    a new line for each row."""
    lines = []
    for row in img.pixels:
        line = ""
        for v in row:
            tok = str(int(v))
            if not line:
                line = tok
            elif len(line) + 1 + len(tok) <= 70:
                line += " " + tok
            else:
                lines.append(line)
                line = tok
        lines.append(line)
    header = f"P2\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + "\n".join(lines).encode("ascii") + b"\n"


def pgm_bytes(pixels: np.ndarray, mode: str = "P5") -> bytes:
    """A PGM file of the pixels with maxval 255."""
    if mode == "P2":
        return p2_text_reference(GrayImage(pixels))
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def pixel_loop_features(img: GrayImage) -> dict[str, float]:
    """Per-pixel reference for the six first-order features of the image.

    Moments come from a direct pass over pixel values; energy and entropy
    from a Counter of gray levels. math.fsum keeps the sums exactly rounded.
    """
    values = [int(v) for v in img.pixels.ravel()]
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    skewness = math.fsum((v - mean) ** 3 for v in values) / n
    kurtosis = math.fsum((v - mean) ** 4 for v in values) / n
    counts = Counter(values)
    energy = math.fsum((c / n) ** 2 for c in counts.values())
    entropy = -math.fsum((c / n) * math.log2(c / n) for c in counts.values())
    return dict(zip(FEATURE_NAMES, (mean, variance, skewness, kurtosis, energy, entropy + 0.0)))


def direct_feature_matrix(counts: np.ndarray) -> np.ndarray:
    """The six features of each row of an (m, 256) matrix of gray-level
    counts, from p = counts / n with log2 taken per element: the formula
    the library's per-count tables must match bit for bit."""
    n = counts.sum(axis=-1, keepdims=True)
    p = counts / n
    levels = np.arange(256, dtype=np.float64)
    mean = (p * levels).sum(axis=-1, keepdims=True)
    centered = levels - mean
    c2 = centered * centered
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return np.stack([
        mean[:, 0],
        (c2 * p).sum(axis=-1),
        (c2 * centered * p).sum(axis=-1),
        (c2 * c2 * p).sum(axis=-1),
        (p * p).sum(axis=-1),
        -(p * log_p).sum(axis=-1) + 0.0,
    ], axis=-1)


def one_bincount_features(pixels: np.ndarray) -> np.ndarray:
    """The features of a 2-D array of pixels, from one bincount over all of
    them, fed to direct_feature_matrix."""
    return direct_feature_matrix(np.bincount(pixels.ravel(), minlength=256)[None])[0]


class Grid(NamedTuple):
    block_h: int
    block_w: int
    n_rows: int
    n_cols: int


class Classification(NamedTuple):
    global_features: np.ndarray  # (6,)
    features: np.ndarray  # (blocks, 6), row-major
    deviations: np.ndarray  # (blocks, 6)
    max_deviation: list[float]
    conforming: list[bool]
    representative: tuple[int, int] | None
    anomalies: list[tuple[int, int]]


def per_block_classify(img: GrayImage, grid, threshold: float, epsilon: float) -> Classification:
    """Classify each whole block of `grid` (block_h, block_w, n_rows, n_cols)
    on its own, in row-major order, against the whole image's features.

    A block conforms when its largest relative deviation is at most the
    threshold; the representative is the conforming block with the
    smallest one, and a strict `<` keeps the earliest of tied minima.
    """
    whole = np.bincount(img.pixels.ravel(), minlength=256)
    reference = direct_feature_matrix(whole[None])[0]
    features, deviations, max_devs, conforming, anomalies = [], [], [], [], []
    representative, best = None, None
    for i in range(grid.n_rows):
        for j in range(grid.n_cols):
            block = img.pixels[i * grid.block_h : (i + 1) * grid.block_h,
                               j * grid.block_w : (j + 1) * grid.block_w]
            local = direct_feature_matrix(np.bincount(block.ravel(), minlength=256)[None])[0]
            with np.errstate(over="ignore"):
                dev = np.abs(local - reference) / np.maximum(np.abs(reference), epsilon)
            max_dev = float(dev.max())
            features.append(local)
            deviations.append(dev)
            max_devs.append(max_dev)
            conforming.append(max_dev <= threshold)
            if max_dev > threshold:
                anomalies.append((i, j))
            elif best is None or max_dev < best:
                best, representative = max_dev, (i, j)
    return Classification(reference, np.array(features), np.array(deviations),
                          max_devs, conforming, representative, anomalies)


def report(grid: Grid, threshold: float, epsilon: float, c: Classification) -> dict:
    """The report as a plain dict, in the layout of AnalysisResult.to_dict()."""
    return {
        "grid": dict(zip(Grid._fields, grid)),
        "threshold": threshold,
        "epsilon": epsilon,
        "global": dict(zip(FEATURE_NAMES, c.global_features.tolist())),
        "representative": None if c.representative is None else list(c.representative),
        "blocks": [
            {
                "index": [k // grid.n_cols, k % grid.n_cols],
                "features": dict(zip(FEATURE_NAMES, c.features[k].tolist())),
                "deviations": dict(zip(FEATURE_NAMES, c.deviations[k].tolist())),
                "max_deviation": float(c.max_deviation[k]),
                "conforming": bool(c.conforming[k]),
            }
            for k in range(len(c.conforming))
        ],
    }


def result_report(res) -> dict:
    """The report of an AnalysisResult, read from its fields; the
    deviations are derived from its features as per_block_classify does."""
    g = res.grid
    anomalies = [divmod(k, g.n_cols) for k in np.flatnonzero(~res.conforming).tolist()]
    reference = res.global_features
    with np.errstate(over="ignore"):
        deviations = np.abs(res.features - reference) / np.maximum(np.abs(reference), res.epsilon)
    c = Classification(res.global_features, res.features, deviations,
                       res.max_deviation, res.conforming, res.representative, anomalies)
    return report(Grid(g.block_h, g.block_w, g.n_rows, g.n_cols), res.threshold, res.epsilon, c)


def report_text(report_dict: dict) -> str:
    """A report dict as the CLI writes it."""
    return json.dumps(report_dict, indent=2, allow_nan=False) + "\n"


def dmf(pixels: np.ndarray, d_max: int) -> list[float]:
    """DMF along the last axis for d = 1..d_max: the integer sum of squared
    differences of pixels d apart, divided once by their number. dmf(p.T)
    is the DMF over rows."""
    pix = pixels.astype(np.int64)
    h, w = pix.shape
    return [int(((pix[:, d:] - pix[:, :-d]) ** 2).sum()) / (h * (w - d)) for d in range(1, d_max + 1)]


def minima(values: list[float]) -> list[int]:
    """Displacements where the forward difference of values (values[d - 1]
    at displacement d) turns from negative to positive, a plateau counting
    at its first displacement; a NaN difference is neither."""
    found, pending = [], None
    for d in range(1, len(values)):
        step = values[d] - values[d - 1]
        if step < 0:
            pending = d + 1
        elif step > 0 and pending is not None:
            found.append(pending)
            pending = None
    return found


def select_period(values: list[float]) -> tuple[int, list[int], bool]:
    """Period, minima used and degenerate flag of one DMF curve (values[d - 1]
    at displacement d), as the README states the selection.

    Only minima within 25% of the way from the curve's minimum to its mean
    take part, or all minima when none is that deep. The period is the mode
    of the first used minimum pooled with the spacings between used minima,
    ties to the smallest; with no minima, the global minimum's displacement.
    """
    found = minima(values)
    if not found:
        return values.index(min(values)) + 1, [], True
    low = min(values)
    tau = low + 0.25 * (float(np.mean(values)) - low)
    used = [d for d in found if values[d - 1] <= tau] or found
    counts = Counter([used[0]] + [b - a for a, b in zip(used, used[1:])])
    return min(v for v, n in counts.items() if n == max(counts.values())), used, False


def dmf_csv(curves: dict[str, list[float]]) -> bytes:
    """The DMF curves, keyed by axis in output order, as csv.writer writes
    them: axis, d, value and forward difference (empty at the last d)."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["axis", "d", "dmf", "forward_difference"])
    for axis, values in curves.items():
        for d, value in enumerate(values, start=1):
            fd = repr(values[d] - value) if d < len(values) else ""
            writer.writerow([axis, d, repr(value), fd])
    return text.getvalue().encode("ascii")


def outlines(pixels: np.ndarray, grid, anomalies, value: int, thickness: int) -> np.ndarray:
    """The pixels with a band of `thickness` just inside each anomalous
    block set to `value`, painted block by block, each side clipped to its
    block."""
    out = pixels.copy()
    bh, bw = grid.block_h, grid.block_w
    th, tw = min(thickness, bh), min(thickness, bw)
    for i, j in anomalies:
        block = out[i * bh : (i + 1) * bh, j * bw : (j + 1) * bw]
        block[:th] = block[bh - th :] = value
        block[:, :tw] = block[:, bw - tw :] = value
    return out


def tiling(texel: np.ndarray, width: int, height: int) -> np.ndarray:
    """The texel repeated to cover width x height, cropped at the right and
    bottom."""
    th, tw = texel.shape
    return np.tile(texel, (-(-height // th), -(-width // tw)))[:height, :width]


def run_cli(command: str, data: bytes, periods=None, threshold="0.1", epsilon="1e-6",
            dmax_fraction="0.5", highlight_value=255, thickness=1, width=None, height=None,
            csv_dmf=False, texel_out=False, json_out=False):
    """Exit code, stdout, stderr and written files of a texelkit run of
    `command` (analyze, synthesize or detect) on the PGM `data`, with
    default flags but for those given: `periods` (rows, cols) for manual
    periods, `threshold`, `epsilon` and `dmax_fraction` as their flag text,
    `highlight_value` and `thickness` for detect, `width`/`height` for
    synthesize, and whether --csv-dmf, --texel-out or --json-out are given.
    Files are keyed "output" for the output image and by option name
    ("csv_dmf", "texel_out", "json_out") otherwise.
    """
    img = load(data)
    pixels, fraction = img.pixels, float(dmax_fraction)
    stderr, files = [], {}
    if periods is None:
        curves, estimate = {}, {}
        for axis, pix, flag in (("rows", pixels.T, "--period-rows"),
                                ("columns", pixels, "--period-cols")):
            curves[axis] = dmf(pix, min(int(fraction * pix.shape[1]), pix.shape[1] - 1))
            estimate[axis] = select_period(curves[axis])
            if estimate[axis][2]:
                kind = "row" if axis == "rows" else "column"
                stderr.append(f"warning: {kind} periodicity is degenerate (no usable minima); "
                              f"consider {flag}\n")
        (row_period, row_used, row_degen), (col_period, col_used, col_degen) = estimate.values()
    else:
        (row_period, col_period), row_used, col_used, row_degen, col_degen = periods, [], [], False, False
    grid = Grid(row_period, col_period, img.height // row_period, img.width // col_period)
    c = per_block_classify(img, grid, float(threshold), float(epsilon))
    analysis = report(grid, float(threshold), float(epsilon), c)
    stdout = ""
    code = 0

    if command == "analyze":
        if csv_dmf and periods is not None:
            stderr.append("warning: --csv-dmf ignored: DMF estimation was skipped (manual periods)\n")
        elif csv_dmf:
            files["csv_dmf"] = dmf_csv(curves)
        if c.representative is None:
            stderr.append("warning: no block conforms at this threshold; no representative texel\n")
        text = report_text({"periods": {
            "row_period": row_period, "col_period": col_period,
            "row_candidates": row_used, "col_candidates": col_used,
            "row_degenerate": row_degen, "col_degenerate": col_degen,
            "manual": periods is not None,
        }, "analysis": analysis})
    elif command == "synthesize":
        if c.representative is None:
            stderr.append("error: no block conforms at this threshold; nothing to synthesize from\n")
            return 3, "", "".join(stderr), files
        i, j = c.representative
        texel = pixels[i * row_period : (i + 1) * row_period, j * col_period : (j + 1) * col_period]
        if texel_out:
            files["texel_out"] = pgm_bytes(texel)
        files["output"] = pgm_bytes(tiling(texel, width or img.width, height or img.height))
        return 0, "", "".join(stderr), files
    else:
        files["output"] = pgm_bytes(outlines(pixels, grid, c.anomalies, highlight_value, thickness))
        text = report_text(analysis)
        code = 1 if c.anomalies else 0
    if json_out:
        files["json_out"] = text.encode("ascii")
    else:
        stdout = text
    return code, stdout, "".join(stderr), files
