"""Shared fixtures and independent reference implementations.

The reference functions here deliberately avoid the library's vectorized
code paths (no chunked or block-indexed histograms, no shifted-slice
arithmetic) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import math
import os
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import texelkit
from texelkit import GrayImage, PgmError, Rect, features_of_region
from texelkit.blocks import deviation_matrix
from texelkit.image import _read_header_int, _read_header_token


def cli_env() -> dict[str, str]:
    """Environment for a `python -m texelkit` child run from another cwd.

    PYTHONPATH starts with the absolute directory holding the texelkit
    package imported here, so a relative entry such as `src` cannot break
    the child.
    """
    src = str(Path(texelkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}


def make_image(rows) -> GrayImage:
    """Build a GrayImage from a list of row lists."""
    return GrayImage(np.array(rows, dtype=np.uint8))


def random_image(rng: np.random.Generator, h: int, w: int) -> GrayImage:
    return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def p2_reference(data: bytes) -> GrayImage:
    """Per-token reference for P2 decoding: the loop load_pgm used to run.

    Every sample is read by the header tokenizer and converted with one int
    per token. Raises PgmError wherever load_pgm must, with load_pgm's
    message for every raster error: the first malformed sample, then a short
    raster, then the first sample of 1000 or more, then the largest sample.
    """
    magic, pos = _read_header_token(data, 0)
    if magic != b"P2":
        raise PgmError(f"not a P2 file: bad magic {magic!r}")
    width, pos = _read_header_int(data, pos, "width")
    height, pos = _read_header_int(data, pos, "height")
    maxval, pos = _read_header_int(data, pos, "maxval")
    if width < 1 or height < 1 or not 1 <= maxval <= 255:
        raise PgmError(f"invalid P2 header {width}x{height}, maxval {maxval}")
    samples = []
    while len(samples) < width * height:
        try:
            token, pos = _read_header_token(data, pos)
        except PgmError:
            raise PgmError(
                f"truncated P2 pixel data: expected {width * height} samples, got {len(samples)}"
            ) from None
        if not token.isdigit():
            raise PgmError(f"malformed P2 sample: {token!r}")
        samples.append(token)
    # the first sample of 1000 or more, named by its length when int() refuses it
    big = next((t for t in samples if len(t.lstrip(b"0")) >= 4), None)
    if big is not None:
        try:
            value = int(big)
        except ValueError:  # more digits than Python converts to int
            value = f"of {len(big)} digits"
        raise PgmError(f"sample value {value} exceeds declared maxval {maxval}")
    samples = [int(t) for t in samples]
    if max(samples) > maxval:
        raise PgmError(f"sample value {max(samples)} exceeds declared maxval {maxval}")
    return GrayImage(np.array(samples, dtype=np.uint8).reshape(height, width))


def peak_bytes(fn, *args, **kwargs) -> tuple[object, int]:
    """fn(*args, **kwargs) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def p2_text_reference(img: GrayImage) -> bytes:
    """Per-pixel reference for P2 encoding: the loop save_pgm used to run."""
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


def pixel_loop_features(img: GrayImage, region: Rect | None = None) -> dict[str, float]:
    """Per-pixel reference for the six first-order features.

    Moments come from a direct pass over pixel values; energy and entropy
    from a Counter of gray levels. math.fsum keeps the sums exactly rounded.
    """
    pix = img.pixels
    if region is not None:
        pix = pix[region.y0 : region.y0 + region.h, region.x0 : region.x0 + region.w]
    values = [int(v) for v in pix.ravel()]
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / n
    skewness = math.fsum((v - mean) ** 3 for v in values) / n
    kurtosis = math.fsum((v - mean) ** 4 for v in values) / n
    counts = Counter(values)
    energy = math.fsum((c / n) ** 2 for c in counts.values())
    entropy = -math.fsum((c / n) * math.log2(c / n) for c in counts.values())
    return {
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "energy": energy,
        "entropy": entropy + 0.0,
    }


def direct_feature_matrix(counts: np.ndarray) -> np.ndarray:
    """stats.feature_matrix's formula with p = counts / n and log2 taken per
    element: the reference its per-count tables must match bit for bit."""
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


def one_bincount_features(img: GrayImage, r: Rect) -> np.ndarray:
    """Reference: the region's features from one bincount over all its
    pixels, fed to direct_feature_matrix."""
    block = img.pixels[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w]
    return direct_feature_matrix(np.bincount(block.ravel(), minlength=256)[None])[0]


def per_block_classify(img: GrayImage, grid, threshold: float, epsilon: float):
    """Reference: the block-by-block loop classify_blocks used to run.

    Returns (anomalies, representative, max deviation of every block in
    row-major order); a strict `<` keeps the earliest of tied minima.
    """
    global_features = np.array(features_of_region(img).as_tuple())
    anomalies, max_devs = [], []
    representative, best = None, None
    for i, j in grid.indices():
        local = np.array(features_of_region(img, grid.rect(i, j)).as_tuple())
        max_dev = float(deviation_matrix(local, global_features, epsilon).max())
        max_devs.append(max_dev)
        if max_dev > threshold:
            anomalies.append((i, j))
        elif best is None or max_dev < best:
            best, representative = max_dev, (i, j)
    return anomalies, representative, max_devs


def naive_column_dmf(img: GrayImage, d_max: int) -> list[float]:
    """Quadruple-loop reference: integer sums, one float division at the end."""
    pix = img.pixels
    h, w = pix.shape
    out = []
    for d in range(1, d_max + 1):
        total = 0
        for i in range(h):
            for j in range(w - d):
                diff = int(pix[i, j + d]) - int(pix[i, j])
                total += diff * diff
        out.append(total / (h * (w - d)))
    return out


def naive_row_dmf(img: GrayImage, d_max: int) -> list[float]:
    pix = img.pixels
    h, w = pix.shape
    out = []
    for d in range(1, d_max + 1):
        total = 0
        for i in range(h - d):
            for j in range(w):
                diff = int(pix[i + d, j]) - int(pix[i, j])
                total += diff * diff
        out.append(total / (w * (h - d)))
    return out


def features_close(actual, expected: dict[str, float], rel=1e-9, abs_=1e-9) -> bool:
    """Per-feature closeness: relative 1e-9, absolute escape hatch at zero."""
    got = actual.to_dict() if hasattr(actual, "to_dict") else actual
    return all(
        math.isclose(got[name], expected[name], rel_tol=rel, abs_tol=abs_)
        for name in expected
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
