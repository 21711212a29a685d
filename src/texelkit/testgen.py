"""Deterministic synthetic texture generation with known ground truth.

Fixtures for validating the analysis pipeline: a texel with a guaranteed
period is tiled a whole number of times, selected blocks are replaced by a
contrasting pattern (the texel shifted up by 60 gray levels, clamped), and
optional uniform noise is added on top.

All randomness comes from numpy's default PCG64 generator seeded through
SeedSequence; a given seed reproduces the same image on any platform.
Texel pixels draw from stream 0 of the seed, noise from stream 1, so the
two never share underlying random draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .image import GrayImage, _sealed

DEFECT_SHIFT = 60

_TEXEL_STREAM = 0
_NOISE_STREAM = 1

_MAX_TEXEL_RETRIES = 64


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


@dataclass(frozen=True)
class GroundTruth:
    """Recipe and answer key for one generated image."""

    texel_h: int
    texel_w: int
    reps_r: int
    reps_c: int
    defect_blocks: list[tuple[int, int]] = field(default_factory=list)
    noise_amplitude: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.texel_h < 1 or self.texel_w < 1 or self.reps_r < 1 or self.reps_c < 1:
            raise ValueError("texel size and repetition counts must be positive")
        if self.noise_amplitude < 0:
            raise ValueError("noise amplitude cannot be negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for i, j in self.defect_blocks:
            if not (0 <= i < self.reps_r and 0 <= j < self.reps_c):
                raise ValueError(
                    f"defect block ({i}, {j}) outside {self.reps_r}x{self.reps_c} grid"
                )

    def to_json(self) -> str:
        return json.dumps(
            {
                "texel_h": self.texel_h,
                "texel_w": self.texel_w,
                "reps_r": self.reps_r,
                "reps_c": self.reps_c,
                "defect_blocks": [list(b) for b in self.defect_blocks],
                "noise_amplitude": self.noise_amplitude,
                "seed": self.seed,
            },
            indent=2,
        )


def has_subperiod(texel: GrayImage) -> bool:
    """True when a proper divisor of either texel dimension is already a
    cyclic period, i.e. tiling the texel would repeat at a smaller interval.
    """
    pix = texel.pixels
    h, w = pix.shape
    for p in range(1, h):
        if h % p == 0 and np.array_equal(pix, np.roll(pix, p, axis=0)):
            return True
    for p in range(1, w):
        if w % p == 0 and np.array_equal(pix, np.roll(pix, p, axis=1)):
            return True
    return False


def random_texel(
    h: int,
    w: int,
    seed: int,
    low: int = 0,
    high: int = 255,
    power: float = 1.0,
) -> GrayImage:
    """Random texel whose tiling period is exactly (h, w).

    Pixels are independent draws from [low, high]; power > 1 bends the
    distribution toward `low` (useful for fixtures that need an asymmetric
    gray-level histogram). Draws with fewer than two distinct values or with
    an exact cyclic sub-period dividing h or w are rejected and redrawn.
    """
    if h < 2 or w < 2:
        raise ValueError(f"texel must be at least 2x2, got {h}x{w}")
    if not 0 <= low < high <= 255:
        raise ValueError(f"need 0 <= low < high <= 255, got [{low}, {high}]")
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    rng = _stream(seed, _TEXEL_STREAM)
    for _ in range(_MAX_TEXEL_RETRIES):
        if power == 1.0:
            pix = rng.integers(low, high + 1, size=(h, w))
        else:
            u = rng.random(size=(h, w)) ** power
            pix = low + np.floor(u * (high - low + 1)).astype(np.int64)
        texel = GrayImage(_sealed(pix))
        if len(np.unique(pix)) >= 2 and not has_subperiod(texel):
            return texel
    raise RuntimeError(
        f"could not draw a {h}x{w} texel without sub-periods after "
        f"{_MAX_TEXEL_RETRIES} attempts (seed {seed})"
    )


def generate(gt: GroundTruth, texel: GrayImage) -> GrayImage:
    """Render the image a GroundTruth describes, from the given texel.

    Tiles texel reps_r x reps_c times, overwrites each defect block with the
    texel shifted DEFECT_SHIFT gray levels up (clamped), then adds uniform
    integer noise in [-amplitude, +amplitude] (clamped) when amplitude > 0.
    Noise comes after defect injection so defects sit on the same noise floor
    as the background.
    """
    if (texel.height, texel.width) != (gt.texel_h, gt.texel_w):
        raise ValueError(
            f"texel is {texel.width}x{texel.height}, ground truth expects "
            f"{gt.texel_w}x{gt.texel_h}"
        )
    img = np.tile(texel.pixels.astype(np.int64), (gt.reps_r, gt.reps_c))
    defect = np.clip(texel.pixels.astype(np.int64) + DEFECT_SHIFT, 0, 255)
    th, tw = gt.texel_h, gt.texel_w
    for i, j in gt.defect_blocks:
        img[i * th : (i + 1) * th, j * tw : (j + 1) * tw] = defect
    if gt.noise_amplitude > 0:
        rng = _stream(gt.seed, _NOISE_STREAM)
        noise = rng.integers(-gt.noise_amplitude, gt.noise_amplitude + 1, size=img.shape)
        img = np.clip(img + noise, 0, 255)
    return GrayImage(_sealed(img))
