"""Shared fixtures and helpers; the reference implementations the tests
compare the library with are in reference.py."""

from __future__ import annotations

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import texelkit
from texelkit import FEATURE_NAMES, GrayImage


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


def anomalies_of(res) -> list[tuple[int, int]]:
    """The (i, j) indices of the blocks a result does not find conforming,
    in row-major order."""
    return [divmod(k, res.grid.n_cols) for k in np.flatnonzero(~res.conforming).tolist()]


def peak_bytes(fn, *args, **kwargs) -> tuple[object, int]:
    """fn(*args, **kwargs) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def named(row: np.ndarray) -> dict[str, float]:
    """A row of six features keyed by FEATURE_NAMES."""
    return dict(zip(FEATURE_NAMES, row.tolist()))


def features_close(actual: np.ndarray, expected: dict[str, float], rel=1e-9, abs_=1e-9) -> bool:
    """Per-feature closeness of a feature row to named expected values:
    relative 1e-9, absolute escape hatch at zero."""
    got = named(actual)
    return all(
        math.isclose(got[name], expected[name], rel_tol=rel, abs_tol=abs_)
        for name in expected
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
