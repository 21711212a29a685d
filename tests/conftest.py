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
from texelkit import GrayImage


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


def peak_bytes(fn, *args, **kwargs) -> tuple[object, int]:
    """fn(*args, **kwargs) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
