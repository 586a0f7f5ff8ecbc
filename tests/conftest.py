import math

import numpy as np
import pytest
from hypothesis import settings

from qhsl import ChromaState, LightnessCode, QhslImage, encode_chroma, HslColor, quantize_lightness

settings.register_profile("suite", max_examples=60, deadline=None)
# `pytest --hypothesis-profile=deep` loads this one instead, after this file
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile("suite")


def random_chroma(rng: np.random.Generator) -> ChromaState:
    return ChromaState(theta=float(rng.uniform(0.0, math.pi)),
                       phi=float(rng.uniform(0.0, 2.0 * math.pi)))


def random_image(rng: np.random.Generator, n: int, q: int) -> QhslImage:
    pixels = tuple(
        (random_chroma(rng), LightnessCode(q, int(rng.integers(0, 2 ** q))))
        for _ in range(4 ** n)
    )
    return QhslImage(n, q, pixels)


def random_color_image(rng: np.random.Generator, n: int, q: int) -> QhslImage:
    """Random image whose angles come from actual HSL colors (within the band)."""
    pixels = []
    for _ in range(4 ** n):
        hue = float(rng.uniform(0.0, 360.0))
        sat = float(rng.uniform(0.0, 1.0))
        light = float(rng.uniform(0.0, 1.0))
        pixels.append((encode_chroma(HslColor(hue, sat, light)),
                       quantize_lightness(light, q)))
    return QhslImage(n, q, tuple(pixels))


def gray_ramp_image(n: int, q: int) -> QhslImage:
    """Gray levels 0..4**n-1 scaled over [0, 1] in raster order, S=0."""
    count = 4 ** n
    pixels = []
    for i in range(count):
        light = i / (count - 1) if count > 1 else 0.5
        pixels.append((encode_chroma(HslColor(0.0, 0.0, light)),
                       quantize_lightness(light, q)))
    return QhslImage(n, q, tuple(pixels))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
