import colorsys
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhsl import (
    MANUAL,
    PHASE_STEP,
    ChromaState,
    ConfigurationError,
    HslColor,
    LightnessCode,
    RgbColor,
    add_phase,
    canonical_phase,
    decode_chroma,
    encode_chroma,
    hsl_to_rgb,
    lightness_to_fraction,
    quantize_lightness,
    rgb_to_hsl,
    validate_table,
)
from qhsl.color import FULL_TURN_STEPS, HALF_TURN_STEPS, hsl_array_to_rgb, rgb_array_to_hsl

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# RGB <-> HSL


def test_rgb_to_hsl_olive_green():
    hsl = rgb_to_hsl(RgbColor(110, 155, 50))
    assert hsl.hue == pytest.approx(85.7, abs=0.05)
    assert hsl.saturation == pytest.approx(0.512, abs=0.001)
    assert hsl.lightness == pytest.approx(0.402, abs=0.001)


def test_rgb_to_hsl_extremes():
    black = rgb_to_hsl(RgbColor(0, 0, 0))
    assert (black.hue, black.saturation, black.lightness) == (0.0, 0.0, 0.0)
    white = rgb_to_hsl(RgbColor(255, 255, 255))
    assert (white.hue, white.saturation) == (0.0, 0.0)
    assert white.lightness == 1.0
    gray = rgb_to_hsl(RgbColor(128, 128, 128))
    assert gray.saturation == 0.0


def test_rgb_to_hsl_against_colorsys(rng):
    for _ in range(500):
        r, g, b = (int(v) for v in rng.integers(0, 256, size=3))
        hsl = rgb_to_hsl(RgbColor(r, g, b))
        h, l, s = colorsys.rgb_to_hls(r / 255.0, g / 255.0, b / 255.0)
        assert hsl.hue == pytest.approx((h * 360.0) % 360.0, abs=1e-9)
        assert hsl.saturation == pytest.approx(s, abs=1e-9)
        assert hsl.lightness == pytest.approx(l, abs=1e-9)


def test_rgb_hsl_round_trip_channel_stable(rng):
    flat = rng.integers(0, 256, size=(1000, 1000, 3), dtype=np.uint8)
    back = hsl_array_to_rgb(rgb_array_to_hsl(flat))
    assert np.abs(back.astype(np.int16) - flat.astype(np.int16)).max() <= 1


def test_hsl_to_rgb_primaries():
    assert hsl_to_rgb(HslColor(0.0, 1.0, 0.5)) == RgbColor(255, 0, 0)
    assert hsl_to_rgb(HslColor(120.0, 1.0, 0.5)) == RgbColor(0, 255, 0)
    assert hsl_to_rgb(HslColor(240.0, 1.0, 0.5)) == RgbColor(0, 0, 255)


# ---------------------------------------------------------------------------
# Chromaticity encoding


def test_encode_pure_green():
    chroma = encode_chroma(HslColor(120.0, 1.0, 0.5))
    assert chroma.phi == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert chroma.theta == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_encode_desaturated():
    chroma = encode_chroma(HslColor(0.0, 0.0, 0.3))
    assert chroma.phi == 0.0
    assert chroma.theta == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_encode_half_saturated_blue():
    chroma = encode_chroma(HslColor(240.0, 0.5, 0.5))
    assert chroma.phi == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    assert chroma.theta == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_decode_pure_green():
    hue, sat, undefined = decode_chroma(ChromaState(2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0))
    assert not undefined
    assert hue == pytest.approx(120.0, abs=1e-9)
    assert sat == 1.0


def test_decode_clamps_outside_band():
    _, sat, _ = decode_chroma(ChromaState(math.pi / 6.0, 0.0))
    assert sat == 0.0
    hue, sat, undefined = decode_chroma(ChromaState(0.9 * math.pi, math.pi))
    assert sat == 1.0
    assert hue == pytest.approx(180.0, abs=1e-9)
    assert not undefined


def test_decode_poles_hue_undefined():
    for theta in (0.0, math.pi):
        hue, _, undefined = decode_chroma(ChromaState(theta, 1.2345))
        assert undefined
        assert hue == 0.0


@given(hue=st.floats(0.0, 360.0, exclude_max=True), sat=st.floats(0.0, 1.0))
def test_encode_decode_identity(hue, sat):
    got_hue, got_sat, undefined = decode_chroma(encode_chroma(HslColor(hue, sat, 0.5)))
    assert not undefined
    wrapped = abs(got_hue - hue) % 360.0
    assert min(wrapped, 360.0 - wrapped) < 1e-9
    # decode snaps saturation within 1e-9 of an endpoint onto the endpoint
    assert math.isclose(got_sat, sat, abs_tol=2e-9)


@given(st.floats(math.pi / 3.0, 2.0 * math.pi / 3.0))
def test_decode_saturation_monotone_in_theta(theta):
    lo = decode_chroma(ChromaState(max(theta - 1e-3, math.pi / 3.0), 0.0)).saturation
    hi = decode_chroma(ChromaState(min(theta + 1e-3, 2.0 * math.pi / 3.0), 0.0)).saturation
    assert lo <= hi


# ---------------------------------------------------------------------------
# Lightness codes


def test_lightness_fraction_average():
    assert lightness_to_fraction(LightnessCode(8, 127)) == pytest.approx(127.0 / 255.0)
    assert lightness_to_fraction(LightnessCode(2, 3)) == 1.0
    assert lightness_to_fraction(LightnessCode(8, 194)) == pytest.approx(0.7608, abs=1e-4)
    assert lightness_to_fraction(LightnessCode(0, 0)) == 0.5


def test_quantize_average():
    assert quantize_lightness(0.5, 8).bits == 127
    assert quantize_lightness(0.0, 8).bits == 0
    assert quantize_lightness(1.0, 8).bits == 255
    assert quantize_lightness(0.945, 8).bits == 241


def test_quantize_round_half_down():
    # 0.5 * 255 = 127.5 sits exactly between codes and must go down.
    assert quantize_lightness(0.5, 8).bits == 127
    assert quantize_lightness(0.5, 2).bits == 1


@given(st.floats(0.0, 1.0), st.integers(1, 12))
def test_quantize_error_bound(fraction, q):
    code = quantize_lightness(fraction, q)
    top = 2 ** q - 1
    assert abs(code.bits / top - fraction) <= 0.5 / top + 1e-12


def test_average_mapping_strictly_increasing():
    values = [lightness_to_fraction(LightnessCode(4, b)) for b in range(16)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and values[-1] == 1.0


def test_manual_mapping_lookup_and_nearest():
    table = (0.0, 0.25, 0.7, 1.0)
    code = LightnessCode(2, 2, mapping=MANUAL, table=table)
    assert lightness_to_fraction(code) == 0.7
    assert quantize_lightness(0.69, 2, mapping=MANUAL, table=table).bits == 2
    # 0.5 is exactly between entries 1 (0.25) and 2 (0.75): lower index wins.
    tie = (0.0, 0.25, 0.75, 1.0)
    assert quantize_lightness(0.5, 2, mapping=MANUAL, table=tie).bits == 1


def test_validate_table_errors():
    with pytest.raises(ConfigurationError):
        validate_table((0.0, 0.5), 2)  # wrong length
    with pytest.raises(ConfigurationError):
        validate_table((0.0, 0.5, 0.4, 1.0), 2)  # not nondecreasing
    with pytest.raises(ConfigurationError):
        validate_table((0.0, 0.5, 0.9, 1.5), 2)  # out of range
    validate_table((0.0, 0.5, 0.5, 1.0), 2)


def test_lightness_code_validation():
    with pytest.raises(ValueError):
        LightnessCode(2, 4)
    with pytest.raises(ValueError):
        LightnessCode(-1, 0)
    with pytest.raises(ValueError):
        LightnessCode(2, 1, mapping="other")
    with pytest.raises(ValueError):
        LightnessCode(2, 1, table=(0.0, 0.3, 0.6, 1.0))  # table without manual
    # A manual code may exist before its table is attached, but using it fails.
    bare = LightnessCode(2, 1, mapping=MANUAL)
    with pytest.raises(ConfigurationError):
        lightness_to_fraction(bare)


# ---------------------------------------------------------------------------
# Phase grid


def test_phase_grid_constants():
    assert PHASE_STEP == 2.0 ** -48
    assert HALF_TURN_STEPS * PHASE_STEP == pytest.approx(math.pi, rel=1e-15)
    assert FULL_TURN_STEPS == 2 * HALF_TURN_STEPS


def test_canonical_phase_wraps():
    assert canonical_phase(0.0) == 0.0
    assert canonical_phase(TAU) == 0.0
    assert canonical_phase(-math.pi) == pytest.approx(math.pi)
    assert 0.0 <= canonical_phase(123.456) < TAU


def test_add_phase_half_turn_involution(rng):
    for _ in range(200):
        phi = canonical_phase(float(rng.uniform(0.0, TAU)))
        assert add_phase(add_phase(phi, math.pi), math.pi) == phi


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_add_phase_commutes_and_stays_canonical(a, b):
    s1 = add_phase(canonical_phase(a), b)
    s2 = add_phase(canonical_phase(b), a)
    assert s1 == s2
    assert 0.0 <= s1 < TAU


def test_chroma_state_canonicalizes_phi():
    state = ChromaState(1.0, TAU + 0.25)
    assert 0.0 <= state.phi < TAU
    assert state.phi == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        ChromaState(-0.1, 0.0)
    with pytest.raises(ValueError):
        ChromaState(math.pi + 1e-6, 0.0)


def test_chroma_amplitudes():
    amp0, amp1 = ChromaState(2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0).amplitudes()
    assert amp0 == pytest.approx(0.5, abs=1e-15)
    expected = (math.sqrt(3) / 2.0) * complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert amp1 == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Manual quantization by binary search


def linear_scan_code(table, fraction):
    return min(range(len(table)), key=lambda i: (abs(table[i] - fraction), i))


def test_manual_quantization_takes_lowest_index_among_equal_distances():
    # 0.9 - 2**-60 rounds to 0.9, so every entry is at the same distance
    assert quantize_lightness(0.9, 2, MANUAL, [0.0, 2 ** -60, 2 ** -59, 2 ** -58]).bits == 0
    assert quantize_lightness(0.5, 2, MANUAL, [0.0, 0.5, 0.5, 1.0]).bits == 1
    assert quantize_lightness(0.25, 2, MANUAL, [0.0, 0.5, 0.5, 1.0]).bits == 0
    assert quantize_lightness(1.0, 2, MANUAL, [0.0, 0.1, 0.1, 0.1]).bits == 1


def test_manual_quantization_matches_linear_scan(rng):
    pool = [0.0, 1e-300, 2 ** -60, 2 ** -59, 0.25, 0.5, 0.5 + 2 ** -53, 0.75, 1.0 - 2 ** -53, 1.0]
    for _ in range(40):
        q = int(rng.integers(0, 5))
        table = np.sort(rng.choice(pool + list(rng.random(4)), size=2 ** q)).tolist()
        fractions = table + [0.0, 1.0, 0.9] + list(rng.random(8))
        fractions += [0.5 * (a + b) for a, b in zip(table, table[1:])]
        for f in fractions:
            assert quantize_lightness(f, q, MANUAL, table).bits == linear_scan_code(table, f)


def test_manual_encode_matches_per_pixel_quantization(rng):
    from qhsl import image_from_rgb_array

    q = 3
    table = [0.0, 2 / 255, 2 / 255, 10 / 255, 0.3, 0.5, 0.5, 1.0]
    rgb = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    rgb[0, :, :] = np.arange(8, dtype=np.uint8)[:, None]  # gray levels at the tie points
    img = image_from_rgb_array(rgb, 3, q, MANUAL, table)
    light = rgb_array_to_hsl(rgb)[..., 2].ravel()
    assert img.codes.tolist() == [linear_scan_code(table, float(f)) for f in light]


def test_decode_chroma_arrays_match_scalar_decode(rng):
    from qhsl.color import decode_chroma_arrays

    theta = np.concatenate([rng.uniform(0.0, math.pi, 200),
                            [0.0, math.pi, math.pi / 3, 2 * math.pi / 3, 1e-13]])
    phi = np.array([canonical_phase(p) for p in rng.uniform(0.0, TAU, theta.size)])
    hue, sat, undefined = decode_chroma_arrays(theta, phi)
    for i in range(theta.size):
        want = decode_chroma(ChromaState(float(theta[i]), float(phi[i])))
        assert (hue[i], sat[i], undefined[i]) == (want.hue, want.saturation, want.hue_undefined)
