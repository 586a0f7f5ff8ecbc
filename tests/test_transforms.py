import math

import numpy as np
import pytest

from qhsl import (
    AncillaBudgetError,
    ChromaState,
    Circuit,
    LightnessCode,
    QhslImage,
    RegionConstraint,
    StateVector,
    comparator_region_circuit,
    decode_chroma,
    encode_chroma,
    HslColor,
    hue_shift,
    hue_shift_circuit,
    interval_control_patterns,
    invert_color,
    invert_color_circuit,
    leq_control_patterns,
    lightness_add,
    lightness_add_circuit,
    lightness_sub,
    lightness_sub_circuit,
    retrieve_image,
    run_circuit,
    saturation_shift,
    saturation_shift_circuit,
    simulate_preparation,
    structured_state,
)
from qhsl.transforms import _fold_theta
from conftest import random_color_image, random_image

TAU = 2.0 * math.pi


def embed(state: StateVector, num_qubits: int) -> StateVector:
    """Pad a state with |0> workspace qubits above its register."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[: state.amplitudes.size] = state.amplitudes
    return StateVector(num_qubits, amps)


def assert_circuit_realizes(img: QhslImage, circuit: Circuit, expected: QhslImage,
                            tol: float = 1e-10) -> None:
    """Dense run of `circuit` must equal the expected image state with all
    workspace qubits back at |0>."""
    out = run_circuit(embed(simulate_preparation(img), circuit.num_qubits), circuit)
    want = structured_state(expected).to_statevector()
    base = img.layout.total_qubits
    got = out.amplitudes.reshape(-1, 2 ** base)
    assert np.abs(got[0] - want.amplitudes).max() < tol
    if got.shape[0] > 1:
        assert np.abs(got[1:]).max() < tol


# ---------------------------------------------------------------------------
# Region constraints


def test_region_requires_a_predicate():
    with pytest.raises(ValueError):
        RegionConstraint()
    with pytest.raises(ValueError):
        RegionConstraint(lightness=(3, 1))
    with pytest.raises(ValueError):
        RegionConstraint(y_range=(-1, 2))


def test_region_matching():
    region = RegionConstraint(lightness=(2, 5), y_range=(1, 1))
    assert region.matches(1, 0, 3)
    assert not region.matches(0, 0, 3)
    assert not region.matches(1, 0, 6)
    assert RegionConstraint.lightness_leq(4).matches(0, 0, 4)
    assert not RegionConstraint.lightness_leq(4).matches(0, 0, 5)
    assert RegionConstraint.lightness_geq(4, 3).matches(0, 0, 7)
    assert RegionConstraint.lightness_between(2, 3).lightness == (2, 3)


# ---------------------------------------------------------------------------
# Hue shift


def test_hue_shift_moves_decoded_hue(rng):
    img = random_color_image(rng, 1, 2)
    shifted = hue_shift(img, TAU / 3)
    for (_, _, before, _), (_, _, after, _) in zip(img.enumerate_pixels(),
                                                   shifted.enumerate_pixels()):
        want = (decode_chroma(before).hue + 120.0) % 360.0
        assert decode_chroma(after).hue == pytest.approx(want, abs=1e-9)


def test_hue_shift_half_turn_involution_bit_exact(rng):
    img = random_image(rng, 1, 3)
    twice = hue_shift(hue_shift(img, math.pi), math.pi)
    assert twice == img


def test_hue_shift_zero_is_identity(rng):
    img = random_image(rng, 1, 2)
    assert hue_shift(img, 0.0) == img


def test_hue_shift_composes_additively(rng):
    img = random_image(rng, 1, 2)
    a, b = 1.2345, 2.3456
    once = hue_shift(img, a + b)
    chained = hue_shift(hue_shift(img, a), b)
    for (_, _, ca, _), (_, _, cb, _) in zip(once.enumerate_pixels(), chained.enumerate_pixels()):
        assert ca.phi == pytest.approx(cb.phi, abs=1e-12)
        assert ca.theta == cb.theta


def test_hue_shift_region_only_touches_selected(rng):
    img = random_image(rng, 1, 3)
    region = RegionConstraint.lightness_leq(3)
    shifted = hue_shift(img, 1.0, region)
    for (y, x, before, code), (_, _, after, _) in zip(img.enumerate_pixels(),
                                                      shifted.enumerate_pixels()):
        if code.bits <= 3:
            assert after.phi != before.phi or before.theta == 0.0
        else:
            assert (after.theta, after.phi) == (before.theta, before.phi)


# ---------------------------------------------------------------------------
# Saturation shift


def test_fold_theta_cases():
    assert _fold_theta(1.0) == (1.0, False)
    t, flip = _fold_theta(math.pi + 0.5)
    assert t == pytest.approx(math.pi - 0.5) and flip
    t, flip = _fold_theta(-0.25)
    assert t == pytest.approx(0.25) and flip
    t, flip = _fold_theta(TAU + 0.75)
    assert t == pytest.approx(0.75) and not flip


def test_saturation_endpoints_exact():
    grey = encode_chroma(HslColor(40.0, 0.0, 0.5))
    img = QhslImage(0, 2, ((grey, LightnessCode(2, 1)),))
    up = saturation_shift(img, math.pi / 3)
    assert decode_chroma(up.chroma(0, 0)).saturation == 1.0
    vivid = encode_chroma(HslColor(40.0, 1.0, 0.5))
    img = QhslImage(0, 2, ((vivid, LightnessCode(2, 1)),))
    down = saturation_shift(img, -math.pi / 3)
    assert decode_chroma(down.chroma(0, 0)).saturation == 0.0


def test_saturation_shift_zero_is_identity(rng):
    img = random_image(rng, 1, 2)
    assert saturation_shift(img, 0.0) == img


def test_saturation_reflection_flips_phase():
    img = QhslImage(0, 0, ((ChromaState(2.9, 1.0), LightnessCode(0, 0)),))
    out = saturation_shift(img, 0.5)
    chroma = out.chroma(0, 0)
    assert chroma.theta == pytest.approx(TAU - 3.4, abs=1e-12)
    assert chroma.phi == pytest.approx(1.0 + math.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# Lightness arithmetic (pixel form)


def test_lightness_add_saturates(rng):
    img = random_image(rng, 1, 8)
    out = lightness_add(img, 100)
    for (_, _, _, before), (_, _, _, after) in zip(img.enumerate_pixels(),
                                                   out.enumerate_pixels()):
        assert after.bits == min(before.bits + 100, 255)


def test_lightness_sub_saturates(rng):
    img = random_image(rng, 1, 8)
    out = lightness_sub(img, 100)
    for (_, _, _, before), (_, _, _, after) in zip(img.enumerate_pixels(),
                                                   out.enumerate_pixels()):
        assert after.bits == max(before.bits - 100, 0)


def test_lightness_bounds_checked(rng):
    img = random_image(rng, 0, 3)
    with pytest.raises(ValueError):
        lightness_add(img, 8)
    with pytest.raises(ValueError):
        lightness_add(img, -1)
    assert lightness_add(img, 0) == img
    assert lightness_sub(img, 0) == img


def test_lightness_region_preserves_rest(rng):
    img = random_image(rng, 1, 4)
    region = RegionConstraint(y_range=(0, 0))
    out = lightness_add(img, 5, region)
    for (y, _, chroma, before), (_, _, chroma2, after) in zip(img.enumerate_pixels(),
                                                              out.enumerate_pixels()):
        assert chroma2 == chroma
        if y == 0:
            assert after.bits == min(before.bits + 5, 15)
        else:
            assert after == before


# ---------------------------------------------------------------------------
# Inverse color


def test_invert_is_involution(rng):
    img = random_image(rng, 1, 3)
    assert invert_color(invert_color(img)) == img


def test_invert_green_example():
    img = QhslImage(0, 8, ((encode_chroma(HslColor(120.0, 1.0, 0.5)), LightnessCode(8, 127)),))
    out = invert_color(img)
    assert out.code(0, 0).bits == 128
    assert decode_chroma(out.chroma(0, 0)).hue == pytest.approx(300.0, abs=1e-9)


def test_invert_black_to_white():
    img = QhslImage(0, 8, ((encode_chroma(HslColor(0.0, 0.0, 0.0)), LightnessCode(8, 0)),))
    out = invert_color(img)
    assert out.code(0, 0).bits == 255
    assert decode_chroma(out.chroma(0, 0)).saturation == 0.0


# ---------------------------------------------------------------------------
# Threshold pattern synthesis


def pattern_matches(patterns, width):
    found = []
    for value in range(2 ** width):
        hits = [p for p in patterns if p.matches(value)]
        if hits:
            assert len(hits) == 1, f"value {value} matched {len(hits)} patterns"
            found.append(value)
    return found


def test_leq_patterns_example_37():
    patterns = leq_control_patterns(37, 8)
    assert len(patterns) == bin(37).count("1") + 1
    as_sets = {tuple(sorted(p.terms)) for p in patterns}
    assert tuple((i, (37 >> i) & 1) for i in range(8)) in as_sets  # equality pattern
    # 000xxxxx: the bit-5 branch fixes bits 7..5 to 0 and frees the rest
    assert tuple((i, 0) for i in range(5, 8)) in as_sets
    assert pattern_matches(patterns, 8) == list(range(38))


def test_leq_patterns_edges():
    zero = leq_control_patterns(0, 3)
    assert len(zero) == 1
    assert sorted(zero[0].terms) == [(0, 0), (1, 0), (2, 0)]
    full = leq_control_patterns(7, 3)
    assert len(full) == bin(7).count("1") + 1
    assert pattern_matches(full, 3) == list(range(8))


def test_leq_patterns_validation():
    with pytest.raises(ValueError):
        leq_control_patterns(8, 3)
    with pytest.raises(ValueError):
        leq_control_patterns(-1, 3)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_leq_patterns_exhaustive(width):
    for xi in range(2 ** width):
        patterns = leq_control_patterns(xi, width)
        assert len(patterns) == bin(xi).count("1") + 1
        assert pattern_matches(patterns, width) == list(range(xi + 1))


def test_interval_patterns_example():
    patterns = interval_control_patterns(194, 241, 8)
    assert pattern_matches(patterns, 8) == list(range(194, 242))


def test_interval_patterns_full_range_is_unconditional():
    patterns = interval_control_patterns(0, 255, 8)
    assert len(patterns) == 1
    assert patterns[0].terms == ()


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_interval_patterns_exhaustive(width):
    top = 2 ** width
    for lo in range(top):
        for hi in range(lo, top):
            patterns = interval_control_patterns(lo, hi, width)
            assert pattern_matches(patterns, width) == list(range(lo, hi + 1))


def test_interval_patterns_validation():
    with pytest.raises(ValueError):
        interval_control_patterns(3, 2, 4)
    with pytest.raises(ValueError):
        interval_control_patterns(0, 16, 4)


# ---------------------------------------------------------------------------
# Circuit forms against the pixel forms


def test_hue_shift_circuit_matches_pixel_form(rng):
    img = random_image(rng, 1, 2)
    circ = hue_shift_circuit(img.layout, 2.2)
    assert_circuit_realizes(img, circ, hue_shift(img, 2.2))


def test_hue_shift_circuit_with_region(rng):
    img = random_image(rng, 1, 2)
    region = RegionConstraint(lightness=(1, 2), x_range=(1, 1))
    circ = hue_shift_circuit(img.layout, -0.7, region)
    assert_circuit_realizes(img, circ, hue_shift(img, -0.7, region))


def test_saturation_circuit_matches_pixel_form(rng):
    img = random_color_image(rng, 1, 2)
    for dtheta in (0.3, -0.3):
        circ = saturation_shift_circuit(img, dtheta)
        assert_circuit_realizes(img, circ, saturation_shift(img, dtheta))


def test_saturation_circuit_with_region(rng):
    img = random_color_image(rng, 1, 3)
    region = RegionConstraint.lightness_geq(4, 3)
    circ = saturation_shift_circuit(img, 0.2, region)
    assert_circuit_realizes(img, circ, saturation_shift(img, 0.2, region))


def test_saturation_circuit_reflection_matches_statistics():
    # Crossing a pole leaves a -1 branch phase relative to the pixel form,
    # so compare what measurements can see rather than raw amplitudes.
    img = QhslImage(0, 1, ((ChromaState(2.8, 1.0), LightnessCode(1, 1)),))
    circ = saturation_shift_circuit(img, 0.5)
    state = run_circuit(simulate_preparation(img), circ)
    got = retrieve_image(state, layout=img.layout).pixel(0, 0)
    want = retrieve_image(saturation_shift(img, 0.5)).pixel(0, 0)
    assert got.theta == pytest.approx(want.theta, abs=1e-10)
    assert got.phi == pytest.approx(want.phi, abs=1e-10)


def test_invert_circuit_matches_pixel_form(rng):
    img = random_image(rng, 1, 2)
    circ = invert_color_circuit(img.layout)
    assert_circuit_realizes(img, circ, invert_color(img))


def test_lightness_add_circuit_matches_pixel_form(rng):
    img = random_image(rng, 1, 2)
    circ = lightness_add_circuit(img.layout, 2)
    assert_circuit_realizes(img, circ, lightness_add(img, 2))


def test_lightness_sub_circuit_matches_pixel_form(rng):
    img = random_image(rng, 1, 2)
    circ = lightness_sub_circuit(img.layout, 3)
    assert_circuit_realizes(img, circ, lightness_sub(img, 3))


def test_lightness_circuit_zero_or_no_register(rng):
    img = random_image(rng, 1, 0)
    assert lightness_add_circuit(img.layout, 0).instructions == ()
    with pytest.raises(ValueError):
        lightness_add_circuit(random_image(rng, 0, 2).layout, 4)


# ---------------------------------------------------------------------------
# Comparator-gated regions


def test_comparator_region_matches_pattern_route(rng):
    img = random_image(rng, 1, 2)
    region = RegionConstraint(lightness=(1, 2))
    body = hue_shift_circuit(img.layout, 1.5)
    circ = comparator_region_circuit(img.layout, region, body)
    assert_circuit_realizes(img, circ, hue_shift(img, 1.5, region))


def test_comparator_region_combined_predicates(rng):
    img = random_image(rng, 1, 2)
    region = RegionConstraint(lightness=(1, 3), y_range=(1, 1))
    body = hue_shift_circuit(img.layout, 0.9)
    circ = comparator_region_circuit(img.layout, region, body)
    assert_circuit_realizes(img, circ, hue_shift(img, 0.9, region))


def test_comparator_region_full_interval_unconditional(rng):
    img = random_image(rng, 1, 2)
    region = RegionConstraint(lightness=(0, 3))
    body = hue_shift_circuit(img.layout, 0.4)
    circ = comparator_region_circuit(img.layout, region, body)
    assert circ.num_qubits == img.layout.total_qubits
    assert_circuit_realizes(img, circ, hue_shift(img, 0.4))


def test_comparator_region_budget(rng):
    img = random_image(rng, 1, 8)
    region = RegionConstraint(lightness=(194, 241))
    body = hue_shift_circuit(img.layout, 1.0)
    with pytest.raises(AncillaBudgetError):
        comparator_region_circuit(img.layout, region, body, qubit_budget=20)


def test_comparator_region_interval_membership():
    # Classical check on the flag logic: run the compute stage on each
    # lightness value and confirm the pattern route selects the same set.
    from qhsl.sim import run_on_basis_array
    from qhsl import Gate, Instruction, ControlPattern

    layout = QhslImage(0, 8, ((ChromaState(1.0, 0.0), LightnessCode(8, 0)),)).layout
    region = RegionConstraint(lightness=(194, 241))
    marker_bit = layout.total_qubits
    body = Circuit(marker_bit + 1, (Instruction(Gate.x(), marker_bit),))
    circ = comparator_region_circuit(layout, region, body)
    basis = np.arange(256, dtype=np.int64) << list(layout.lightness_qubits)[0]
    out = run_on_basis_array(circ, basis)
    selected = [int(v) for v in range(256) if (out[v] >> marker_bit) & 1]
    assert selected == list(range(194, 242))
    # lightness preserved, workspace and flags all restored
    mask = (1 << marker_bit) - 1
    assert np.array_equal(out & mask, basis & mask)
    assert np.array_equal(out >> (marker_bit + 1), np.zeros_like(out))


def comparator_region_by_joins(layout, region, body):
    """The original comparator_region_circuit, assembled by Circuit joins."""
    from qhsl import ControlPattern, comparator, load_constant

    free = max(body.num_qubits, layout.total_qubits)
    computes, controls = [], []
    for bounds, register, width in (
        (region.lightness, list(layout.lightness_qubits), layout.q),
        (region.y_range, list(layout.y_qubits), layout.n),
        (region.x_range, list(layout.x_qubits), layout.n),
    ):
        if bounds is None:
            continue
        lo, hi = bounds
        for bound, active, select_not_greater in ((lo, lo > 0, False), (hi, hi < 2 ** width - 1, True)):
            if not active:
                continue
            const = list(range(free, free + width))
            greater_flag, less_flag = free + width, free + width + 1
            work = list(range(free + width + 2, free + 2 * width + 2))
            free += 2 * width + 2
            computes.append(load_constant(bound, const, free) +
                            comparator(width, register, const, greater_flag, less_flag, work, free))
            controls.append((greater_flag, 0) if select_not_greater else (less_flag, 0))
    circuit = Circuit(free)
    for compute in computes:
        circuit = circuit + compute.shifted(0, free)
    circuit = circuit + body.shifted(0, free).controlled(ControlPattern(tuple(controls)))
    for compute in reversed(computes):
        circuit = circuit + compute.shifted(0, free).inverse()
    return circuit


@pytest.mark.parametrize("region", [
    RegionConstraint(lightness=(1, 2)),
    RegionConstraint(lightness=(0, 5)),
    RegionConstraint(lightness=(3, 7)),
    RegionConstraint(lightness=(0, 7)),
    RegionConstraint(lightness=(2, 6), y_range=(1, 2), x_range=(0, 1)),
    RegionConstraint(x_range=(3, 3)),
])
def test_comparator_region_matches_joined_assembly(region, rng):
    img = random_image(rng, 2, 3)
    body = saturation_shift_circuit(img, 0.3)
    assert comparator_region_circuit(img.layout, region, body) == \
        comparator_region_by_joins(img.layout, region, body)


# ---------------------------------------------------------------------------
# Masked array forms against a per-pixel reference


def by_pixels(img, region, fn):
    """Apply ``fn(chroma, code) -> (chroma, code)`` pixel by pixel where selected."""
    pixels = [fn(chroma, code) if region is None or region.matches(y, x, code.bits)
              else (chroma, code)
              for y, x, chroma, code in img.enumerate_pixels()]
    return QhslImage(img.n, img.q, pixels, img.table_source)


def fold_by_pixel(chroma, dtheta):
    from qhsl import add_phase

    t = math.fmod(chroma.theta + dtheta, TAU)
    flip = t < 0.0
    t = -t if flip else t
    if t > math.pi:
        t, flip = TAU - t, not flip
    return ChromaState(t, add_phase(chroma.phi, math.pi) if flip else chroma.phi)


REGIONS = [None, RegionConstraint(lightness=(3, 11)), RegionConstraint(y_range=(1, 2)),
           RegionConstraint(lightness=(0, 7), y_range=(0, 2), x_range=(1, 3))]


@pytest.mark.parametrize("region", REGIONS)
def test_pixel_forms_match_per_pixel_reference(rng, region):
    import dataclasses
    from qhsl import add_phase

    img = random_image(rng, 2, 4)
    top = 15
    cases = [
        (hue_shift(img, 2.5, region),
         lambda c, l: (ChromaState(c.theta, add_phase(c.phi, 2.5)), l)),
        (hue_shift(img, -40.0, region),
         lambda c, l: (ChromaState(c.theta, add_phase(c.phi, -40.0)), l)),
        (saturation_shift(img, 1.3, region), lambda c, l: (fold_by_pixel(c, 1.3), l)),
        (saturation_shift(img, -2.9, region), lambda c, l: (fold_by_pixel(c, -2.9), l)),
        (saturation_shift(img, 7.5, region), lambda c, l: (fold_by_pixel(c, 7.5), l)),
        (lightness_add(img, 6, region),
         lambda c, l: (c, dataclasses.replace(l, bits=min(l.bits + 6, top)))),
        (lightness_sub(img, 6, region),
         lambda c, l: (c, dataclasses.replace(l, bits=max(l.bits - 6, 0)))),
    ]
    for got, fn in cases:
        assert got == by_pixels(img, region, fn)
    if region is None:
        assert invert_color(img) == by_pixels(img, None, lambda c, l: (
            ChromaState(c.theta, add_phase(c.phi, math.pi)),
            dataclasses.replace(l, bits=top - l.bits)))


def test_region_mask_matches_per_pixel_matches(rng):
    img = random_image(rng, 2, 4)
    for region in REGIONS[1:]:
        want = [bool(region.matches(y, x, code.bits)) for y, x, _, code in img.enumerate_pixels()]
        assert region.mask(img).tolist() == want
