import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhsl import (
    ChromaState,
    ConfigurationError,
    LightnessCode,
    PseudocolorMap,
    QhslImage,
    decode_chroma,
    encode_chroma,
    HslColor,
    interval_rotation_angles,
    pseudocolor,
    pseudocolor_circuit,
    quantize_lightness,
    run_circuit,
    simulate_preparation,
    structured_state,
)
from conftest import gray_ramp_image

TAU = 2.0 * math.pi

DENSITY_SLICING_MAP = PseudocolorMap((
    (0, 37, 0.0),
    (38, 96, 60.0),
    (97, 200, 240.0),
    (201, 255, 120.0),
))


@st.composite
def pseudocolor_maps(draw):
    cuts = sorted(draw(st.sets(st.integers(0, 14), min_size=0, max_size=3)))
    bounds = cuts + [15]
    entries = []
    lo = 0
    for hi in bounds:
        if hi < lo:
            continue
        entries.append((lo, hi, draw(st.floats(0.0, 360.0, exclude_max=True))))
        lo = hi + 1
    return PseudocolorMap(tuple(entries))


# ---------------------------------------------------------------------------
# Map validation and angle solving


def test_map_validation_errors():
    with pytest.raises(ConfigurationError):
        PseudocolorMap(())
    with pytest.raises(ConfigurationError):
        PseudocolorMap(((1, 5, 0.0),))  # must start at 0
    with pytest.raises(ConfigurationError):
        PseudocolorMap(((0, 5, 0.0), (7, 9, 10.0)))  # gap
    with pytest.raises(ConfigurationError):
        PseudocolorMap(((0, 5, 0.0), (5, 9, 10.0)))  # overlap
    with pytest.raises(ConfigurationError):
        PseudocolorMap(((0, 5, 360.0),))  # hue out of range
    with pytest.raises(ConfigurationError):
        PseudocolorMap(((0, 5, 0.0), (6, 4, 10.0)))  # empty interval


def test_interval_index():
    assert DENSITY_SLICING_MAP.interval_index(0) == 0
    assert DENSITY_SLICING_MAP.interval_index(37) == 0
    assert DENSITY_SLICING_MAP.interval_index(38) == 1
    assert DENSITY_SLICING_MAP.interval_index(200) == 2
    assert DENSITY_SLICING_MAP.interval_index(255) == 3
    with pytest.raises(ValueError):
        DENSITY_SLICING_MAP.interval_index(256)


def test_density_slicing_angles_exact():
    deltas = interval_rotation_angles(DENSITY_SLICING_MAP)
    expected = (-math.pi / 3, -math.pi, 2 * math.pi / 3, 2 * math.pi / 3)
    assert len(deltas) == 4
    for got, want in zip(deltas, expected):
        assert abs(got - want) <= 1e-12


def test_single_interval_angle():
    pmap = PseudocolorMap(((0, 255, 213.5),))
    (delta,) = interval_rotation_angles(pmap)
    assert delta == pytest.approx(213.5 * math.pi / 180.0, abs=1e-15)


@given(pseudocolor_maps())
def test_suffix_sums_equal_target_hues(pmap):
    deltas = interval_rotation_angles(pmap)
    for j, (_, _, hue) in enumerate(pmap.entries):
        suffix = math.fsum(deltas[j:])
        assert abs(suffix - math.radians(hue)) <= 1e-12


# ---------------------------------------------------------------------------
# Pixel-form pipeline


def test_pseudocolor_requires_matching_coverage(rng):
    img = gray_ramp_image(1, 4)
    with pytest.raises(ConfigurationError):
        pseudocolor(img, DENSITY_SLICING_MAP)


def test_pseudocolor_requires_grayscale():
    img = QhslImage(0, 8, ((encode_chroma(HslColor(10.0, 0.5, 0.5)), LightnessCode(8, 10)),))
    with pytest.raises(ValueError):
        pseudocolor(img, DENSITY_SLICING_MAP)


def test_ramp_pipeline_oracle():
    img = gray_ramp_image(2, 8)  # 16 gray levels spread over 0..255
    out = pseudocolor(img, DENSITY_SLICING_MAP)
    for (y, x, _, before), (_, _, chroma, code) in zip(img.enumerate_pixels(),
                                                       out.enumerate_pixels()):
        hue, sat, undefined = decode_chroma(chroma)
        assert not undefined
        assert sat == 1.0
        assert code.bits == 127
        _, _, want = DENSITY_SLICING_MAP.entries[DENSITY_SLICING_MAP.interval_index(before.bits)]
        assert hue == pytest.approx(want, abs=1e-9)


def test_pseudocolor_mid_code_depends_on_q():
    img = gray_ramp_image(1, 2)
    pmap = PseudocolorMap(((0, 3, 30.0),))
    out = pseudocolor(img, pmap)
    # 0.5 over codes {0..3} sits at 1.5; ties resolve to the lower code.
    assert all(code.bits == 1 for _, _, _, code in out.enumerate_pixels())
    assert quantize_lightness(0.5, 2).bits == 1


# ---------------------------------------------------------------------------
# Circuit form


def expected_state(img, pmap):
    return structured_state(pseudocolor(img, pmap)).to_statevector()


def run_selector(img, pmap, selector):
    circ = pseudocolor_circuit(img, pmap, selector=selector)
    state = simulate_preparation(img)
    amps = np.zeros(2 ** circ.num_qubits, dtype=complex)
    amps[: state.amplitudes.size] = state.amplitudes
    from qhsl import StateVector

    return run_circuit(StateVector(circ.num_qubits, amps), circ), circ


@pytest.mark.parametrize("selector", ["patterns", "comparators"])
def test_circuit_matches_pixel_form(selector):
    img = gray_ramp_image(1, 2)
    pmap = PseudocolorMap(((0, 1, 300.0), (2, 3, 45.0)))
    out, circ = run_selector(img, pmap, selector)
    want = expected_state(img, pmap)
    base = img.layout.total_qubits
    got = out.amplitudes.reshape(-1, 2 ** base)
    assert np.abs(got[0] - want.amplitudes).max() < 1e-10
    if got.shape[0] > 1:
        assert np.abs(got[1:]).max() < 1e-10  # workspace restored


def test_selectors_agree_densely():
    img = gray_ramp_image(1, 2)
    pmap = PseudocolorMap(((0, 0, 10.0), (1, 2, 200.0), (3, 3, 120.0)))
    out_p, _ = run_selector(img, pmap, "patterns")
    out_c, _ = run_selector(img, pmap, "comparators")
    size = min(out_p.amplitudes.size, out_c.amplitudes.size)
    assert np.abs(out_p.amplitudes[:size] - out_c.amplitudes[:size]).max() < 1e-10


def test_circuit_selector_validation():
    img = gray_ramp_image(1, 2)
    pmap = PseudocolorMap(((0, 3, 10.0),))
    with pytest.raises(ValueError):
        pseudocolor_circuit(img, pmap, selector="oracle")


def test_circuit_requires_uniform_grayscale():
    pmap = PseudocolorMap(((0, 1, 10.0),))
    mixed = QhslImage(0, 1, ((ChromaState(math.pi / 3, 1.0), LightnessCode(1, 0)),))
    with pytest.raises(ValueError):
        pseudocolor_circuit(mixed, pmap)  # nonzero phase
    uneven = QhslImage(1, 1, (
        (ChromaState(math.pi / 3, 0.0), LightnessCode(1, 0)),
        (ChromaState(math.pi / 6, 0.0), LightnessCode(1, 0)),
        (ChromaState(math.pi / 3, 0.0), LightnessCode(1, 1)),
        (ChromaState(math.pi / 3, 0.0), LightnessCode(1, 1)),
    ))
    with pytest.raises(ValueError):
        pseudocolor_circuit(uneven, pmap)  # theta spread


def test_circuit_and_pixel_hues_after_retrieval():
    from qhsl import retrieve_image

    img = gray_ramp_image(1, 2)
    pmap = PseudocolorMap(((0, 1, 300.0), (2, 3, 45.0)))
    out, circ = run_selector(img, pmap, "patterns")
    # restrict to the image register (workspace is |0>)
    from qhsl import StateVector

    base = img.layout.total_qubits
    reduced = StateVector(base, out.amplitudes[: 2 ** base])
    report = retrieve_image(reduced, layout=img.layout)
    for y, x, _, before in img.enumerate_pixels():
        pix = report.pixel(y, x)
        _, _, want = pmap.entries[pmap.interval_index(before.bits)]
        assert pix.hue == pytest.approx(want, abs=1e-6)
        assert pix.saturation == 1.0
        assert pix.code == 1


def pseudocolor_by_joins(img, pmap, selector):
    """The original pseudocolor_circuit, assembled by Circuit joins."""
    from qhsl import (SATURATION_HIGH, Circuit, Gate, Instruction, RegionConstraint,
                      comparator_region_circuit, interval_control_patterns, leq_control_patterns)

    layout, cq, offset = img.layout, img.layout.chroma_qubit, 2 * img.n
    deltas = interval_rotation_angles(pmap)
    suffixes = [math.fsum(deltas[j:]) for j in range(len(deltas))]
    dsat = SATURATION_HIGH - img.chroma(0, 0).theta
    mid = quantize_lightness(0.5, img.q, img.mapping, img.table)

    def selected(instrs, region, patterns):
        if selector == "patterns":
            return Circuit(layout.total_qubits, tuple(
                Instruction(g.gate, g.target, p.shifted(offset)) for p in patterns for g in instrs))
        return comparator_region_circuit(layout, region, Circuit(layout.total_qubits, instrs))

    steps = [selected((Instruction(Gate.rz(deltas[i]), cq),), RegionConstraint.lightness_leq(hi),
                      leq_control_patterns(hi, img.q))
             for i, (_, hi, _) in enumerate(pmap.entries)]
    steps += [selected((Instruction(Gate.rz(-suffixes[j]), cq), Instruction(Gate.ry(dsat), cq),
                        Instruction(Gate.rz(suffixes[j]), cq)),
                       RegionConstraint.lightness_between(lo, hi), interval_control_patterns(lo, hi, img.q))
              for j, (lo, hi, _) in enumerate(pmap.entries)]
    steps.append(Circuit(layout.total_qubits, tuple(
        Instruction(Gate.set1() if (mid.bits >> j) & 1 else Gate.set0(), qb)
        for j, qb in enumerate(layout.lightness_qubits))))
    total = max(step.num_qubits for step in steps)
    circuit = Circuit(total)
    for step in steps:
        circuit = circuit + step.shifted(0, total)
    return circuit


@pytest.mark.parametrize("selector", ["patterns", "comparators"])
def test_circuit_matches_joined_assembly(selector):
    img = gray_ramp_image(1, 4)
    for pmap in (PseudocolorMap(((0, 15, 90.0),)),
                 PseudocolorMap(((0, 3, 0.0), (4, 8, 60.0), (9, 12, 240.0), (13, 15, 120.0)))):
        assert pseudocolor_circuit(img, pmap, selector=selector) == \
            pseudocolor_by_joins(img, pmap, selector)


def test_pixel_form_matches_per_pixel_reference():
    import dataclasses
    from qhsl import SATURATION_HIGH, add_phase

    for img in (gray_ramp_image(2, 4), gray_ramp_image(1, 2)):
        top = 2 ** img.q - 1
        pmap = PseudocolorMap(((0, top // 3, 350.0), (top // 3 + 1, top - 1, 12.5),
                               (top, top, 180.0)))
        deltas = interval_rotation_angles(pmap)
        mid = quantize_lightness(0.5, img.q, img.mapping, img.table)
        pixels = []
        for _, _, chroma, code in img.enumerate_pixels():
            j = pmap.interval_index(code.bits)
            phi = add_phase(chroma.phi, math.fsum(deltas[j:]))
            pixels.append((ChromaState(SATURATION_HIGH, phi), dataclasses.replace(code, bits=mid.bits)))
        assert pseudocolor(img, pmap) == QhslImage(img.n, img.q, pixels)
