import cmath
import math

import numpy as np
import pytest

from qhsl import (
    ChromaState,
    LightnessCode,
    PixelAddress,
    QhslImage,
    QubitBudgetError,
    RegisterLayout,
    preparation_circuit,
    simulate_preparation,
    structured_state,
)
from conftest import random_image

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Register layout


def test_layout_register_ranges():
    layout = RegisterLayout(n=2, q=3)
    assert list(layout.x_qubits) == [0, 1]
    assert list(layout.y_qubits) == [2, 3]
    assert list(layout.lightness_qubits) == [4, 5, 6]
    assert layout.chroma_qubit == 7
    assert layout.total_qubits == 8
    assert layout.side == 4


def test_layout_basis_index_packing():
    layout = RegisterLayout(n=1, q=2)
    # index = (c << 4) | (L << 2) | (y << 1) | x
    assert layout.basis_index(1, 0, 0b10, 1) == (1 << 4) | (0b10 << 2) | (1 << 1)
    assert layout.split_index((1 << 4) | (0b10 << 2) | 0b11) == (1, 1, 0b10, 1)


def test_layout_index_round_trip():
    layout = RegisterLayout(n=2, q=3)
    for index in range(2 ** layout.total_qubits):
        y, x, lightness, chroma = layout.split_index(index)
        assert layout.basis_index(y, x, lightness, chroma) == index


def test_pixel_pattern_covers_both_axes():
    layout = RegisterLayout(n=2, q=0)
    pattern = layout.pixel_pattern(PixelAddress(y=2, x=1))
    assert dict(pattern.terms) == {0: 1, 1: 0, 2: 0, 3: 1}


def test_image_validation():
    chroma = ChromaState(math.pi / 2, 0.0)
    code = LightnessCode(2, 1)
    with pytest.raises(ValueError):
        QhslImage(1, 2, ((chroma, code),) * 3)  # wrong pixel count
    with pytest.raises(ValueError):
        QhslImage(1, 2, ((chroma, LightnessCode(3, 1)),) * 4)  # q mismatch
    with pytest.raises(ValueError):
        QhslImage(-1, 2, ((chroma, code),))


def test_lightness_registers_above_62_qubits_are_refused():
    # at q=62 a code plus a shift below 2**q still fits in int64
    assert QhslImage.from_arrays(0, 62, [1.0], [0], [2 ** 62 - 1]).codes.tolist() == [2 ** 62 - 1]
    with pytest.raises(ValueError, match=r"^q=63 exceeds the limit of 62 lightness qubits$"):
        QhslImage.from_arrays(0, 63, [1.0], [0], [0])
    with pytest.raises(ValueError, match="q=100"):
        QhslImage(0, 100, ((ChromaState(1.0, 0.0), LightnessCode(100, 0)),))


# ---------------------------------------------------------------------------
# Structured amplitudes


def test_single_pixel_amplitudes():
    # One pixel (n=0) with theta = phi = 2*pi/3 and lightness code 11.
    img = QhslImage(0, 2, ((ChromaState(TAU / 3, TAU / 3), LightnessCode(2, 3)),))
    state = structured_state(img)
    layout = img.layout
    amp_c0 = state.amplitude(layout.basis_index(0, 0, 0b11, 0))
    amp_c1 = state.amplitude(layout.basis_index(0, 0, 0b11, 1))
    assert amp_c0 == pytest.approx(0.5, abs=1e-12)
    assert amp_c1 == pytest.approx(cmath.exp(1j * TAU / 3) * math.sqrt(3) / 2, abs=1e-12)


def test_amplitude_zero_on_lightness_mismatch():
    img = QhslImage(0, 2, ((ChromaState(TAU / 3, TAU / 3), LightnessCode(2, 3)),))
    state = structured_state(img)
    for lightness in range(3):
        assert state.amplitude(img.layout.basis_index(0, 0, lightness, 0)) == 0j
        assert state.amplitude(img.layout.basis_index(0, 0, lightness, 1)) == 0j


def test_structured_norm_is_one(rng):
    img = random_image(rng, 2, 3)
    assert structured_state(img).norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_position_amplitude_scaling(rng):
    img = random_image(rng, 1, 0)
    state = structured_state(img)
    for y, x, chroma, code in img.enumerate_pixels():
        a0, _ = chroma.amplitudes()
        got = state.amplitude(img.layout.basis_index(y, x, 0, 0))
        assert got == pytest.approx(0.5 * a0, abs=1e-12)


# ---------------------------------------------------------------------------
# Preparation circuit


def test_preparation_gate_count(rng):
    for n, q in ((0, 2), (1, 0), (2, 3)):
        img = random_image(rng, n, q)
        circ = preparation_circuit(img)
        kinds = [i.gate.kind for i in circ.instructions]
        assert kinds.count("H") == 2 * n
        assert kinds.count("R") == 4 ** n
        expected_x = sum(bin(code.bits).count("1") for _, _, _, code in img.enumerate_pixels())
        assert kinds.count("X") == expected_x


def test_uniform_image_still_writes_every_pixel(rng):
    chroma = ChromaState(math.pi / 2, 1.0)
    img = QhslImage(2, 2, ((chroma, LightnessCode(2, 2)),) * 16)
    circ = preparation_circuit(img)
    assert sum(1 for i in circ.instructions if i.gate.kind == "R") == 16


def test_dense_matches_structured(rng):
    for n, q in ((0, 0), (0, 3), (1, 2), (2, 2)):
        img = random_image(rng, n, q)
        dense = simulate_preparation(img)
        exact = structured_state(img)
        deviation = max(
            abs(dense.amplitudes[i] - exact.amplitude(i))
            for i in range(dense.amplitudes.size)
        )
        assert deviation < 1e-10


def test_dense_matches_structured_to_statevector(rng):
    img = random_image(rng, 1, 3)
    dense = simulate_preparation(img)
    exact = structured_state(img).to_statevector()
    assert np.abs(dense.amplitudes - exact.amplitudes).max() < 1e-10


def test_setter_order_does_not_matter(rng):
    from qhsl import StateVector, run_circuit
    from qhsl.image import pixel_setter_circuit, position_superposition_circuit

    img = random_image(rng, 1, 2)
    layout = img.layout
    setters = [
        pixel_setter_circuit(layout, PixelAddress(y, x), chroma.phi, chroma.theta, code.bits)
        for y, x, chroma, code in img.enumerate_pixels()
    ]
    base = position_superposition_circuit(layout)
    order_a = base
    for s in setters:
        order_a = order_a + s
    order_b = base
    for s in reversed(setters):
        order_b = order_b + s
    sa = run_circuit(StateVector.zero(layout.total_qubits), order_a)
    sb = run_circuit(StateVector.zero(layout.total_qubits), order_b)
    assert np.abs(sa.amplitudes - sb.amplitudes).max() < 1e-12


def test_qubit_budget_enforced(rng):
    img = random_image(rng, 1, 2)
    with pytest.raises(QubitBudgetError):
        simulate_preparation(img, qubit_budget=4)
    with pytest.raises(QubitBudgetError):
        structured_state(img).to_statevector(qubit_budget=4)


def test_n_zero_needs_no_hadamards():
    img = QhslImage(0, 0, ((ChromaState(math.pi / 3, 0.0), LightnessCode(0, 0)),))
    circ = preparation_circuit(img)
    assert all(i.gate.kind != "H" for i in circ.instructions)
    state = simulate_preparation(img)
    assert state.amplitudes[0] == pytest.approx(math.cos(math.pi / 6), abs=1e-12)


def test_preparation_circuit_matches_joined_assembly(rng):
    # the original construction joined one setter circuit at a time
    from qhsl.image import pixel_setter_circuit, position_superposition_circuit

    for n, q in ((0, 0), (1, 2), (2, 3)):
        img = random_image(rng, n, q)
        joined = position_superposition_circuit(img.layout)
        for y, x, chroma, code in img.enumerate_pixels():
            joined = joined + pixel_setter_circuit(img.layout, PixelAddress(y, x),
                                                   chroma.phi, chroma.theta, code.bits)
        assert preparation_circuit(img) == joined


# ---------------------------------------------------------------------------
# Array storage


def test_image_arrays_match_pixels(rng):
    from qhsl import PHASE_STEP

    img = random_image(rng, 2, 3)
    assert (img.theta.dtype, img.phase_steps.dtype, img.codes.dtype) == \
        (np.float64, np.int64, np.int64)
    for i, (y, x, chroma, code) in enumerate(img.enumerate_pixels()):
        assert i == y * img.side + x
        assert img.theta[i] == chroma.theta
        assert img.phase_steps[i] * PHASE_STEP == chroma.phi == img.phi[i]
        assert img.codes[i] == code.bits
    assert QhslImage(img.n, img.q, img.pixels) == img
    assert QhslImage.from_arrays(img.n, img.q, img.theta, img.phase_steps, img.codes) == img
    for array in (img.theta, img.phase_steps, img.codes):
        with pytest.raises(ValueError):
            array[0] = 0


def test_image_equality_sees_every_array_and_the_mapping(rng):
    img = random_image(rng, 1, 2)
    arrays = dict(theta=img.theta, phase_steps=img.phase_steps, codes=img.codes)
    for name in arrays:
        changed = dict(arrays)
        changed[name] = arrays[name].copy()
        changed[name][3] = (changed[name][3] + 1) % 2
        assert QhslImage.from_arrays(1, 2, **changed) != img
    manual = QhslImage.from_arrays(1, 2, **arrays, mapping="manual", table=(0.0, 0.2, 0.4, 1.0))
    assert manual != img
    assert QhslImage.from_arrays(1, 2, **arrays, mapping="manual", table=(0.0, 0.2, 0.4, 1.0),
                                 table_source="t.txt") != manual


def test_from_arrays_validation():
    from qhsl import ConfigurationError
    from qhsl.color import FULL_TURN_STEPS

    ok = dict(theta=[1.0], phase_steps=[5], codes=[1])
    QhslImage.from_arrays(0, 1, **ok)
    bad = [dict(theta=[3.5]), dict(theta=[-0.1]), dict(phase_steps=[-1]),
           dict(phase_steps=[FULL_TURN_STEPS]), dict(codes=[2]), dict(codes=[-1]),
           dict(theta=[1.0, 1.0])]
    for change in bad:
        with pytest.raises(ValueError):
            QhslImage.from_arrays(0, 1, **{**ok, **change})
    with pytest.raises(ValueError):
        QhslImage.from_arrays(-1, 1, **ok)
    with pytest.raises(ValueError):
        QhslImage.from_arrays(0, 1, **ok, mapping="nearest")
    with pytest.raises(ValueError):
        QhslImage.from_arrays(0, 1, **ok, table=(0.0, 1.0))  # a table needs the manual mapping
    with pytest.raises(ConfigurationError):
        QhslImage.from_arrays(0, 1, **ok, mapping="manual", table=(0.5, 0.2))


def test_constructor_error_messages():
    chroma = ChromaState(math.pi / 2, 0.0)
    with pytest.raises(TypeError, match="ChromaState"):
        QhslImage(0, 2, (((math.pi / 2, 0.0), LightnessCode(2, 1)),))
    with pytest.raises(ValueError, match="width 3 differs from image q=2"):
        QhslImage(0, 2, ((chroma, LightnessCode(3, 1)),))
    with pytest.raises(ValueError, match="share one lightness mapping"):
        QhslImage(1, 2, ((chroma, LightnessCode(2, 1)),) * 3
                  + ((chroma, LightnessCode(2, 1, "manual", (0.0, 0.1, 0.2, 1.0))),))


def test_equal_images_hash_alike(rng):
    img = random_image(rng, 1, 2)
    again = QhslImage.from_arrays(1, 2, img.theta, img.phase_steps, img.codes)
    assert again is not img and hash(again) == hash(img)
    assert len({img, again}) == 1
