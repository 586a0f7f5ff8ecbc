"""Hypothesis properties of every transform's circuit form at n <= 2, q <= 3.

Each route is checked as circuit after preparation against preparation
after the pixel form: the workspace must come back to |0>, and the image
register must give the same joint distribution of position, lightness
and chroma outcomes with the chroma qubit read directly and through U1
and U2.  That is every statistic retrieval measures; it cannot see the
-1 branch phase a saturation rotation leaves when it crosses a pole.

The comparator route gates a transform's circuit on flag qubits, so its
registers grow by 2w + 2 qubits per bounded side; examples past
``BUDGET`` qubits are discarded to keep each run small.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhsl import (
    AncillaBudgetError,
    Gate,
    PseudocolorMap,
    QhslImage,
    RegionConstraint,
    StateVector,
    apply_gate,
    comparator_region_circuit,
    hue_shift,
    hue_shift_circuit,
    invert_color,
    invert_color_circuit,
    joint_probabilities,
    lightness_add,
    lightness_add_circuit,
    lightness_sub,
    lightness_sub_circuit,
    pseudocolor,
    pseudocolor_circuit,
    run_circuit,
    saturation_shift,
    saturation_shift_circuit,
    simulate_preparation,
)
from qhsl.color import FULL_TURN_STEPS, SATURATION_LOW

TOL = 1e-10
BUDGET = 16
ANGLES = st.floats(-4.0 * math.pi, 4.0 * math.pi)
FEW = settings(max_examples=25)
# (circuit form, pixel form) of lighten and darken
LIGHTNESS_EDITS = st.sampled_from([(lightness_add_circuit, lightness_add),
                                   (lightness_sub_circuit, lightness_sub)])


@st.composite
def images(draw, max_n: int = 2, max_q: int = 3):
    n, q = draw(st.integers(0, max_n)), draw(st.integers(0, max_q))
    count = 4 ** n
    theta = draw(st.lists(st.floats(0.0, math.pi), min_size=count, max_size=count))
    steps = draw(st.lists(st.integers(0, FULL_TURN_STEPS - 1), min_size=count, max_size=count))
    codes = draw(st.lists(st.integers(0, 2 ** q - 1), min_size=count, max_size=count))
    return QhslImage.from_arrays(n, q, theta, steps, codes)


@st.composite
def intervals(draw, width: int):
    lo = draw(st.integers(0, 2 ** width - 1))
    return lo, draw(st.integers(lo, 2 ** width - 1))


@st.composite
def regions(draw, img: QhslImage, lightness: bool = True):
    """A region over the image's lightness, rows and columns, or None."""
    fields = {"lightness": img.q if lightness else None, "y_range": img.n, "x_range": img.n}
    chosen = {name: draw(st.none() | intervals(width))
              for name, width in fields.items() if width is not None}
    if all(bounds is None for bounds in chosen.values()):
        return None
    return RegionConstraint(**chosen)


def image_statistics(state: StateVector, img: QhslImage) -> list[np.ndarray]:
    chroma, qubits = img.layout.chroma_qubit, range(img.layout.total_qubits)
    return [joint_probabilities(state if gate is None else apply_gate(state, gate, chroma), qubits)
            for gate in (None, Gate.u1(), Gate.u2())]


def assert_route(img: QhslImage, circuit, expected: QhslImage) -> None:
    base = img.layout.total_qubits
    prepared = simulate_preparation(img)
    amps = np.zeros(2 ** circuit.num_qubits, dtype=complex)
    amps[: prepared.amplitudes.size] = prepared.amplitudes
    out = run_circuit(StateVector(circuit.num_qubits, amps), circuit).amplitudes
    out = out.reshape(-1, 2 ** base)
    assert np.abs(out[1:]).max(initial=0.0) < TOL
    got = image_statistics(StateVector(base, out[0]), img)
    want = image_statistics(simulate_preparation(expected), img)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < TOL


def gated(img: QhslImage, region: RegionConstraint | None, body):
    """The comparator route for a region, or the body itself without one."""
    if region is None:
        return body
    try:
        return comparator_region_circuit(img.layout, region, body, qubit_budget=BUDGET)
    except AncillaBudgetError:
        assume(False)


@FEW
@given(st.data(), images(), ANGLES)
def test_hue_shift_pattern_route(data, img, dphi):
    region = data.draw(regions(img))
    assert_route(img, hue_shift_circuit(img.layout, dphi, region), hue_shift(img, dphi, region))


@FEW
@given(st.data(), images(), ANGLES)
def test_saturation_shift_pattern_route(data, img, dtheta):
    region = data.draw(regions(img))
    assert_route(img, saturation_shift_circuit(img, dtheta, region),
                 saturation_shift(img, dtheta, region))


@FEW
@given(images())
def test_invert_route(img):
    assert_route(img, invert_color_circuit(img.layout), invert_color(img))


@FEW
@given(st.data(), images(), LIGHTNESS_EDITS)
def test_lightness_route(data, img, edit):
    k = data.draw(st.integers(0, 2 ** img.q - 1))
    build, pixel_form = edit
    assert_route(img, build(img.layout, k), pixel_form(img, k))


@FEW
@given(st.data(), images(), ANGLES, st.sampled_from(["hue", "saturation"]))
def test_chroma_comparator_route(data, img, angle, kind):
    region = data.draw(regions(img))
    if kind == "hue":
        body, expected = hue_shift_circuit(img.layout, angle), hue_shift(img, angle, region)
    else:
        body, expected = saturation_shift_circuit(img, angle), saturation_shift(img, angle, region)
    assert_route(img, gated(img, region, body), expected)


@FEW
@given(st.data(), images(max_n=1), LIGHTNESS_EDITS)
def test_lightness_comparator_route(data, img, edit):
    # the comparators read the lightness register, so only rows and columns
    # may gate a lightness edit
    region = data.draw(regions(img, lightness=False))
    k = data.draw(st.integers(0, 2 ** img.q - 1))
    build, pixel_form = edit
    assert_route(img, gated(img, region, build(img.layout, k)), pixel_form(img, k, region))


@st.composite
def gray_images(draw, max_n: int, max_q: int):
    """Grayscale sources of the circuit form: one theta, zero phases."""
    n, q = draw(st.integers(0, max_n)), draw(st.integers(0, max_q))
    count = 4 ** n
    codes = draw(st.lists(st.integers(0, 2 ** q - 1), min_size=count, max_size=count))
    theta = draw(st.floats(0.0, SATURATION_LOW))
    return QhslImage.from_arrays(n, q, np.full(count, theta), np.zeros(count, dtype=np.int64),
                                 codes)


@st.composite
def pseudocolor_maps(draw, q: int):
    top = 2 ** q - 1
    cuts = sorted(draw(st.sets(st.integers(0, top - 1), max_size=3))) if top else []
    entries, lo = [], 0
    for hi in cuts + [top]:
        entries.append((lo, hi, draw(st.floats(0.0, 360.0, exclude_max=True))))
        lo = hi + 1
    return PseudocolorMap(tuple(entries))


@FEW
@given(st.data(), gray_images(max_n=2, max_q=3))
def test_pseudocolor_pattern_route(data, img):
    pmap = data.draw(pseudocolor_maps(img.q))
    assert_route(img, pseudocolor_circuit(img, pmap), pseudocolor(img, pmap))


@FEW
@given(st.data(), gray_images(max_n=1, max_q=2))
def test_pseudocolor_comparator_route(data, img):
    pmap = data.draw(pseudocolor_maps(img.q))
    assert_route(img, pseudocolor_circuit(img, pmap, "comparators"), pseudocolor(img, pmap))
