import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhsl import (
    AVERAGE,
    MANUAL,
    ChromaState,
    ChromaStatistics,
    Gate,
    HslColor,
    InconsistentStatisticsError,
    LightnessCode,
    NonBasisLightnessError,
    PixelAddress,
    QhslImage,
    RegionConstraint,
    RetrievalReport,
    RetrievedPixel,
    apply_gate,
    canonical_phase,
    encode_chroma,
    estimate_phi,
    estimate_theta,
    measure_chroma,
    measure_lightness,
    quantize_lightness,
    retrieve_image,
    saturation_shift,
    simulate_preparation,
    StateVector,
    structured_state,
)
from qhsl.color import decode_chroma_arrays, lightness_fractions
from qhsl.retrieval import EXACT_HUE_FLOOR
from conftest import random_chroma, random_image, random_color_image

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Statistics containers


def test_statistics_validation():
    ChromaStatistics(0.5, -0.5, 0.1)
    with pytest.raises(InconsistentStatisticsError):
        ChromaStatistics(1.2, 0.0, 0.0)  # exact stats must be in [-1, 1]
    # With few shots the sampling slack admits overshoot up to 3 sigma.
    ChromaStatistics(1.2, 0.0, 0.0, shots_per_basis=25)
    with pytest.raises(InconsistentStatisticsError):
        ChromaStatistics(2.5, 0.0, 0.0, shots_per_basis=25)
    with pytest.raises(ValueError):
        ChromaStatistics(0.0, 0.0, 0.0, shots_per_basis=0)


def test_sigma_scaling():
    assert ChromaStatistics(0, 0, 0).sigma == 0.0
    assert ChromaStatistics(0, 0, 0, shots_per_basis=400).sigma == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# Angle estimators


def test_estimate_theta_values():
    assert estimate_theta(ChromaStatistics(-0.5, 0.0, 0.0)) == pytest.approx(TAU / 3, abs=1e-12)
    assert estimate_theta(ChromaStatistics(1.0, 0.0, 0.0)) == 0.0
    assert estimate_theta(ChromaStatistics(-1.0, 0.0, 0.0)) == pytest.approx(math.pi)


def test_estimate_theta_clamps_sampling_overshoot():
    stats = ChromaStatistics(1.04, 0.0, 0.0, shots_per_basis=100)
    assert estimate_theta(stats) == 0.0


def test_estimate_phi_quadrants():
    r = 1.0 / math.sqrt(2.0)
    cases = [
        ((r, r), math.pi / 4),
        ((-r, r), 3 * math.pi / 4),
        ((r, -r), 7 * math.pi / 4),
        ((-r, -r), 5 * math.pi / 4),
        ((0.0, 0.5), math.pi / 2),
        ((0.0, -0.5), 3 * math.pi / 2),
        ((0.5, 0.0), 0.0),
        ((-0.5, 0.0), math.pi),
    ]
    for (v, w), expect in cases:
        phi, undefined = estimate_phi(ChromaStatistics(0.0, v, w))
        assert not undefined
        assert phi == pytest.approx(expect, abs=1e-12)


def test_estimate_phi_exact_noise_floor():
    phi, undefined = estimate_phi(ChromaStatistics(1.0, 5e-7, 5e-7))
    assert undefined and phi == 0.0
    phi, undefined = estimate_phi(ChromaStatistics(1.0, 2.0 * EXACT_HUE_FLOOR, 0.0))
    assert not undefined


def test_estimate_phi_sampled_noise_floor():
    # sigma = 0.1 -> floor = 3*sqrt(2)*0.1 = 0.424
    stats = ChromaStatistics(0.9, 0.2, 0.2, shots_per_basis=100)
    phi, undefined = estimate_phi(stats)
    assert undefined
    stats = ChromaStatistics(0.0, 0.5, 0.5, shots_per_basis=100)
    phi, undefined = estimate_phi(stats)
    assert not undefined


# ---------------------------------------------------------------------------
# Chroma measurement


def test_measure_chroma_exact_green():
    stats = measure_chroma(ChromaState(TAU / 3, TAU / 3))
    assert stats.k == pytest.approx(-0.5, abs=1e-12)
    assert stats.v == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
    assert stats.w == pytest.approx(0.75, abs=1e-12)
    assert stats.is_exact


def test_measure_chroma_zero_state():
    stats = measure_chroma(ChromaState(0.0, 0.0))
    assert (stats.k, stats.v, stats.w) == (1.0, 0.0, 0.0)
    phi, undefined = estimate_phi(stats)
    assert undefined


def test_exact_statistics_lie_on_sphere(rng):
    for _ in range(100):
        stats = measure_chroma(random_chroma(rng))
        assert stats.k ** 2 + stats.v ** 2 + stats.w ** 2 == pytest.approx(1.0, abs=1e-12)


def test_exact_estimators_invert_encoding(rng):
    for _ in range(100):
        chroma = random_chroma(rng)
        stats = measure_chroma(chroma)
        assert estimate_theta(stats) == pytest.approx(chroma.theta, abs=1e-9)
        if math.sin(chroma.theta) > 1e-6:
            phi, undefined = estimate_phi(stats)
            assert not undefined
            assert phi == pytest.approx(chroma.phi, abs=1e-9)


def test_measurement_gates_match_formulas(rng):
    # Rotating with U1/U2 and reading Z must reproduce the V and W
    # expectations computed from the amplitudes.
    for _ in range(25):
        chroma = random_chroma(rng)
        a0, a1 = chroma.amplitudes()
        state = StateVector(1, np.array([a0, a1], dtype=complex))
        stats = measure_chroma(chroma)
        for gate, expect in ((Gate.u1(), stats.v), (Gate.u2(), stats.w)):
            rotated = apply_gate(state, gate, 0)
            p0, p1 = abs(rotated.amplitudes[0]) ** 2, abs(rotated.amplitudes[1]) ** 2
            assert p0 - p1 == pytest.approx(expect, abs=1e-12)


def test_measure_chroma_sampled_determinism():
    chroma = ChromaState(1.1, 2.2)
    a = measure_chroma(chroma, "shots", shots=1000, seed=5)
    b = measure_chroma(chroma, "shots", shots=1000, seed=5)
    assert (a.k, a.v, a.w) == (b.k, b.v, b.w)
    assert a.shots_per_basis == 1000


def test_measure_chroma_sampled_converges():
    chroma = ChromaState(math.pi / 2, 1.0)
    stats = measure_chroma(chroma, "shots", shots=10 ** 6, seed=11)
    assert abs(estimate_theta(stats) - math.pi / 2) < 0.005
    phi, undefined = estimate_phi(stats)
    assert not undefined
    assert abs(phi - 1.0) < 0.01


def test_measure_chroma_on_an_amplitude_pair(rng):
    for _ in range(20):
        chroma = random_chroma(rng)
        for pair in (chroma.amplitudes(), list(chroma.amplitudes()),
                     np.array(chroma.amplitudes())):
            assert measure_chroma(pair) == measure_chroma(chroma)
            assert measure_chroma(pair, "shots", shots=300, seed=4) == \
                measure_chroma(chroma, "shots", shots=300, seed=4)
    with pytest.raises(InconsistentStatisticsError, match=r"^chroma amplitudes are numerically zero$"):
        measure_chroma((0, 0))


def test_measure_chroma_usage_errors():
    with pytest.raises(ValueError):
        measure_chroma(ChromaState(1.0, 0.0), "sample")
    with pytest.raises(ValueError):
        measure_chroma(ChromaState(1.0, 0.0), "shots")


# ---------------------------------------------------------------------------
# Lightness readout


def test_measure_lightness_on_image(rng):
    img = random_image(rng, 1, 3)
    for y, x, _, code in img.enumerate_pixels():
        assert measure_lightness(img, y, x) == code.bits


def test_measure_lightness_dense_matches_codes(rng):
    img = random_image(rng, 1, 2)
    state = simulate_preparation(img)
    for y, x, _, code in img.enumerate_pixels():
        assert measure_lightness(state, y, x, img.layout) == code.bits


def test_measure_lightness_rejects_superposition(rng):
    img = random_image(rng, 1, 2)
    state = simulate_preparation(img)
    fuzzed = apply_gate(state, Gate.h(), list(img.layout.lightness_qubits)[0])
    with pytest.raises(NonBasisLightnessError):
        measure_lightness(fuzzed, 0, 0, img.layout)


def test_measure_lightness_needs_layout(rng):
    img = random_image(rng, 0, 1)
    state = simulate_preparation(img)
    with pytest.raises(ValueError):
        measure_lightness(state, 0, 0)


# ---------------------------------------------------------------------------
# Full-image retrieval


def test_exact_retrieval_round_trip(rng):
    img = random_image(rng, 1, 3)
    report = retrieve_image(img)
    assert report.mode == "exact" and report.branch == "exact"
    for y, x, chroma, code in img.enumerate_pixels():
        pix = report.pixel(y, x)
        assert pix.theta == pytest.approx(chroma.theta, abs=1e-9)
        if math.sin(chroma.theta) > 1e-6:
            assert pix.phi == pytest.approx(chroma.phi, abs=1e-9)
        assert pix.code == code.bits
        assert pix.lightness == pytest.approx(code.bits / 7.0, abs=1e-12)


def test_exact_retrieval_dense_matches_structured(rng):
    img = random_image(rng, 1, 2)
    structured = retrieve_image(img)
    dense = retrieve_image(simulate_preparation(img), layout=img.layout)
    for s_pix, d_pix in zip(structured.pixels, dense.pixels):
        assert d_pix.theta == pytest.approx(s_pix.theta, abs=1e-10)
        assert d_pix.code == s_pix.code
        if not s_pix.hue_undefined:
            assert d_pix.phi == pytest.approx(s_pix.phi, abs=1e-10)


def test_sampled_retrieval_deterministic(rng):
    img = random_image(rng, 1, 2)
    a = retrieve_image(img, "shots", shots=400, seed=9)
    b = retrieve_image(img, "shots", shots=400, seed=9)
    assert a == b
    assert a.branch == "rejection"
    assert all(p.theta_3sigma > 0 for p in a.pixels)


def test_sampled_retrieval_oracle_branch(rng):
    img = random_image(rng, 1, 2)
    report = retrieve_image(img, "shots", shots=2000, seed=3, branch="oracle")
    assert report.branch == "oracle"
    for y, x, chroma, _ in img.enumerate_pixels():
        assert abs(report.pixel(y, x).theta - chroma.theta) < 0.2


def test_branch_strategies_agree_with_truth(rng):
    img = random_color_image(rng, 1, 2)
    truth = {(y, x): chroma.theta for y, x, chroma, _ in img.enumerate_pixels()}
    for branch in ("oracle", "rejection"):
        errs = []
        for seed in range(30):
            report = retrieve_image(img, "shots", shots=2000, seed=seed, branch=branch)
            errs.extend(abs(report.pixel(y, x).theta - t) for (y, x), t in truth.items())
        assert np.mean(errs) < 0.05


def test_sampled_hue_error_small_at_high_shots(rng):
    pixels = []
    for _ in range(16):
        hue = float(rng.uniform(0.0, 360.0))
        sat = float(rng.uniform(0.3, 1.0))
        pixels.append((encode_chroma(HslColor(hue, sat, 0.5)), quantize_lightness(0.5, 4)))
    img = QhslImage(2, 4, tuple(pixels))
    report = retrieve_image(img, "shots", shots=10 ** 5, seed=1234)
    errors = []
    for y, x, chroma, _ in img.enumerate_pixels():
        pix = report.pixel(y, x)
        assert not pix.hue_undefined
        want = math.degrees(chroma.phi)
        diff = abs(pix.hue - want) % 360.0
        errors.append(min(diff, 360.0 - diff))
    assert np.mean(errors) < 2.0


def test_retrieve_usage_errors(rng):
    img = random_image(rng, 0, 1)
    with pytest.raises(ValueError):
        retrieve_image(img, "maybe")
    with pytest.raises(ValueError):
        retrieve_image(img, "shots")
    with pytest.raises(ValueError):
        retrieve_image(img, "shots", shots=100, branch="teleport")
    state = simulate_preparation(img)
    with pytest.raises(ValueError):
        retrieve_image(state)  # layout required
    with pytest.raises(ValueError):
        retrieve_image(state, "shots", shots=10, branch="oracle", layout=img.layout)
    with pytest.raises(TypeError):
        retrieve_image("not a state")


def test_dense_readout_refuses_a_layout_of_another_width(rng):
    from qhsl import RegisterLayout

    img = random_image(rng, 1, 1)
    state = simulate_preparation(img)
    for other in (RegisterLayout(1, 2), RegisterLayout(2, 1), RegisterLayout(0, 1)):
        with pytest.raises(ValueError, match=r"^layout does not match the state register$"):
            retrieve_image(state, layout=other)
        with pytest.raises(ValueError, match=r"^layout does not match the state register$"):
            measure_lightness(state, 0, 0, other)


# ---------------------------------------------------------------------------
# Dense lightness readout, all pixels from one distribution


def superpose_lightness(state, layout, *pixels):
    """Put one lightness qubit of each listed pixel branch into superposition."""
    for y, x in pixels:
        state = apply_gate(state, Gate.h(), layout.lightness_qubits[0],
                           layout.pixel_pattern(PixelAddress(y, x)))
    return state


def test_dense_readout_names_the_superposed_pixel(rng):
    img = random_image(rng, 1, 2)
    state = superpose_lightness(simulate_preparation(img), img.layout, (1, 0))
    with pytest.raises(NonBasisLightnessError, match=r"pixel \(1, 0\)"):
        retrieve_image(state, layout=img.layout)
    with pytest.raises(NonBasisLightnessError, match=r"pixel \(1, 0\)"):
        measure_lightness(state, 1, 0, img.layout)
    # the other branches still read out on their own
    for y, x in ((0, 0), (0, 1), (1, 1)):
        assert measure_lightness(state, y, x, img.layout) == img.code(y, x).bits


def test_dense_readout_raises_for_first_pixel_in_raster_order(rng):
    img = random_image(rng, 1, 2)
    state = superpose_lightness(simulate_preparation(img), img.layout, (1, 1), (0, 1))
    for mode in ("exact", "shots"):
        with pytest.raises(NonBasisLightnessError, match=r"pixel \(0, 1\)"):
            retrieve_image(state, mode, shots=64, seed=1, layout=img.layout)


def test_dense_readout_rejects_empty_branch(rng):
    img = random_image(rng, 1, 2)
    amps = structured_state(img).to_statevector().amplitudes.copy()
    amps[(np.arange(amps.size) & 3) == 2] = 0.0  # branch of pixel (1, 0)
    state = StateVector(img.layout.total_qubits, amps / np.linalg.norm(amps))
    for mode in ("exact", "shots"):
        with pytest.raises(InconsistentStatisticsError):
            retrieve_image(state, mode, shots=64, seed=1, layout=img.layout)
    with pytest.raises(InconsistentStatisticsError, match=r"pixel \(1, 0\) branch has no probability"):
        measure_lightness(state, 1, 0, img.layout)
    assert measure_lightness(state, 1, 1, img.layout) == img.code(1, 1).bits


@pytest.mark.parametrize("seed", range(5))
def test_vectorized_binomial_matches_scalar_draws(seed):
    # the rejection branch draws every pixel's counts in one call; this pins
    # that the call takes the same values and leaves the generator where
    # one draw per pixel would
    probe = np.random.default_rng(1000 + seed)
    trials = probe.integers(0, 3000, size=4096)
    p0 = probe.random(4096)
    p0[::7], p0[::11] = 0.0, 1.0
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = batched.binomial(trials, p0)
    assert draws.tolist() == [int(looped.binomial(int(m), float(p))) for m, p in zip(trials, p0)]
    assert batched.random() == looped.random()


def test_structured_reports_match_per_pixel_measurement(rng):
    img = random_color_image(rng, 2, 4)
    exact = retrieve_image(img)
    oracle = retrieve_image(img, "shots", shots=64, seed=9, branch="oracle")
    streams = np.random.SeedSequence(9).spawn(16)
    for (y, x, chroma, code), stream in zip(img.enumerate_pixels(), streams):
        want = measure_chroma(chroma)
        assert exact.pixel(y, x).theta == estimate_theta(want)
        assert exact.pixel(y, x).code == code.bits == measure_lightness(img, y, x)
        sampled = measure_chroma(chroma, "shots", shots=64, rng=np.random.default_rng(stream))
        assert (oracle.pixel(y, x).theta, oracle.pixel(y, x).phi) == \
            (estimate_theta(sampled), estimate_phi(sampled)[0])


def test_rejection_reports_the_first_starved_pixel():
    img = random_image(np.random.default_rng(3), 3, 2)
    allocation = np.random.default_rng(11).multinomial(64, np.full(64, 1 / 64))
    first = np.flatnonzero(allocation == 0)[0]
    with pytest.raises(InconsistentStatisticsError, match=rf"^pixel {first} received no samples"):
        retrieve_image(img, "shots", shots=1, seed=11)


def test_dense_statistics_report_the_first_empty_branch():
    from qhsl import RegisterLayout

    layout = RegisterLayout(1, 0)
    state = StateVector.from_basis(3, 0)  # only the branch at position 0 is populated
    with pytest.raises(InconsistentStatisticsError, match=r"^pixel branch 1 has no probability"):
        retrieve_image(state, layout=layout)
    with pytest.raises(InconsistentStatisticsError,
                       match=r"^pixel branch 1 received no samples; increase the shot budget"):
        retrieve_image(state, "shots", shots=10, seed=0, layout=layout)


def rejection_by_pixels(img, shots, seed):
    """The rejection branch drawn one pixel at a time, as the reference."""
    from qhsl.retrieval import _chroma_expectations

    count = 4 ** img.n
    expectations = [_chroma_expectations(*chroma.amplitudes())
                    for _, _, chroma, _ in img.enumerate_pixels()]
    rng = np.random.default_rng(seed)
    samples = [[] for _ in range(count)]
    for axis in range(3):
        allocation = rng.multinomial(shots * count, np.full(count, 1.0 / count))
        for i in range(count):
            m = int(allocation[i])
            p0 = min(max(0.5 * (1.0 + expectations[i][axis]), 0.0), 1.0)
            samples[i].append((int(rng.binomial(m, p0)), m))
    return [ChromaStatistics(*((2 * n0 - m) / m for n0, m in s),
                             shots_per_basis=min(m for _, m in s))
            for s in samples]


def dense_by_pixels(state, layout, mode, shots, seed):
    """Dense statistics read one pixel branch at a time, as the reference."""
    from qhsl import joint_probabilities

    npos = 4 ** layout.n
    qubits = list(layout.position_qubits) + [layout.chroma_qubit]
    joints = [joint_probabilities(
        state if g is None else apply_gate(state, g, layout.chroma_qubit), qubits)
        for g in (None, Gate.u1(), Gate.u2())]
    rng = np.random.default_rng(seed)
    if mode == "shots":
        joints = [rng.multinomial(shots * npos, j / j.sum()) for j in joints]
    stats = []
    for pos in range(npos):
        pairs = [(j[pos], j[pos + npos]) for j in joints]
        values = [(float(a) - float(b)) / (float(a) + float(b)) if mode == "exact"
                  else (int(a) - int(b)) / (int(a) + int(b)) for a, b in pairs]
        budget = min(int(a) + int(b) for a, b in pairs) if mode == "shots" else None
        stats.append(ChromaStatistics(*values, shots_per_basis=budget))
    return stats


def test_batched_statistics_match_per_pixel_reference(rng):
    from qhsl.retrieval import _dense_statistics, _structured_statistics

    def columns(kvw, budgets):
        return kvw.tolist(), [None] * kvw.shape[1] if budgets is None else budgets.tolist()

    def reference_columns(stats):
        return ([[s.k for s in stats], [s.v for s in stats], [s.w for s in stats]],
                [s.shots_per_basis for s in stats])

    img = random_color_image(rng, 2, 3)
    assert columns(*_structured_statistics(img, "shots", 40, 5, "rejection")) == \
        reference_columns(rejection_by_pixels(img, 40, 5))
    state = simulate_preparation(img)
    for mode, shots in (("exact", None), ("shots", 30)):
        assert columns(*_dense_statistics(state, img.layout, mode, shots, 8)) == \
            reference_columns(dense_by_pixels(state, img.layout, mode, shots, 8))


def simulated_dense_statistics(state, layout, mode, shots, seed):
    """The dense statistics with each basis change simulated on a copy of the
    state and marginalised by joint_probabilities, as the reference."""
    from qhsl import joint_probabilities

    npos = 4 ** layout.n
    qubits = list(layout.position_qubits) + [layout.chroma_qubit]
    joints = np.array([joint_probabilities(
        state if g is None else apply_gate(state, g, layout.chroma_qubit), qubits)
        for g in (None, Gate.u1(), Gate.u2())])
    if mode == "shots":
        rng = np.random.default_rng(seed)
        joints = np.array([rng.multinomial(shots * npos, j / j.sum()) for j in joints])
    zero, one = joints[:, :npos], joints[:, npos:]
    totals = zero + one
    empty = np.flatnonzero((totals <= 1e-12).any(axis=0))
    if empty.size:
        raise InconsistentStatisticsError(
            f"pixel branch {empty[0]} has no probability" if mode == "exact" else
            f"pixel branch {empty[0]} received no samples; increase the shot budget")
    return (zero - one) / totals, totals.min(axis=0) if mode == "shots" else None


def simulated_lightness_codes(state, layout, positions):
    """The dense lightness readout through joint_probabilities, as the reference."""
    from qhsl import joint_probabilities

    qubits = list(layout.position_qubits) + list(layout.lightness_qubits)
    probs = joint_probabilities(state, qubits).reshape(2 ** layout.q, 4 ** layout.n)[:, positions]
    totals = probs.sum(axis=0)
    codes = probs.argmax(axis=0)
    peaks = probs[codes, np.arange(codes.size)]
    bad = np.flatnonzero((totals <= 1e-12) | (peaks < (1.0 - 1e-9) * totals))
    if bad.size:
        y, x = divmod(positions[bad[0]], layout.side)
        if totals[bad[0]] <= 1e-12:
            raise InconsistentStatisticsError(f"pixel ({y}, {x}) branch has no probability")
        raise NonBasisLightnessError(f"pixel ({y}, {x}) lightness register is in superposition")
    return codes


def outcome(call, *args):
    """A call's result as exact bytes, or its error as type and full text."""
    try:
        result = call(*args)
    except Exception as exc:  # every error must match the reference's
        return type(exc), str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


COMPONENTS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0, allow_subnormal=True))


@st.composite
def general_states(draw):
    """A layout with n <= 2, q <= 4 and a normalised state over it.  Entries
    hold random components, -0.0 among them, or +0 holes; with ``basis`` set,
    each position's entries share one lightness code, so the lightness
    readout can succeed.  Whole branches may be empty."""
    from qhsl import RegisterLayout

    layout = RegisterLayout(draw(st.integers(0, 2)), draw(st.integers(0, 4)))
    npos, ncodes = 4 ** layout.n, 2 ** layout.q
    amps = np.zeros((2, ncodes, npos), dtype=complex)
    basis = draw(st.booleans())
    for pos in range(npos):
        code = draw(st.integers(0, ncodes - 1))
        for chroma in (0, 1):
            for light in [code] if basis else range(ncodes):
                if draw(st.booleans()):
                    amps[chroma, light, pos] = complex(draw(COMPONENTS), draw(COMPONENTS))
    chroma, light = draw(st.integers(0, 1)), draw(st.integers(0, ncodes - 1))
    amps[chroma, light, draw(st.integers(0, npos - 1))] = complex(draw(COMPONENTS), 1.0)
    amps = amps.reshape(-1)
    positions = draw(st.permutations(range(npos)))[:draw(st.integers(1, npos))]
    return layout, StateVector(layout.total_qubits, amps / np.linalg.norm(amps)), positions


@given(general_states(), st.integers(1, 40), st.integers(0, 2 ** 32))
def test_dense_readout_matches_simulated_basis_changes(case, shots, seed):
    from qhsl.retrieval import _dense_lightness_codes, _dense_statistics

    layout, state, positions = case
    for mode in ("exact", "shots"):
        assert outcome(_dense_statistics, state, layout, mode, shots, seed) == \
            outcome(simulated_dense_statistics, state, layout, mode, shots, seed)
    for chosen in (range(4 ** layout.n), positions):
        assert outcome(_dense_lightness_codes, state, layout, chosen) == \
            outcome(simulated_lightness_codes, state, layout, chosen)


# ---------------------------------------------------------------------------
# Report columns against the per-pixel reference


def reference_check(k, v, w, shots_per_basis):
    """The per-pixel range check the statistics objects made, as the reference."""
    sigma = 0.0 if shots_per_basis is None else 1.0 / math.sqrt(shots_per_basis)
    slack = 3.0 * sigma + 1e-12
    for name, val in (("k", k), ("v", v), ("w", w)):
        if not math.isfinite(val) or abs(val) > 1.0 + slack:
            raise InconsistentStatisticsError(
                f"statistic {name}={val!r} outside [-1, 1] beyond sampling slack")


def reference_statistics(kvw, budgets):
    budgets = [None] * kvw.shape[1] if budgets is None else budgets.tolist()
    stats = []
    for (k, v, w), m in zip(kvw.T.tolist(), budgets):
        reference_check(k, v, w, m)
        stats.append(ChromaStatistics(k, v, w, shots_per_basis=m))
    return stats


def reference_phi(stats):
    radius = math.hypot(stats.v, stats.w)
    floor = EXACT_HUE_FLOOR if stats.is_exact else 3.0 * math.sqrt(2.0) * stats.sigma
    if radius <= floor:
        return 0.0, True
    phi = math.atan2(stats.w, stats.v)
    if phi < 0.0:
        phi += 2.0 * math.pi
    return phi, False


def reference_finish_pixels(layout, stats, codes, mapping, table):
    """The per-pixel report construction, one RetrievedPixel per statistics object."""
    thetas = [math.acos(min(1.0, max(-1.0, s.k))) for s in stats]
    phis, undefined = zip(*map(reference_phi, stats))
    hue, saturation, _ = decode_chroma_arrays(thetas, [canonical_phase(p) for p in phis])
    lightness = lightness_fractions(codes, layout.q, mapping, table)
    return tuple(
        RetrievedPixel(y=pos >> layout.n, x=pos & (layout.side - 1), theta=t, phi=p,
                       hue=0.0 if u else h, saturation=sat, code=code, lightness=light,
                       hue_undefined=u,
                       theta_3sigma=3.0 * s.sigma / max(math.sin(t), EXACT_HUE_FLOOR),
                       phi_3sigma=6.0 * s.sigma / max(math.hypot(s.v, s.w), EXACT_HUE_FLOOR))
        for pos, (s, t, p, u, h, sat, code, light) in enumerate(zip(
            stats, thetas, phis, undefined, hue.tolist(), saturation.tolist(), codes.tolist(),
            lightness.tolist())))


def pixel_bits(pixels):
    """Every field with its type, floats by their bits (so -0.0 != 0.0)."""
    return [tuple((type(v), v.hex() if isinstance(v, float) else v) for v in astuple(px))
            for px in pixels]


def column_test_images(n, q, mapping):
    """A random image, two with saturations folded over the band edges, and
    one with pixels on and next to the Bloch poles."""
    rng = np.random.default_rng(100 * n + q)
    img = random_color_image(rng, n, q)
    table = np.sort(rng.random(2 ** q)) if mapping == MANUAL else None
    img = QhslImage.from_arrays(n, q, img.theta, img.phase_steps, img.codes, mapping, table)
    rows = RegionConstraint(y_range=(0, (2 ** n - 1) // 2)) if n else None
    poles = img.theta.copy()
    poles[::3], poles[1::3], poles[2::5] = 0.0, math.pi, 1e-7
    return [img, saturation_shift(img, 1.5 * math.pi / 3.0, rows),
            saturation_shift(img, -1.5 * math.pi / 3.0, rows),
            QhslImage.from_arrays(n, q, poles, img.phase_steps, img.codes, mapping, table)]


@pytest.mark.parametrize("mapping", [AVERAGE, MANUAL])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_structured_columns_match_per_pixel_reference(n, mapping):
    from qhsl.retrieval import _structured_statistics

    for img in column_test_images(n, 3, mapping):
        for mode, shots, branch in (("exact", None, "rejection"), ("shots", 16, "rejection"),
                                    ("shots", 16, "oracle"), ("shots", 3000, "oracle")):
            report = retrieve_image(img, mode, shots=shots, seed=4, branch=branch)
            stats = reference_statistics(*_structured_statistics(img, mode, shots, 4, branch))
            want = reference_finish_pixels(img.layout, stats, img.codes, img.mapping, img.table)
            assert pixel_bits(report.pixels) == pixel_bits(want)
            assert [report.pixel(px.y, px.x) for px in want] == list(report.pixels)


@pytest.mark.parametrize("mapping", [AVERAGE, MANUAL])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_columns_match_per_pixel_reference(n, mapping):
    from qhsl.retrieval import _dense_lightness_codes, _dense_statistics

    for img in column_test_images(n, 2, mapping):
        state = simulate_preparation(img)
        codes = _dense_lightness_codes(state, img.layout, range(4 ** n))
        for mode, shots in (("exact", None), ("shots", 16), ("shots", 3000)):
            report = retrieve_image(state, mode, shots=shots, seed=4, layout=img.layout,
                                    mapping=img.mapping, table=img.table)
            stats = reference_statistics(*_dense_statistics(state, img.layout, mode, shots, 4))
            want = reference_finish_pixels(img.layout, stats, codes, img.mapping, img.table)
            assert pixel_bits(report.pixels) == pixel_bits(want)


@pytest.mark.parametrize("kvw, budgets", [
    ([[0.5, 0.2, 1.5, 0.0], [0.0, 0.1, 0.0, 2.0], [0.0, -1.2, 0.0, 0.0]], None),
    ([[0.5, 0.2], [1.0 + 2e-12, -3.0], [float("nan"), 0.0]], None),
    ([[0.0, float("-inf")], [0.0, float("nan")], [0.0, 0.0]], None),
    ([[1.0, 0.0, 0.0], [0.0, -1.7, 0.0], [0.0, 2.5, 9.0]], [25, 25, 25]),
    ([[1.59, 1.61, 0.0], [0.0, 0.0, -1.61], [0.0, 0.0, 0.0]], [25, 25, 25]),
])
def test_column_range_check_names_the_first_offending_statistic(kvw, budgets):
    from qhsl.retrieval import _chroma_columns

    kvw = np.array(kvw)
    budgets = None if budgets is None else np.array(budgets)
    with pytest.raises(InconsistentStatisticsError) as want:
        reference_statistics(kvw, budgets)
    with pytest.raises(InconsistentStatisticsError) as got:
        _chroma_columns(kvw, budgets)
    assert str(got.value) == str(want.value)


def test_reports_compare_by_columns_and_hash_by_metadata(rng):
    img = random_color_image(rng, 2, 3)
    report = retrieve_image(img, "shots", shots=64, seed=2)
    again = retrieve_image(img, "shots", shots=64, seed=2)
    assert report == again and hash(report) == hash(again)
    assert retrieve_image(img, "shots", shots=64, seed=3) != report
    rebuilt = RetrievalReport(report.n, report.q, report.mode, report.shots_per_basis,
                              report.seed, report.branch, report.pixels)
    assert rebuilt == report and rebuilt.pixels == report.pixels
    assert not report.theta.flags.writeable
    with pytest.raises(ValueError, match="raster order"):
        RetrievalReport(report.n, report.q, report.mode, report.shots_per_basis,
                        report.seed, report.branch, report.pixels[::-1])
    with pytest.raises(ValueError, match="outside"):
        report.pixel(0, 4)


def test_retrieval_builds_no_per_pixel_objects(rng, tmp_path, monkeypatch):
    import qhsl.retrieval
    from qhsl import format_report, save_image

    def refuse(*args, **kwargs):
        raise AssertionError("a per-pixel object was built")

    img = random_color_image(rng, 2, 3)
    state = simulate_preparation(img)
    monkeypatch.setattr(qhsl.retrieval, "RetrievedPixel", refuse)
    monkeypatch.setattr(qhsl.retrieval, "ChromaStatistics", refuse)
    reports = [retrieve_image(img), retrieve_image(img, "shots", shots=32, seed=1),
               retrieve_image(img, "shots", shots=32, seed=1, branch="oracle"),
               retrieve_image(state, layout=img.layout),
               retrieve_image(state, "shots", shots=32, seed=1, layout=img.layout)]
    for i, report in enumerate(reports):
        assert format_report(report).count("\n") == 17
        save_image(tmp_path / f"{i}.ppm", report)
    with pytest.raises(AssertionError, match="per-pixel"):
        reports[0].pixels
