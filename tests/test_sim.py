import math

import numpy as np
import pytest

from qhsl import (
    Circuit,
    ControlPattern,
    Gate,
    Instruction,
    NonBasisTargetError,
    NonClassicalGateError,
    RegisterOverlapError,
    StateVector,
    apply_gate,
    decode_chroma,
    joint_probabilities,
    load_constant,
    measure_probabilities,
    run_circuit,
    run_on_basis,
    sample_shots,
)
from qhsl.sim import run_on_basis_array

UNITARY_GATES = [
    Gate.ry(0.7),
    Gate.rz(-2.3),
    Gate.r(1.1, 2.0),
    Gate.h(),
    Gate.x(),
    Gate.i(),
    Gate.u1(),
    Gate.u2(),
]


# ---------------------------------------------------------------------------
# Gates


@pytest.mark.parametrize("gate", UNITARY_GATES, ids=lambda g: g.kind)
def test_gate_matrices_are_unitary(gate):
    m = gate.matrix()
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12
    assert gate.is_unitary


def test_set_gates_are_not_unitary():
    for gate in (Gate.set0(), Gate.set1()):
        assert not gate.is_unitary
        with pytest.raises(ValueError):
            gate.matrix()
        with pytest.raises(ValueError):
            gate.inverse_sequence()


def test_measurement_gates_have_no_inverse():
    for gate in (Gate.u1(), Gate.u2()):
        with pytest.raises(ValueError):
            gate.inverse_sequence()


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("RY", ())
    with pytest.raises(ValueError):
        Gate("WHAT", ())
    with pytest.raises(ValueError):
        Gate("RZ", (math.nan,))


def test_r_gate_prepares_chroma_angles():
    state = apply_gate(StateVector.zero(1), Gate.r(2 * math.pi / 3, 2 * math.pi / 3), 0)
    amp0, amp1 = state.amplitudes
    theta = 2.0 * math.acos(min(1.0, abs(amp0)))
    phi = math.atan2(amp1.imag, amp1.real) % (2 * math.pi)
    decoded = decode_chroma_like(theta, phi)
    assert decoded == pytest.approx((120.0, 1.0), abs=1e-9)


def decode_chroma_like(theta, phi):
    from qhsl import ChromaState

    got = decode_chroma(ChromaState(theta, phi))
    return got.hue, got.saturation


def test_rz_leaves_zero_state_alone():
    state = apply_gate(StateVector.zero(1), Gate.rz(1.234), 0)
    assert state.amplitudes[0] == pytest.approx(1.0)
    assert state.amplitudes[1] == 0.0


def test_ry_inverse_pair_is_identity(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    state = StateVector(1, amps)
    fwd = apply_gate(state, Gate.ry(math.pi / 2), 0)
    back = apply_gate(fwd, Gate.ry(-math.pi / 2), 0)
    assert np.abs(back.amplitudes - amps).max() < 1e-12


def test_inverse_sequences_undo(rng):
    for gate in UNITARY_GATES:
        if gate.kind in ("U1", "U2"):
            continue
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        state = StateVector(1, amps)
        out = apply_gate(state, gate, 0)
        for inv in gate.inverse_sequence():
            out = apply_gate(out, inv, 0)
        assert np.abs(out.amplitudes - amps).max() < 1e-12


# ---------------------------------------------------------------------------
# Control patterns and instructions


def test_control_pattern_matches():
    pat = ControlPattern(((0, 1), (2, 0)))
    assert pat.matches(0b001)
    assert pat.matches(0b011)
    assert not pat.matches(0b101)
    assert not pat.matches(0b000)
    assert ControlPattern().matches(0b111)


def test_control_pattern_conflicts():
    with pytest.raises(ValueError):
        ControlPattern(((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        ControlPattern(((0, 2),))


def test_instruction_rejects_target_in_controls():
    from qhsl import ControlConflictError

    with pytest.raises(ControlConflictError):
        Instruction(Gate.x(), 1, ControlPattern(((1, 1),)))


def test_controlled_gate_only_fires_on_match():
    # |10>: qubit 1 set.  X on qubit 0 controlled on qubit 1 flips it.
    state = StateVector.from_basis(2, 0b10)
    out = apply_gate(state, Gate.x(), 0, ControlPattern(((1, 1),)))
    assert out.amplitudes[0b11] == pytest.approx(1.0)
    out = apply_gate(state, Gate.x(), 0, ControlPattern(((1, 0),)))
    assert out.amplitudes[0b10] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Measurement statistics


def test_zero_state_probabilities():
    assert measure_probabilities(StateVector.zero(1), 0) == pytest.approx((1.0, 0.0))


def test_chroma_qubit_probability_split():
    state = apply_gate(StateVector.zero(1), Gate.ry(2 * math.pi / 3), 0)
    p0, p1 = measure_probabilities(state, 0)
    assert p0 == pytest.approx(0.25, abs=1e-12)
    assert p1 == pytest.approx(0.75, abs=1e-12)


def test_sampled_frequency_within_three_sigma():
    state = apply_gate(StateVector.zero(1), Gate.ry(2 * math.pi / 3), 0)
    shots = 10 ** 6
    counts = sample_shots(state, [0], shots, seed=7)
    sigma = math.sqrt(0.25 * 0.75 / shots)
    assert abs(counts.get(0, 0) / shots - 0.25) < 3 * sigma


def test_sample_shots_deterministic():
    state = apply_gate(StateVector.zero(2), Gate.h(), 0)
    a = sample_shots(state, [0, 1], 500, seed=42)
    b = sample_shots(state, [0, 1], 500, seed=42)
    assert a == b


def test_joint_probabilities_bit_order():
    # |01>: qubit 0 is 1, qubit 1 is 0.  Outcome packs qubits[0] as bit 0.
    state = StateVector.from_basis(2, 0b01)
    probs = joint_probabilities(state, [0, 1])
    assert probs[0b01] == pytest.approx(1.0)
    probs = joint_probabilities(state, [1, 0])
    assert probs[0b10] == pytest.approx(1.0)


def test_norm_preserved_by_random_unitary_circuit(rng):
    n = 4
    instrs = []
    for _ in range(300):
        gate = UNITARY_GATES[int(rng.integers(0, len(UNITARY_GATES)))]
        target = int(rng.integers(0, n))
        ctrl = ()
        if rng.random() < 0.5:
            other = int(rng.integers(0, n - 1))
            other += other >= target
            ctrl = ((other, int(rng.integers(0, 2))),)
        instrs.append(Instruction(gate, target, ControlPattern(ctrl)))
    out = run_circuit(StateVector.zero(n), Circuit(n, tuple(instrs)))
    assert out.norm() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# SET semantics


def test_set_one_then_zero():
    state = StateVector.zero(1)
    state = apply_gate(state, Gate.set1(), 0)
    assert state.amplitudes[1] == pytest.approx(1.0)
    state = apply_gate(state, Gate.set0(), 0)
    assert state.amplitudes[0] == pytest.approx(1.0)


def test_set_rejects_superposed_target():
    plus = apply_gate(StateVector.zero(1), Gate.h(), 0)
    with pytest.raises(NonBasisTargetError):
        apply_gate(plus, Gate.set1(), 0)


def test_controlled_set_ignores_unmatched_superposition():
    # Qubit 0 superposed, but the SET only addresses the qubit-1=1 branch
    # where qubit 2 is basis-valued.
    state = apply_gate(StateVector.zero(3), Gate.h(), 0)
    out = apply_gate(state, Gate.set1(), 2, ControlPattern(((1, 1),)))
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12


def test_controlled_set_on_basis_subspace():
    state = apply_gate(StateVector.zero(2), Gate.h(), 0)
    out = apply_gate(state, Gate.set1(), 1, ControlPattern(((0, 1),)))
    # |0>(|0>+|1>)/sqrt2 -> (|00> + |11>)/sqrt2
    assert out.amplitudes[0b00] == pytest.approx(1 / math.sqrt(2))
    assert out.amplitudes[0b11] == pytest.approx(1 / math.sqrt(2))


# ---------------------------------------------------------------------------
# Circuits


def test_empty_circuit_is_identity(rng):
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector(3, amps)
    out = run_circuit(state, Circuit(3, ()))
    assert np.abs(out.amplitudes - amps).max() == 0.0


def test_circuit_dimension_mismatch():
    with pytest.raises(ValueError):
        run_circuit(StateVector.zero(2), Circuit(3, ()))


def test_circuit_concatenation_and_shift():
    x0 = Circuit(1, (Instruction(Gate.x(), 0),))
    shifted = x0.shifted(2, num_qubits=3)
    assert shifted.instructions[0].target == 2
    combined = shifted + Circuit(3, (Instruction(Gate.x(), 0),))
    assert run_on_basis(combined, 0b000) == 0b101


def test_circuit_inverse_restores_state(rng):
    n = 3
    instrs = []
    for _ in range(40):
        gate = [Gate.ry(float(rng.uniform(-3, 3))), Gate.rz(float(rng.uniform(-3, 3))),
                Gate.h(), Gate.x()][int(rng.integers(0, 4))]
        instrs.append(Instruction(gate, int(rng.integers(0, n))))
    circ = Circuit(n, tuple(instrs))
    state = run_circuit(StateVector.zero(n), circ)
    back = run_circuit(state, circ.inverse())
    assert abs(back.amplitudes[0] - 1.0) < 1e-12


def test_load_constant_places_x_on_set_bits():
    circ = load_constant(37, [0, 1, 2, 3, 4, 5, 6, 7])
    targets = sorted(i.target for i in circ.instructions)
    assert targets == [0, 2, 5]
    assert all(i.gate.kind == "X" for i in circ.instructions)
    assert run_on_basis(circ, 0) == 37


def test_load_constant_zero_is_empty():
    assert load_constant(0, [0, 1]).instructions == ()


def test_load_constant_two_bits():
    circ = load_constant(3, [4, 5], num_qubits=6)
    assert run_on_basis(circ, 0) == 0b110000


def test_run_on_basis_rejects_rotations():
    circ = Circuit(1, (Instruction(Gate.h(), 0),))
    with pytest.raises(NonClassicalGateError):
        run_on_basis(circ, 0)
    with pytest.raises(NonClassicalGateError):
        run_on_basis_array(circ, np.array([0]))


def test_run_on_basis_array_matches_scalar(rng):
    instrs = []
    for _ in range(30):
        kind = int(rng.integers(0, 3))
        gate = (Gate.x(), Gate.set0(), Gate.set1())[kind]
        target = int(rng.integers(0, 6))
        other = int(rng.integers(0, 5))
        other += other >= target
        instrs.append(Instruction(gate, target, ControlPattern(((other, int(rng.integers(0, 2))),))))
    circ = Circuit(6, tuple(instrs))
    basis = np.arange(64)
    vec = run_on_basis_array(circ, basis)
    assert [run_on_basis(circ, b) for b in range(64)] == list(vec)


def test_register_overlap_rejected():
    from qhsl import ripple_adder

    with pytest.raises(RegisterOverlapError):
        ripple_adder(2, [0, 1], [1, 2], 3, [4, 5])


# ---------------------------------------------------------------------------
# Gate kernel against the tensordot reference


def tensordot_apply(arr, num_qubits, instr):
    """The original kernel: move the target axis first, contract with the matrix."""
    target_axis = num_qubits - 1 - instr.target
    index = [slice(None)] * num_qubits
    control_axes = []
    for q, b in instr.controls.terms:
        ax = num_qubits - 1 - q
        index[ax] = b
        control_axes.append(ax)
    sub = arr[tuple(index)]
    reduced_axis = target_axis - sum(1 for ax in control_axes if ax < target_axis)
    moved = np.moveaxis(sub, reduced_axis, 0)
    gate = instr.gate
    if gate.kind in ("SET0", "SET1"):
        overlap = np.minimum(np.abs(moved[0]), np.abs(moved[1]))
        worst = float(overlap.max()) if overlap.size else 0.0
        if worst > 1e-9:
            raise NonBasisTargetError(f"{gate.kind} on qubit {instr.target}: target is in superposition")
        merged = moved[0] + moved[1]
        keep = 1 if gate.kind == "SET1" else 0
        moved[keep] = merged
        moved[1 - keep] = 0.0
        flat = arr.reshape(-1)
        flat /= np.linalg.norm(flat)
    else:
        moved[...] = np.tensordot(gate.matrix(), moved, axes=(1, 0))


def reference_run(amps, num_qubits, instrs):
    arr = amps.copy().reshape([2] * num_qubits)
    for instr in instrs:
        tensordot_apply(arr, num_qubits, instr)
    return arr.reshape(-1)


ALL_GATES = UNITARY_GATES + [Gate.set0(), Gate.set1()]
# permutations and SET gates round nothing differently, so they match bit for bit
EXACT_KINDS = {"X", "I", "SET0", "SET1"}


def random_amplitudes(rng, num_qubits, basis_target=None):
    """A random normalized state; with ``basis_target``, every pair of basis
    states differing only in that qubit has one side zeroed, so SET gates
    on it are legal under any controls."""
    amps = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    if basis_target is not None:
        pairs = amps.reshape(-1, 2, 2 ** basis_target)
        one = rng.integers(0, 2, size=(pairs.shape[0], 1, pairs.shape[2])).astype(bool)
        pairs *= np.concatenate([~one, one], axis=1)
    return amps / np.linalg.norm(amps)


def random_instruction(rng, num_qubits, gate, cover_all=False):
    target = int(rng.integers(0, num_qubits))
    others = [q for q in range(num_qubits) if q != target and (cover_all or rng.random() < 0.5)]
    return Instruction(gate, target, ControlPattern(tuple((q, int(rng.integers(0, 2))) for q in others)))


def assert_kernel_matches(amps, num_qubits, instr):
    got = apply_gate(StateVector(num_qubits, amps), instr.gate, instr.target, instr.controls)
    want = reference_run(amps, num_qubits, [instr])
    if instr.gate.kind in EXACT_KINDS:
        assert np.array_equal(got.amplitudes, want)
    else:
        assert np.abs(got.amplitudes - want).max() < 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.kind)
def test_kernel_matches_tensordot_reference(num_qubits, gate):
    rng = np.random.default_rng(1000 * num_qubits + ALL_GATES.index(gate))
    for trial in range(12):
        # every fourth instruction pins all qubits with controls plus target
        instr = random_instruction(rng, num_qubits, gate, cover_all=trial % 4 == 0)
        basis_target = instr.target if not gate.is_unitary else None
        assert_kernel_matches(random_amplitudes(rng, num_qubits, basis_target), num_qubits, instr)


@pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.kind)
@pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_kernel_controls_above_and_below_target(gate, bits, rng):
    # target qubit 1 with one control below (qubit 0) and one above (qubit 2),
    # alone and together; together they pin every axis of the 3-qubit state
    below, above = (0, bits[0]), (2, bits[1])
    for terms in ((below,), (above,), (below, above)):
        instr = Instruction(gate, 1, ControlPattern(terms))
        basis_target = 1 if not gate.is_unitary else None
        assert_kernel_matches(random_amplitudes(rng, 3, basis_target), 3, instr)


def test_kernel_random_circuits_match_reference(rng):
    for num_qubits in range(1, 7):
        instrs = []
        for _ in range(40):
            gate = UNITARY_GATES[int(rng.integers(0, len(UNITARY_GATES)))]
            instrs.append(random_instruction(rng, num_qubits, gate, cover_all=rng.random() < 0.2))
        amps = random_amplitudes(rng, num_qubits)
        got = run_circuit(StateVector(num_qubits, amps), Circuit(num_qubits, tuple(instrs)))
        assert np.abs(got.amplitudes - reference_run(amps, num_qubits, instrs)).max() < 1e-12


@pytest.mark.parametrize("gate", [Gate.set0(), Gate.set1()], ids=lambda g: g.kind)
def test_kernel_set_rejects_superposed_target_under_full_controls(gate):
    # qubit 0 superposed on the qubit-1=0 branch that the SET addresses
    state = apply_gate(StateVector.zero(2), Gate.h(), 0)
    with pytest.raises(NonBasisTargetError):
        apply_gate(state, gate, 0, ControlPattern(((1, 0),)))
    with pytest.raises(NonBasisTargetError):
        reference_run(state.amplitudes, 2, [Instruction(gate, 0, ControlPattern(((1, 0),)))])
    # the qubit-1=1 branch is empty, so the same SET there is legal
    out = apply_gate(state, gate, 0, ControlPattern(((1, 1),)))
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12
