import numpy as np
import pytest

from qhsl import StateVector, run_circuit, run_on_basis, ripple_adder, comparator
from qhsl import saturating_add_circuit, saturating_sub_circuit
from qhsl.sim import run_on_basis_array


def adder_layout(width):
    a = list(range(width))
    b = list(range(width, 2 * width))
    carry = 2 * width
    work = list(range(2 * width + 1, 3 * width + 1))
    return a, b, carry, work


def all_pairs_basis(width):
    vals = np.arange(2 ** width, dtype=np.int64)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    return a.ravel(), b.ravel()


# ---------------------------------------------------------------------------
# Ripple adder


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_adder_exhaustive(width):
    a_reg, b_reg, carry, work = adder_layout(width)
    circ = ripple_adder(width, a_reg, b_reg, carry, work)
    av, bv = all_pairs_basis(width)
    out = run_on_basis_array(circ, av | (bv << width))
    mask = 2 ** width - 1
    total = av + bv
    assert np.array_equal(out & mask, av)  # addend preserved
    assert np.array_equal((out >> width) & mask, total & mask)
    assert np.array_equal((out >> (2 * width)) & 1, (total >> width) & 1)
    assert np.array_equal(out >> (2 * width + 1), np.zeros_like(out))  # work cleared


def test_adder_eight_bit_overflow_example():
    a_reg, b_reg, carry, work = adder_layout(8)
    circ = ripple_adder(8, a_reg, b_reg, carry, work)
    out = run_on_basis(circ, 200 | (100 << 8))
    assert out & 0xFF == 200
    assert (out >> 8) & 0xFF == (200 + 100) % 256
    assert (out >> 16) & 1 == 1


def test_adder_zero_addend_is_identity():
    a_reg, b_reg, carry, work = adder_layout(3)
    circ = ripple_adder(3, a_reg, b_reg, carry, work)
    for b in range(8):
        assert run_on_basis(circ, b << 3) == b << 3


def test_adder_inverse_restores():
    width = 3
    a_reg, b_reg, carry, work = adder_layout(width)
    circ = ripple_adder(width, a_reg, b_reg, carry, work)
    roundtrip = circ + circ.inverse()
    av, bv = all_pairs_basis(width)
    basis = av | (bv << width)
    assert np.array_equal(run_on_basis_array(roundtrip, basis), basis)


def test_adder_dense_matches_basis_path():
    width = 2
    a_reg, b_reg, carry, work = adder_layout(width)
    circ = ripple_adder(width, a_reg, b_reg, carry, work)
    for a in range(4):
        for b in range(4):
            basis = a | (b << width)
            state = run_circuit(StateVector.from_basis(circ.num_qubits, basis), circ)
            expect = run_on_basis(circ, basis)
            assert abs(state.amplitudes[expect] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Comparator


def comparator_layout(width):
    a = list(range(width))
    b = list(range(width, 2 * width))
    greater = 2 * width
    less = 2 * width + 1
    work = list(range(2 * width + 2, 3 * width + 2))
    return a, b, greater, less, work


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_comparator_exhaustive(width):
    a_reg, b_reg, greater, less, work = comparator_layout(width)
    circ = comparator(width, a_reg, b_reg, greater, less, work)
    av, bv = all_pairs_basis(width)
    out = run_on_basis_array(circ, av | (bv << width))
    mask = 2 ** width - 1
    assert np.array_equal(out & mask, av)
    assert np.array_equal((out >> width) & mask, bv)
    assert np.array_equal((out >> (2 * width)) & 1, (av > bv).astype(np.int64))
    assert np.array_equal((out >> (2 * width + 1)) & 1, (av < bv).astype(np.int64))
    assert np.array_equal(out >> (2 * width + 2), np.zeros_like(out))


def test_comparator_example_194_vs_37():
    a_reg, b_reg, greater, less, work = comparator_layout(8)
    circ = comparator(8, a_reg, b_reg, greater, less, work)
    out = run_on_basis(circ, 194 | (37 << 8))
    assert (out >> 16) & 1 == 1
    assert (out >> 17) & 1 == 0


def test_comparator_equal_values_leave_flags_clear():
    a_reg, b_reg, greater, less, work = comparator_layout(4)
    circ = comparator(4, a_reg, b_reg, greater, less, work)
    for v in range(16):
        out = run_on_basis(circ, v | (v << 4))
        assert out == v | (v << 4)


def test_comparator_dense_on_superposed_flags():
    # The comparator must act linearly across a superposition of inputs.
    width = 1
    a_reg, b_reg, greater, less, work = comparator_layout(width)
    circ = comparator(width, a_reg, b_reg, greater, less, work)
    amps = np.zeros(2 ** circ.num_qubits, dtype=complex)
    amps[0b00] = amps[0b01] = amps[0b10] = 1.0 / np.sqrt(3)  # (a,b) of (0,0),(1,0),(0,1)
    state = run_circuit(StateVector(circ.num_qubits, amps), circ)
    expect = np.zeros_like(amps)
    expect[0b00] = 1.0 / np.sqrt(3)
    expect[0b01 | (1 << 2)] = 1.0 / np.sqrt(3)  # a=1>b -> greater
    expect[0b10 | (1 << 3)] = 1.0 / np.sqrt(3)  # b=1>a -> less
    assert np.abs(state.amplitudes - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# Saturating constant arithmetic


def saturating_layout(width):
    target = list(range(width))
    addend = list(range(width, 2 * width))
    carry = 2 * width
    work = list(range(2 * width + 1, 3 * width + 1))
    return target, addend, carry, work


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_saturating_add_exhaustive(width):
    target, addend, carry, work = saturating_layout(width)
    top = 2 ** width - 1
    values = np.arange(2 ** width, dtype=np.int64)
    for k in range(2 ** width):
        circ = saturating_add_circuit(width, k, target, addend, carry, work)
        out = run_on_basis_array(circ, values)
        assert np.array_equal(out & top, np.minimum(values + k, top))
        assert np.array_equal(out >> width, np.zeros_like(out))  # workspace clear


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_saturating_sub_exhaustive(width):
    target, addend, carry, work = saturating_layout(width)
    top = 2 ** width - 1
    values = np.arange(2 ** width, dtype=np.int64)
    for k in range(2 ** width):
        circ = saturating_sub_circuit(width, k, target, addend, carry, work)
        out = run_on_basis_array(circ, values)
        assert np.array_equal(out & top, np.maximum(values - k, 0))
        assert np.array_equal(out >> width, np.zeros_like(out))


def test_saturating_eight_bit_random(rng):
    target, addend, carry, work = saturating_layout(8)
    values = np.arange(256, dtype=np.int64)
    for k in rng.integers(0, 256, size=40):
        add = saturating_add_circuit(8, int(k), target, addend, carry, work)
        sub = saturating_sub_circuit(8, int(k), target, addend, carry, work)
        assert np.array_equal(run_on_basis_array(add, values) & 0xFF,
                              np.minimum(values + k, 255))
        assert np.array_equal(run_on_basis_array(sub, values) & 0xFF,
                              np.maximum(values - k, 0))


def test_saturating_add_clamps_200_plus_100():
    target, addend, carry, work = saturating_layout(8)
    circ = saturating_add_circuit(8, 100, target, addend, carry, work)
    assert run_on_basis(circ, 200) == 255


def test_saturating_add_dense_with_distinguishing_qubit():
    # Branches tagged by an extra qubit (a stand-in for position) clamp
    # independently; 1+2=3 stays unitary, 3+2 clamps to 3.
    width = 2
    target, addend, carry, work = saturating_layout(width)
    inner = saturating_add_circuit(width, 2, target, addend, carry, work)
    circ = inner.shifted(0, inner.num_qubits + 1)
    tag = 1 << inner.num_qubits
    amps = np.zeros(2 ** circ.num_qubits, dtype=complex)
    amps[1] = amps[3 | tag] = 1.0 / np.sqrt(2)
    state = run_circuit(StateVector(circ.num_qubits, amps), circ)
    probs = np.abs(state.amplitudes) ** 2
    assert probs[3] == pytest.approx(0.5, abs=1e-9)
    assert probs[3 | tag] == pytest.approx(0.5, abs=1e-9)


def test_saturating_add_refuses_merging_branches():
    # Without a distinguishing register, clamping would collapse two
    # orthogonal branches onto one basis state; the SET guard must fire.
    from qhsl import NonBasisTargetError

    width = 2
    target, addend, carry, work = saturating_layout(width)
    circ = saturating_add_circuit(width, 2, target, addend, carry, work)
    amps = np.zeros(2 ** circ.num_qubits, dtype=complex)
    amps[1] = amps[3] = 1.0 / np.sqrt(2)  # 1+2=3 and 3+2 clamped to 3 collide
    with pytest.raises(NonBasisTargetError):
        run_circuit(StateVector(circ.num_qubits, amps), circ)


def saturating_add_by_joins(width, value, target, addend, carry, work, num_qubits):
    """The original assembly: a chain of Circuit joins."""
    from qhsl import Circuit, ControlPattern, Gate, Instruction, load_constant

    loader = load_constant(value, addend, num_qubits)
    adder = ripple_adder(width, addend, target, carry, work, num_qubits)
    clamp = [Instruction(Gate.set1(), t, ControlPattern(((carry, 1),))) for t in target]
    clear = [Instruction(Gate.set0(), carry)]
    return loader + adder + Circuit(num_qubits, tuple(clamp + clear)) + loader


def saturating_sub_by_joins(width, value, target, addend, carry, work, num_qubits):
    from qhsl import Circuit, Gate, Instruction

    invert = Circuit(num_qubits, tuple(Instruction(Gate.x(), t) for t in target))
    inner = saturating_add_by_joins(width, value, target, addend, carry, work, num_qubits)
    return invert + inner + invert


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_saturating_circuits_match_joined_assembly(width):
    registers = saturating_layout(width)
    for k in range(2 ** width):
        for built, joined in ((saturating_add_circuit, saturating_add_by_joins),
                              (saturating_sub_circuit, saturating_sub_by_joins)):
            # default register size, then one widened by two spare qubits
            assert built(width, k, *registers) == joined(width, k, *registers, 3 * width + 1)
            assert built(width, k, *registers, 3 * width + 3) == \
                joined(width, k, *registers, 3 * width + 3)
