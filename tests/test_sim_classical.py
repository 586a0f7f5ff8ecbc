"""The support kernel for runs of classical gates against the dense kernel.

``run_circuit`` hands a long run of X/I/SET0/SET1 instructions to
``_run_on_support``, which moves only the nonzero amplitudes.  It must leave
the same bytes as ``_apply_inplace`` applied per instruction, signed zeros
included, and refuse the same SET gates with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qhsl.sim as sim
from qhsl import (
    Circuit,
    ControlPattern,
    Gate,
    Instruction,
    NonBasisTargetError,
    StateVector,
    preparation_circuit,
    run_circuit,
)
from test_circuit_digests import CASES, run_digests
from conftest import random_image

KINDS = ("X", "I", "SET0", "SET1")
COMPONENTS = st.one_of(st.just(0.0), st.just(-0.0),
                       st.floats(-4.0, 4.0, allow_subnormal=True))


@st.composite
def states(draw, data_qubits: int, num_qubits: int):
    """Amplitudes over ``num_qubits`` with every qubit from ``data_qubits`` up
    at |0>: random components, -0.0 among them, and +0 holes elsewhere.  One
    entry of modulus at least 1 keeps the norm a SET divides by from
    underflowing, as a normalized state's does."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    for i in range(2 ** data_qubits):
        if draw(st.booleans()):
            amps[i] = complex(draw(COMPONENTS), draw(COMPONENTS))
    amps[draw(st.integers(0, 2 ** data_qubits - 1))] = complex(draw(COMPONENTS), 1.0)
    return amps


def controls(draw, num_qubits: int, target: int, allowed) -> ControlPattern:
    qubits = [q for q in allowed if q != target and draw(st.booleans())]
    return ControlPattern(tuple((q, draw(st.integers(0, 1))) for q in qubits))


@st.composite
def legal_runs(draw):
    """A state and a classical run whose SET gates are legal by construction.

    Qubits below ``data`` hold the state's amplitudes; the flag qubits above
    start at |0>.  Gates on data qubits are X or I controlled by data qubits
    only, which permutes the data values, so every flag stays a function of
    the data qubits, and SETs target only flags: no pair a SET merges holds
    amplitude on both sides."""
    num_qubits = draw(st.integers(2, 7))
    data = draw(st.integers(1, num_qubits - 1))
    amps = draw(states(data, num_qubits))
    run = []
    for _ in range(draw(st.integers(1, 12))):
        target = draw(st.integers(0, num_qubits - 1))
        if target < data:
            kind = draw(st.sampled_from(("X", "I")))
            allowed = range(num_qubits) if kind == "I" else range(data)
        else:
            kind = draw(st.sampled_from(KINDS))
            allowed = range(num_qubits)
        run.append(Instruction(Gate(kind), target, controls(draw, num_qubits, target, allowed)))
    return num_qubits, amps, run


def dense(amps: np.ndarray, num_qubits: int, run) -> np.ndarray:
    arr = amps.copy().reshape([2] * num_qubits)
    for instr in run:
        sim._apply_inplace(arr, num_qubits, instr)
    return arr.reshape(-1)


def on_support(amps: np.ndarray, run) -> np.ndarray:
    flat = amps.copy()
    with pytest.MonkeyPatch.context() as patch:
        # at no cost the support kernel takes every run, however small
        for name in ("_SCAN_COST", "_MOVE_COST", "_GATE_COST"):
            patch.setattr(sim, name, 0)
        assert sim._run_on_support(flat, run)
    return flat


@given(legal_runs())
def test_support_run_matches_dense_kernel_bit_for_bit(case):
    num_qubits, amps, run = case
    assert on_support(amps, run).tobytes() == dense(amps, num_qubits, run).tobytes()


@st.composite
def illegal_runs(draw):
    """A run of X gates ending in a SET whose target pair holds amplitude on
    both sides when the SET is reached.  The state is drawn as it stands
    before the SET, then walked back through the X gates, which are their
    own inverses and move amplitudes without rounding."""
    num_qubits = draw(st.integers(2, 6))
    before = draw(states(num_qubits, num_qubits))
    target = draw(st.integers(0, num_qubits - 1))
    pattern = controls(draw, num_qubits, target, range(num_qubits))
    index = draw(st.integers(0, 2 ** num_qubits - 1)) & ~(1 << target)
    for q, b in pattern.terms:
        index = index & ~(1 << q) | (b << q)
    for i in (index, index | 1 << target):
        before[i] = complex(draw(st.floats(1e-3, 2.0)), draw(COMPONENTS))
    xs = [Instruction(Gate.x(), t, controls(draw, num_qubits, t, range(num_qubits)))
          for t in draw(st.lists(st.integers(0, num_qubits - 1), max_size=8))]
    start = dense(before, num_qubits, xs[::-1])
    assert dense(start, num_qubits, xs).tobytes() == before.tobytes()
    kind = draw(st.sampled_from(("SET0", "SET1")))
    return num_qubits, start, xs + [Instruction(Gate(kind), target, pattern)]


@given(illegal_runs())
def test_support_run_refuses_an_illegal_set_with_the_dense_message(case):
    num_qubits, amps, run = case
    with pytest.raises(NonBasisTargetError) as want:
        dense(amps, num_qubits, run)
    with pytest.raises(NonBasisTargetError) as got:
        on_support(amps, run)
    assert str(got.value) == str(want.value)
    assert "amplitude overlap" in str(got.value)


def support_calls(monkeypatch) -> list:
    """Record the outcome of every ``_run_on_support`` call."""
    calls = []
    real = sim._run_on_support

    def spy(flat, run):
        calls.append(real(flat, run))
        return calls[-1]
    monkeypatch.setattr(sim, "_run_on_support", spy)
    return calls


# the digest cases whose classical runs are long enough to move the support;
# their pinned amplitude digests pin the support kernel
SUPPORT_CASES = (["n2q3.lighten.k1", "n2q3.lighten.k7", "n2q3.darken.k1", "n2q3.darken.k7"]
                 + sorted(name for name in CASES if ".comparator_region." in name))


@pytest.mark.parametrize("name", SUPPORT_CASES)
def test_digest_cases_take_the_support_kernel(monkeypatch, name):
    calls = support_calls(monkeypatch)
    run_digests(name)
    assert True in calls


def test_preparation_stays_on_the_dense_kernel(monkeypatch):
    # about 4 X gates with 8 controls between R gates: too short to scan for
    img = random_image(np.random.default_rng(4), 4, 8)
    circuit = preparation_circuit(img)
    calls = support_calls(monkeypatch)
    run_circuit(StateVector.zero(circuit.num_qubits), circuit)
    assert True not in calls


def test_wide_support_stays_on_the_dense_kernel(monkeypatch):
    # every amplitude is nonzero, so moving the support costs more than the
    # dense kernel even though the run is long enough to scan for it
    num_qubits = 12
    amps = np.full(2 ** num_qubits, 2.0 ** (-num_qubits / 2), dtype=complex)
    run = tuple(Instruction(Gate.x(), q % num_qubits) for q in range(8))
    calls = support_calls(monkeypatch)
    out = run_circuit(StateVector(num_qubits, amps), Circuit(num_qubits, run))
    assert calls == [False]
    assert out.amplitudes.tobytes() == dense(amps, num_qubits, run).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_vector_refuses_a_non_finite_norm(bad):
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = 1.0, bad
    with pytest.raises(ValueError, match="is not 1"):
        StateVector(2, amps)
