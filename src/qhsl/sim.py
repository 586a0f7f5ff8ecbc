"""Dense statevector simulator for the small gate vocabulary used here.

Qubit 0 is the least significant bit of a basis index.  Every gate acts on
a single target qubit; multi-qubit behaviour comes from control patterns,
which may require either bit value per control qubit.  Two non-unitary
"set" gates force a target qubit to a basis value and are only legal when
the target already holds a basis value on the controlled subspace.

The ``_KINDS`` table is the one place a gate kind is defined: its
parameter count, its 2x2 matrix, the gates that undo it and its action on
a basis index.  ``Gate``, ``run_on_basis_array`` and ``run_circuit``'s
support kernel read it.

Arithmetic circuits (ripple-carry adder, comparator) are built from
controlled X gates, so they can also be evaluated directly on classical
basis states via :func:`run_on_basis` without touching amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ControlConflictError,
    NonBasisTargetError,
    NonClassicalGateError,
    RegisterOverlapError,
)

SET_TOLERANCE = 1e-9

# Costs of a classical run on the state's support, in amplitude pairs moved by
# the dense kernel: per amplitude to find the support, per support entry per
# gate, and per gate for the extra numpy calls
_SCAN_COST, _MOVE_COST, _GATE_COST = 1, 4, 1024

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _ry_rows(dtheta: float) -> list:
    c, s = math.cos(0.5 * dtheta), math.sin(0.5 * dtheta)
    return [[c, -s], [s, c]]


def _r_rows(dphi: float, dtheta: float) -> list:
    c, s = math.cos(0.5 * dtheta), math.sin(0.5 * dtheta)
    ph = np.exp(1j * dphi)
    return [[c, -s], [ph * s, ph * c]]


@dataclass(frozen=True)
class _Kind:
    """One gate kind: ``rows`` (the 2x2 matrix) and ``inverse`` take the
    gate's parameters, ``on_basis`` maps (basis indices, target bit) to
    indices.  None marks a kind that is not unitary, has no inverse in the
    vocabulary, or can create superpositions."""

    params: int
    rows: Callable[..., list] | None = None
    inverse: Callable[..., tuple["Gate", ...]] | None = None
    on_basis: Callable | None = None


_KINDS = {
    "RY": _Kind(1, _ry_rows, lambda dtheta: (Gate.ry(-dtheta),)),
    "RZ": _Kind(1, lambda dphi: [[1.0, 0.0], [0.0, np.exp(1j * dphi)]],
                lambda dphi: (Gate.rz(-dphi),)),
    "R": _Kind(2, _r_rows, lambda dphi, dtheta: (Gate.rz(-dphi), Gate.ry(-dtheta))),
    "H": _Kind(0, lambda: [[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], lambda: (Gate.h(),)),
    "X": _Kind(0, lambda: [[0.0, 1.0], [1.0, 0.0]], lambda: (Gate.x(),),
               lambda basis, bit: basis ^ bit),
    "I": _Kind(0, lambda: [[1.0, 0.0], [0.0, 1.0]], lambda: (Gate.i(),), lambda basis, bit: basis),
    "SET0": _Kind(0, on_basis=lambda basis, bit: basis & ~bit),
    "SET1": _Kind(0, on_basis=lambda basis, bit: basis | bit),
    "U1": _Kind(0, lambda: [[_SQRT1_2, _SQRT1_2], [-_SQRT1_2, _SQRT1_2]]),
    "U2": _Kind(0, lambda: [[_SQRT1_2, -1j * _SQRT1_2], [-1j * _SQRT1_2, _SQRT1_2]]),
}


@dataclass(frozen=True)
class Gate:
    """A named single-qubit operation with angle parameters.

    R(dphi, dtheta) is the composite RZ(dphi) @ RY(dtheta): a theta
    rotation followed by a phase, taking |0> to the chroma state with
    angles (dtheta, dphi).
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        if len(params) != spec.params:
            raise ValueError(f"{self.kind} takes {spec.params} parameters, got {len(params)}")
        if any(not math.isfinite(p) for p in params):
            raise ValueError("gate parameters must be finite")
        object.__setattr__(self, "params", params)

    @classmethod
    def ry(cls, dtheta: float) -> "Gate":
        return cls("RY", (dtheta,))

    @classmethod
    def rz(cls, dphi: float) -> "Gate":
        return cls("RZ", (dphi,))

    @classmethod
    def r(cls, dphi: float, dtheta: float) -> "Gate":
        return cls("R", (dphi, dtheta))

    @classmethod
    def h(cls) -> "Gate":
        return cls("H")

    @classmethod
    def x(cls) -> "Gate":
        return cls("X")

    @classmethod
    def i(cls) -> "Gate":
        return cls("I")

    @classmethod
    def set0(cls) -> "Gate":
        return cls("SET0")

    @classmethod
    def set1(cls) -> "Gate":
        return cls("SET1")

    @classmethod
    def u1(cls) -> "Gate":
        return cls("U1")

    @classmethod
    def u2(cls) -> "Gate":
        return cls("U2")

    @property
    def is_unitary(self) -> bool:
        return _KINDS[self.kind].rows is not None

    def matrix(self) -> np.ndarray:
        """2x2 matrix of a unitary gate kind."""
        rows = _KINDS[self.kind].rows
        if rows is None:
            raise ValueError(f"{self.kind} has no unitary matrix")
        return np.array(rows(*self.params), dtype=complex)

    def inverse_sequence(self) -> tuple["Gate", ...]:
        """Gates that undo this one, in application order."""
        make = _KINDS[self.kind].inverse
        if make is None:
            raise ValueError(f"{self.kind} has no inverse within the gate vocabulary")
        return make(*self.params)


@dataclass(frozen=True)
class ControlPattern:
    """Required bit values on a set of control qubits.

    Terms are (qubit, bit) pairs with distinct qubits; they are stored
    sorted by qubit so equal patterns compare equal.  An empty pattern
    matches every basis state.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        terms = tuple((int(q), int(b)) for q, b in self.terms)
        for q, b in terms:
            if q < 0:
                raise ValueError(f"control qubit {q} is negative")
            if b not in (0, 1):
                raise ValueError(f"control bit for qubit {q} must be 0 or 1, got {b}")
        if len({q for q, _ in terms}) != len(terms):
            raise ValueError("duplicate control qubit in pattern")
        object.__setattr__(self, "terms", tuple(sorted(terms)))

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.terms)

    def matches(self, basis: int | np.ndarray) -> bool | np.ndarray:
        """Whether a basis index, or each index of an integer array, matches."""
        return (basis & sum(1 << q for q, _ in self.terms)) == sum(b << q for q, b in self.terms)

    def shifted(self, offset: int) -> "ControlPattern":
        return ControlPattern(tuple((q + offset, b) for q, b in self.terms))

    @staticmethod
    def merge(*patterns: "ControlPattern") -> "ControlPattern":
        terms: list[tuple[int, int]] = []
        for p in patterns:
            terms.extend(p.terms)
        return ControlPattern(tuple(terms))


EMPTY_PATTERN = ControlPattern()


@dataclass(frozen=True)
class Instruction:
    gate: Gate
    target: int
    controls: ControlPattern = EMPTY_PATTERN

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError("target qubit is negative")
        if self.target in self.controls.qubits:
            raise ControlConflictError(f"target qubit {self.target} appears in its own controls")


@dataclass(frozen=True)
class Circuit:
    """An ordered list of instructions over a fixed register size."""

    num_qubits: int
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        instrs = tuple(self.instructions)
        for ins in instrs:
            top = max((ins.target, *ins.controls.qubits))
            if top >= self.num_qubits:
                raise ValueError(f"instruction touches qubit {top} outside register of {self.num_qubits}")
        object.__setattr__(self, "instructions", instrs)

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot concatenate circuits of different sizes")
        return Circuit(self.num_qubits, self.instructions + other.instructions)

    def shifted(self, offset: int, num_qubits: int) -> "Circuit":
        """Embed into a wider register with all qubit indices offset."""
        instrs = tuple(
            Instruction(ins.gate, ins.target + offset, ins.controls.shifted(offset))
            for ins in self.instructions
        )
        return Circuit(num_qubits, instrs)

    def controlled(self, extra: ControlPattern) -> "Circuit":
        """Add the same controls to every instruction."""
        instrs = tuple(
            Instruction(ins.gate, ins.target, ControlPattern.merge(ins.controls, extra))
            for ins in self.instructions
        )
        return Circuit(self.num_qubits, instrs)

    def inverse(self) -> "Circuit":
        instrs: list[Instruction] = []
        for ins in reversed(self.instructions):
            for g in ins.gate.inverse_sequence():
                instrs.append(Instruction(g, ins.target, ins.controls))
        return Circuit(self.num_qubits, tuple(instrs))


class StateVector:
    """Complex amplitudes over 2**num_qubits basis states."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (2 ** num_qubits,):
            raise ValueError(f"expected {2 ** num_qubits} amplitudes, got {amplitudes.shape}")
        norm2 = float(np.vdot(amplitudes, amplitudes).real)
        if not abs(norm2 - 1.0) <= 1e-9:  # a NaN norm is refused too
            raise ValueError(f"state norm^2 {norm2} is not 1")
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls.from_basis(num_qubits, 0)

    @classmethod
    def from_basis(cls, num_qubits: int, basis: int) -> "StateVector":
        if not 0 <= basis < 2 ** num_qubits:
            raise ValueError(f"basis index {basis} outside register")
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[basis] = 1.0
        return cls(num_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, qubit: int) -> tuple[float, float]:
        return measure_probabilities(self, qubit)


def _check_set(instr: Instruction, half0: np.ndarray, half1: np.ndarray) -> None:
    overlap = np.minimum(np.abs(half0), np.abs(half1))
    worst = float(overlap.max()) if overlap.size else 0.0
    if worst > SET_TOLERANCE:
        raise NonBasisTargetError(
            f"{instr.gate.kind} on qubit {instr.target}: target is in superposition "
            f"(amplitude overlap {worst:.3e} exceeds {SET_TOLERANCE:.0e})")


def _apply_inplace(arr: np.ndarray, num_qubits: int, instr: Instruction) -> None:
    # arr has shape [2]*num_qubits with qubit k on axis (num_qubits-1-k)
    index: list = [slice(None)] * num_qubits
    for q, b in instr.controls.terms:
        index[num_qubits - 1 - q] = b
    target_axis = num_qubits - 1 - instr.target
    # the trailing Ellipsis keeps a 0-d view (not a scalar copy) when the
    # controls and target pin every axis
    index[target_axis] = 0
    half0 = arr[(*index, Ellipsis)]
    index[target_axis] = 1
    half1 = arr[(*index, Ellipsis)]
    gate = instr.gate
    if not gate.is_unitary:
        _check_set(instr, half0, half1)
        keep, drop = (half1, half0) if gate.kind == "SET1" else (half0, half1)
        keep += drop
        drop[...] = 0.0
        flat = arr.reshape(-1)
        flat /= np.linalg.norm(flat)
    elif gate.kind == "X":
        old0 = half0.copy()
        half0[...] = half1
        half1[...] = old0
    else:
        (m00, m01), (m10, m11) = gate.matrix()
        old0 = half0.copy()
        half0 *= m00
        half0 += m01 * half1
        half1 *= m11
        half1 += m10 * old0


def apply_gate(state: StateVector, gate: Gate, target: int,
               controls: ControlPattern = EMPTY_PATTERN) -> StateVector:
    """Apply one (controlled) gate and return the new state."""
    return run_circuit(state, Circuit(state.num_qubits, (Instruction(gate, target, controls),)))


def run_circuit(initial: StateVector, circuit: Circuit) -> StateVector:
    """Apply a circuit's instructions in order."""
    if circuit.num_qubits != initial.num_qubits:
        raise ValueError(f"circuit is over {circuit.num_qubits} qubits, state over {initial.num_qubits}")
    arr = initial.amplitudes.copy().reshape([2] * initial.num_qubits)
    for classical, run in groupby(circuit.instructions,
                                  lambda ins: _KINDS[ins.gate.kind].on_basis is not None):
        run = tuple(run)
        if not (classical and _run_on_support(arr.reshape(-1), run)):
            for instr in run:
                _apply_inplace(arr, initial.num_qubits, instr)
    return StateVector(initial.num_qubits, arr.reshape(-1))


def _run_on_support(flat: np.ndarray, run: Sequence[Instruction]) -> bool:
    """Apply classical instructions to the nonzero amplitudes only, when that
    beats the dense kernel; return whether it ran.  Entries outside ``idx``
    hold +0, which ``_apply_inplace`` leaves +0, so the bytes match its own."""
    # what moving the support may cost and still beat the dense kernel
    budget = (sum((flat.size >> (1 + len(ins.controls.terms))) - _GATE_COST for ins in run)
              - _SCAN_COST * flat.size)
    if budget <= 0:
        return False
    # the support is every entry with a set bit in either word, so -0.0
    # components move too; each entry's two word tests pair into a uint16
    idx = np.flatnonzero((flat.view(np.uint64) != 0).view(np.uint16))
    if _MOVE_COST * len(run) * idx.size > budget:
        return False
    for instr in run:
        kind, bit = instr.gate.kind, 1 << instr.target
        hit = instr.controls.matches(idx)
        src = idx[hit]
        dst = _KINDS[kind].on_basis(src, bit)
        if kind == "X":
            vals = flat[src]
            flat[src] = 0.0
            flat[dst] = vals
        elif kind == "I":  # the dense kernel's matrix product, which can clear a -0.0
            (one, zero), _ = instr.gate.matrix()
            flat[src] = flat[src] * one + zero * flat[src ^ bit]
        else:
            drop = dst ^ bit
            _check_set(instr, flat[dst], flat[drop])
            flat[dst] += flat[drop]
            flat[drop] = 0.0
        idx[hit] = dst
        if not instr.gate.is_unitary:
            flat[idx] /= np.linalg.norm(flat)
    return True


def run_on_basis(circuit: Circuit, basis: int) -> int:
    """Track a classical basis state through X/I/SET instructions.

    This is the fast path for exhaustive arithmetic checks; any gate that
    could create superposition raises NonClassicalGateError.
    """
    if not 0 <= basis < 2 ** circuit.num_qubits:
        raise ValueError(f"basis index {basis} outside register")
    for instr in circuit.instructions:
        if not instr.controls.matches(basis):
            continue
        kind = instr.gate.kind
        if kind == "X":
            basis ^= 1 << instr.target
        elif kind == "I":
            pass
        elif kind == "SET1":
            basis |= 1 << instr.target
        elif kind == "SET0":
            basis &= ~(1 << instr.target)
        else:
            raise NonClassicalGateError(f"{kind} cannot be evaluated on a basis state")
    return basis


def run_on_basis_array(circuit: Circuit, basis: np.ndarray) -> np.ndarray:
    """Vectorized run_on_basis over an array of basis indices.

    Registers wider than an int64 fall back to arbitrary-precision
    Python integers (object dtype), trading speed for correctness.
    """
    if circuit.num_qubits <= 62:
        out = np.asarray(basis, dtype=np.int64).copy()
        one = np.int64(1)
    else:
        out = np.array([int(b) for b in np.ravel(basis)], dtype=object).reshape(np.shape(basis))
        one = 1
    if out.size and (out.min() < 0 or out.max() >= 2 ** circuit.num_qubits):
        raise ValueError("basis index outside register")
    for instr in circuit.instructions:
        act = _KINDS[instr.gate.kind].on_basis
        if act is None:
            raise NonClassicalGateError(f"{instr.gate.kind} cannot be evaluated on a basis state")
        hit = instr.controls.matches(out)
        out[hit] = act(out[hit], one << instr.target)
    return out


def measure_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """Marginal probabilities (p0, p1) of one qubit."""
    p0, p1 = joint_probabilities(state, [qubit]).tolist()
    total = p0 + p1
    return p0 / total, p1 / total


def joint_probabilities(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Marginal distribution over the listed qubits.

    Entry i of the result is the probability of the outcome whose bit j
    equals the measured value of ``qubits[j]``.
    """
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit {q} outside register")
    probs = np.abs(state.amplitudes) ** 2
    n = state.num_qubits
    nd = probs.reshape([2] * n)
    keep_axes = {n - 1 - q for q in qubits}
    sum_axes = tuple(ax for ax in range(n) if ax not in keep_axes)
    marg = nd.sum(axis=sum_axes) if sum_axes else nd
    # remaining axes are ordered by descending qubit index; put qubits[-1] first,
    # qubits[0] last so that C-order flattening makes bit j track qubits[j]
    remaining = sorted(qubits, reverse=True)
    order = [remaining.index(q) for q in reversed(qubits)]
    return np.transpose(marg, order).reshape(-1).copy()


def sample_shots(state: StateVector, qubits: Sequence[int], shots: int,
                 seed=None) -> dict[int, int]:
    """Histogram of joint measurement outcomes for the listed qubits.

    Outcome integers pack the measured bits with ``qubits[0]`` as bit 0.
    Sampling is deterministic for a given seed.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = joint_probabilities(state, qubits)
    probs = probs / probs.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {int(i): int(c) for i, c in enumerate(counts) if c}


def _require_disjoint(*registers: Iterable[int]) -> None:
    seen: set[int] = set()
    for reg in registers:
        for q in reg:
            if q in seen:
                raise RegisterOverlapError(f"qubit {q} is used by two registers")
            seen.add(q)


def _register_size(*registers: Iterable[int]) -> int:
    return max(q for reg in registers for q in reg) + 1


def load_constant(value: int, qubits: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """X gates writing an integer onto a zeroed register, bit j on qubits[j].

    Running it again removes the value, so the same circuit loads and
    unloads constants around arithmetic blocks.
    """
    qubits = list(qubits)
    if not 0 <= value < 2 ** len(qubits):
        raise ValueError(f"value {value} does not fit in {len(qubits)} bits")
    if num_qubits is None:
        num_qubits = _register_size(qubits) if qubits else 0
    instrs = tuple(Instruction(Gate.x(), qubits[j]) for j in range(len(qubits)) if (value >> j) & 1)
    return Circuit(num_qubits, instrs)


def _carry_block(c_in: int, a: int, b: int, c_out: int, reverse=False) -> list[Instruction]:
    gates = [
        Instruction(Gate.x(), c_out, ControlPattern(((a, 1), (b, 1)))),
        Instruction(Gate.x(), b, ControlPattern(((a, 1),))),
        Instruction(Gate.x(), c_out, ControlPattern(((c_in, 1), (b, 1)))),
    ]
    return gates[::-1] if reverse else gates


def _sum_block(c_in: int, a: int, b: int) -> list[Instruction]:
    return [
        Instruction(Gate.x(), b, ControlPattern(((a, 1),))),
        Instruction(Gate.x(), b, ControlPattern(((c_in, 1),))),
    ]


def ripple_adder(width: int, a: Sequence[int], b: Sequence[int], carry_out: int,
                 work: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """Reversible ripple-carry adder: |a>|b> -> |a>|a+b mod 2**width>.

    ``carry_out`` receives the overflow bit (a+b >= 2**width) and the
    ``work`` carry chain (one qubit per bit, initially |0>) is restored.
    Registers are LSB-first index lists and must not overlap.
    """
    a, b, work = list(a), list(b), list(work)
    if width < 1 or len(a) != width or len(b) != width:
        raise ValueError("addend and target registers must both have `width` qubits")
    if len(work) != width:
        raise ValueError("the adder needs one work qubit per bit")
    _require_disjoint(a, b, [carry_out], work)
    if num_qubits is None:
        num_qubits = _register_size(a, b, [carry_out], work)

    carries = work + [carry_out]
    instrs: list[Instruction] = []
    for i in range(width):
        instrs += _carry_block(carries[i], a[i], b[i], carries[i + 1])
    instrs.append(Instruction(Gate.x(), b[width - 1], ControlPattern(((a[width - 1], 1),))))
    instrs += _sum_block(carries[width - 1], a[width - 1], b[width - 1])
    for i in range(width - 2, -1, -1):
        instrs += _carry_block(carries[i], a[i], b[i], carries[i + 1], reverse=True)
        instrs += _sum_block(carries[i], a[i], b[i])
    return Circuit(num_qubits, tuple(instrs))


def comparator(width: int, a: Sequence[int], b: Sequence[int], greater: int,
               less: int, work: Sequence[int], num_qubits: int | None = None) -> Circuit:
    """Set flag qubits from an integer comparison, leaving both inputs intact.

    ``greater`` is flipped when a > b and ``less`` when a < b (flags start
    at |0>).  The work register holds per-bit XORs during the comparison
    and is uncomputed.  Exactly one flag fires unless the values are equal.
    """
    a, b, work = list(a), list(b), list(work)
    if width < 1 or len(a) != width or len(b) != width:
        raise ValueError("comparator registers must both have `width` qubits")
    if len(work) != width:
        raise ValueError("the comparator needs one work qubit per bit")
    _require_disjoint(a, b, [greater], [less], work)
    if num_qubits is None:
        num_qubits = _register_size(a, b, [greater, less], work)

    mark = [
        Instruction(Gate.x(), work[i], ControlPattern(((reg[i], 1),)))
        for i in range(width) for reg in (a, b)
    ]
    instrs = list(mark)
    for j in range(width - 1, -1, -1):
        equal_above = tuple((work[i], 0) for i in range(width - 1, j, -1))
        instrs.append(Instruction(Gate.x(), greater,
                                  ControlPattern(equal_above + ((a[j], 1), (b[j], 0)))))
        instrs.append(Instruction(Gate.x(), less,
                                  ControlPattern(equal_above + ((a[j], 0), (b[j], 1)))))
    instrs += mark[::-1]
    return Circuit(num_qubits, tuple(instrs))


def saturating_add_circuit(width: int, value: int, target: Sequence[int],
                           addend: Sequence[int], carry: int, work: Sequence[int],
                           num_qubits: int | None = None) -> Circuit:
    """Add a constant to a register, clamping at the register maximum.

    The constant is loaded onto the addend register, a ripple adder runs,
    and an overflow forces every target bit to 1 via carry-controlled set
    gates.  The carry and addend are then cleared (the carry with a SET0,
    since saturation already erased the information needed to uncompute
    it), leaving all workspace disentangled at |0>.
    """
    target, addend, work = list(target), list(addend), list(work)
    if num_qubits is None:
        num_qubits = _register_size(target, addend, [carry], work)
    loader = load_constant(value, addend, num_qubits)
    adder = ripple_adder(width, addend, target, carry, work, num_qubits)
    clamp = [Instruction(Gate.set1(), t, ControlPattern(((carry, 1),))) for t in target]
    clear = Instruction(Gate.set0(), carry)
    return Circuit(num_qubits, (*loader.instructions, *adder.instructions, *clamp, clear,
                                *loader.instructions))


def saturating_sub_circuit(width: int, value: int, target: Sequence[int],
                           addend: Sequence[int], carry: int, work: Sequence[int],
                           num_qubits: int | None = None) -> Circuit:
    """Subtract a constant from a register, clamping at zero.

    Implemented as the bitwise complement of a saturating add: with the
    target inverted, underflow of the subtraction appears as overflow of
    the addition, and the clamp-to-all-ones turns into a clamp-to-zero
    after the closing inversion.
    """
    target = list(target)
    if num_qubits is None:
        num_qubits = _register_size(target, addend, [carry], work)
    invert = tuple(Instruction(Gate.x(), t) for t in target)
    inner = saturating_add_circuit(width, value, target, addend, carry, work, num_qubits)
    return Circuit(num_qubits, invert + inner.instructions + invert)
