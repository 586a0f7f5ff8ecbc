"""Image register layout, pixel grid, and state preparation.

A 2**n x 2**n image occupies one chroma qubit, q lightness qubits and 2n
position qubits.  Counting from the least significant bit of a basis
index: X position bits sit at [0, n), Y at [n, 2n), the lightness code
(LSB first) at [2n, 2n+q), and the chroma qubit on top at 2n+q.

The prepared state is an equal superposition over pixel positions, each
position branch carrying its pixel's chroma amplitudes and lightness
basis value.  Besides the dense simulation there is a structured backend
that evaluates any amplitude of that state in closed form, which is what
makes large images and exact retrieval cheap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .color import (
    AVERAGE,
    FULL_TURN_STEPS,
    PHASE_STEP,
    ChromaState,
    LightnessCode,
    bloch_amplitudes,
    phase_steps,
)
from .errors import FormatError, QubitBudgetError
from .sim import Circuit, ControlPattern, Gate, Instruction, StateVector, run_circuit

DENSE_QUBIT_BUDGET = 26
# largest grid exponent an image may have: 2**11 x 2**11 = 4M pixels
MAX_IMAGE_N = 11
# widest lightness register whose codes, plus any shift below 2**q, fit in int64
_MAX_Q = 62
# peak memory in states, set by `qhsl verify`: the dense state, the reference with
# the difference written over it, and its modulus (2.5; 2.6 measured at n=7 q=8)
_DENSE_PEAK_FACTOR = 3.5


def check_image_size(n: int, context: str = "") -> None:
    """Refuse negative grid exponents, and grids above MAX_IMAGE_N before any
    per-pixel allocation."""
    if n < 0:
        raise FormatError(f"{context}grid exponent n={n} must be non-negative")
    if n > MAX_IMAGE_N:
        raise QubitBudgetError(
            f"{context}a 2**{n} x 2**{n} image exceeds the limit of n={MAX_IMAGE_N} "
            f"({4 ** MAX_IMAGE_N} pixels)")


@dataclass(frozen=True)
class PixelAddress:
    y: int
    x: int

    def __post_init__(self) -> None:
        if self.y < 0 or self.x < 0:
            raise ValueError("pixel coordinates are non-negative")


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit index bookkeeping for an n, q image register."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.q < 0:
            raise ValueError("n and q must be non-negative")

    @property
    def side(self) -> int:
        return 2 ** self.n

    @property
    def x_qubits(self) -> range:
        return range(0, self.n)

    @property
    def y_qubits(self) -> range:
        return range(self.n, 2 * self.n)

    @property
    def position_qubits(self) -> range:
        return range(0, 2 * self.n)

    @property
    def lightness_qubits(self) -> range:
        return range(2 * self.n, 2 * self.n + self.q)

    @property
    def chroma_qubit(self) -> int:
        return 2 * self.n + self.q

    @property
    def total_qubits(self) -> int:
        return 2 * self.n + self.q + 1

    def pixel_pattern(self, addr: PixelAddress) -> ControlPattern:
        """Control pattern selecting one pixel's position branch."""
        self._check_addr(addr)
        terms = [(q, (addr.x >> j) & 1) for j, q in enumerate(self.x_qubits)]
        terms += [(q, (addr.y >> j) & 1) for j, q in enumerate(self.y_qubits)]
        return ControlPattern(tuple(terms))

    def basis_index(self, y: int, x: int, lightness: int, chroma: int) -> int:
        self._check_addr(PixelAddress(y, x))
        if not 0 <= lightness < 2 ** self.q:
            raise ValueError(f"lightness code {lightness} outside register")
        if chroma not in (0, 1):
            raise ValueError("chroma bit must be 0 or 1")
        return (chroma << self.chroma_qubit) | (lightness << (2 * self.n)) | (y << self.n) | x

    def split_index(self, index: int) -> tuple[int, int, int, int]:
        """Decompose a basis index into (y, x, lightness, chroma)."""
        if not 0 <= index < 2 ** self.total_qubits:
            raise ValueError(f"basis index {index} outside register")
        side = self.side
        x = index & (side - 1)
        y = (index >> self.n) & (side - 1)
        lightness = (index >> (2 * self.n)) & (2 ** self.q - 1)
        chroma = (index >> self.chroma_qubit) & 1
        return y, x, lightness, chroma

    def _check_addr(self, addr: PixelAddress) -> None:
        if addr.y >= self.side or addr.x >= self.side:
            raise ValueError(f"pixel ({addr.y}, {addr.x}) outside a {self.side}x{self.side} image")


class QhslImage:
    """A 2**n x 2**n grid of (chroma state, lightness code) pixels.

    Pixels are stored in raster order (row y=0 first) as three read-only
    arrays: ``theta`` (float64), ``phase_steps`` (int64 hue phases in
    units of PHASE_STEP, in [0, FULL_TURN_STEPS)) and ``codes`` (int64
    lightness codes), plus the shared ``mapping`` and ``table``.
    ``table_source`` optionally records where a manual table came from,
    for tools that serialize the image.  ``pixel``, ``chroma``, ``code``,
    ``enumerate_pixels`` and ``pixels`` build dataclasses on demand.
    """

    def __init__(self, n: int, q: int, pixels, table_source: str | None = None):
        if n < 0 or q < 0:
            raise ValueError("n and q must be non-negative")
        pixels = tuple(pixels)
        if len(pixels) != 4 ** n:
            raise ValueError(f"expected {4 ** n} pixels, got {len(pixels)}")
        chromas, codes = zip(*pixels)
        if not all(isinstance(chroma, ChromaState) for chroma in chromas):
            raise TypeError("pixel chroma must be a ChromaState")
        widths = {code.q for code in codes} - {q}
        if widths:
            raise ValueError(f"lightness code width {widths.pop()} differs from image q={q}")
        if len({(code.mapping, code.table) for code in codes}) > 1:
            raise ValueError("all pixels must share one lightness mapping")
        self._set(n, q, [chroma.theta for chroma in chromas],
                  [phase_steps(chroma.phi) for chroma in chromas],
                  [code.bits for code in codes], codes[0].mapping, codes[0].table, table_source)

    @classmethod
    def from_arrays(cls, n: int, q: int, theta, phase_steps, codes, mapping: str = AVERAGE,
                    table=None, table_source: str | None = None) -> "QhslImage":
        """Build an image from raster-order arrays (copied; see the class docstring)."""
        img = cls.__new__(cls)
        img._set(n, q, theta, phase_steps, codes, mapping, table, table_source)
        return img

    def _set(self, n, q, theta, phase_steps, codes, mapping, table, table_source) -> None:
        if n < 0 or q < 0:
            raise ValueError("n and q must be non-negative")
        if q > _MAX_Q:
            raise ValueError(f"q={q} exceeds the limit of {_MAX_Q} lightness qubits")
        # a LightnessCode checks the mapping name and validates the table
        self.table = LightnessCode(q, 0, mapping, table).table
        self.n, self.q, self.mapping, self.table_source = n, q, mapping, table_source
        self.theta = np.array(theta, dtype=np.float64)
        self.phase_steps = np.array(phase_steps, dtype=np.int64)
        self.codes = np.array(codes, dtype=np.int64)
        if not (self.theta.shape == self.phase_steps.shape == self.codes.shape == (4 ** n,)
                and np.all((self.theta >= 0.0) & (self.theta <= math.pi))
                and np.all((self.phase_steps >= 0) & (self.phase_steps < FULL_TURN_STEPS))
                and np.all((self.codes >= 0) & (self.codes < 2 ** q))):
            raise ValueError(f"expected {4 ** n} pixels: theta in [0, pi], phase steps in "
                             f"[0, {FULL_TURN_STEPS}), codes in [0, {2 ** q})")
        for array in (self.theta, self.phase_steps, self.codes):
            array.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (isinstance(other, QhslImage)
                and (self.n, self.q, self.mapping, self.table, self.table_source)
                == (other.n, other.q, other.mapping, other.table, other.table_source)
                and np.array_equal(self.theta, other.theta)
                and np.array_equal(self.phase_steps, other.phase_steps)
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.mapping, self.table, self.table_source))

    @property
    def side(self) -> int:
        return 2 ** self.n

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.n, self.q)

    @property
    def phi(self) -> np.ndarray:
        """Hue phases in radians, on the phase grid."""
        return self.phase_steps * PHASE_STEP

    @property
    def pixels(self) -> tuple[tuple[ChromaState, LightnessCode], ...]:
        return tuple((chroma, code) for _, _, chroma, code in self.enumerate_pixels())

    def raster_index(self, y: int, x: int) -> int:
        """Array index of pixel (y, x)."""
        if not (0 <= y < self.side and 0 <= x < self.side):
            raise ValueError(f"pixel ({y}, {x}) outside a {self.side}x{self.side} image")
        return y * self.side + x

    def pixel(self, y: int, x: int) -> tuple[ChromaState, LightnessCode]:
        i = self.raster_index(y, x)
        return (ChromaState(float(self.theta[i]), int(self.phase_steps[i]) * PHASE_STEP),
                LightnessCode(self.q, int(self.codes[i]), self.mapping, self.table))

    def chroma(self, y: int, x: int) -> ChromaState:
        return self.pixel(y, x)[0]

    def code(self, y: int, x: int) -> LightnessCode:
        return self.pixel(y, x)[1]

    def enumerate_pixels(self) -> Iterator[tuple[int, int, ChromaState, LightnessCode]]:
        side = self.side
        for i in range(4 ** self.n):
            yield (i // side, i % side, *self.pixel(i // side, i % side))


def position_superposition_circuit(layout: RegisterLayout) -> Circuit:
    """Hadamards spreading the position register over all pixels."""
    instrs = tuple(Instruction(Gate.h(), qb) for qb in layout.position_qubits)
    return Circuit(layout.total_qubits, instrs)


def pixel_setter_circuit(layout: RegisterLayout, addr: PixelAddress, dphi: float,
                         dtheta: float, lightness: int) -> Circuit:
    """Position-controlled writes of one pixel's chroma angles and lightness.

    A controlled R(dphi, dtheta) rotates the chroma qubit out of |0> and
    controlled X gates write the set bits of the lightness code, all
    conditioned on the pixel's full position pattern.
    """
    if not 0 <= lightness < 2 ** layout.q:
        raise ValueError(f"lightness code {lightness} outside register")
    pattern = layout.pixel_pattern(addr)
    instrs = [Instruction(Gate.r(dphi, dtheta), layout.chroma_qubit, pattern)]
    for j, qb in enumerate(layout.lightness_qubits):
        if (lightness >> j) & 1:
            instrs.append(Instruction(Gate.x(), qb, pattern))
    return Circuit(layout.total_qubits, tuple(instrs))


def preparation_circuit(img: QhslImage) -> Circuit:
    """Full state preparation: position superposition, then per-pixel setters."""
    layout = img.layout
    instrs = list(position_superposition_circuit(layout).instructions)
    for pos, (theta, phi, bits) in enumerate(zip(img.theta.tolist(), img.phi.tolist(),
                                                 img.codes.tolist())):
        instrs += pixel_setter_circuit(layout, PixelAddress(pos >> img.n, pos & (img.side - 1)),
                                       phi, theta, bits).instructions
    return Circuit(layout.total_qubits, tuple(instrs))


def _check_dense(qubits: int, qubit_budget: int, what: str) -> None:
    """Refuse a dense state above the budget, or peaking above physical memory if known."""
    if qubits > qubit_budget:
        raise QubitBudgetError(f"{what} {qubits} qubits exceeds the budget of {qubit_budget}")
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    peak = 16 * 2 ** qubits * _DENSE_PEAK_FACTOR
    if peak > physical:
        raise QubitBudgetError(f"{what} {qubits} qubits needs about {peak / 2 ** 30:.3g} GiB, "
                               f"above the {physical / 2 ** 30:.3g} GiB of physical memory")


def simulate_preparation(img: QhslImage, qubit_budget: int = DENSE_QUBIT_BUDGET) -> StateVector:
    """Run the preparation circuit on |0...0> with the dense simulator."""
    _check_dense(img.layout.total_qubits, qubit_budget, "dense simulation of")
    return run_circuit(StateVector.zero(img.layout.total_qubits), preparation_circuit(img))


class StructuredState:
    """Closed-form amplitudes of a prepared image state.

    The prepared state is a direct sum over position branches, so any
    amplitude is zero unless the lightness bits equal the pixel's code,
    and otherwise is the pixel's chroma amplitude scaled by 2**-n.
    """

    def __init__(self, img: QhslImage):
        self.image = img
        self.layout = img.layout
        self._scale = 2.0 ** -img.n

    def amplitude(self, index: int) -> complex:
        y, x, lightness, chroma_bit = self.layout.split_index(index)
        if lightness != self.image.codes[y * self.layout.side + x]:
            return 0j
        a0, a1 = self.chroma_amplitudes(y, x)
        return self._scale * (a1 if chroma_bit else a0)

    def chroma_amplitudes(self, y: int, x: int) -> tuple[complex, complex]:
        """Normalized chroma amplitude pair of one pixel branch."""
        i = self.image.raster_index(y, x)
        return bloch_amplitudes(float(self.image.theta[i]), float(self.image.phi[i]))

    def all_chroma_amplitudes(self) -> list[tuple[complex, complex]]:
        """chroma_amplitudes of every pixel, in raster order."""
        return [bloch_amplitudes(theta, phi)
                for theta, phi in zip(self.image.theta.tolist(), self.image.phi.tolist())]

    def norm_squared(self) -> float:
        return sum((abs(a0) ** 2 + abs(a1) ** 2) * self._scale ** 2
                   for a0, a1 in self.all_chroma_amplitudes())

    def to_statevector(self, qubit_budget: int = DENSE_QUBIT_BUDGET) -> StateVector:
        layout = self.layout
        _check_dense(layout.total_qubits, qubit_budget, "materializing")
        amps = np.zeros(2 ** layout.total_qubits, dtype=complex)
        branch = np.arange(4 ** layout.n) | (self.image.codes << (2 * layout.n))
        pairs = self.all_chroma_amplitudes()
        amps[branch] = [self._scale * a0 for a0, _ in pairs]
        amps[branch | (1 << layout.chroma_qubit)] = [self._scale * a1 for _, a1 in pairs]
        return StateVector(layout.total_qubits, amps)


def structured_state(img: QhslImage) -> StructuredState:
    return StructuredState(img)
