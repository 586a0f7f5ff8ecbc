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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .color import ChromaState, LightnessCode
from .errors import QubitBudgetError
from .sim import Circuit, ControlPattern, Gate, Instruction, StateVector, run_circuit

DENSE_QUBIT_BUDGET = 26


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


@dataclass(frozen=True)
class QhslImage:
    """A 2**n x 2**n grid of (chroma state, lightness code) pixels.

    Pixels are stored in raster order (row y=0 first).  All lightness
    codes must agree on q and on the mapping; the shared mapping metadata
    is exposed through properties.  ``table_source`` optionally records
    where a manual table came from, for tools that serialize the image.
    """

    n: int
    q: int
    pixels: tuple[tuple[ChromaState, LightnessCode], ...]
    table_source: str | None = None

    def __post_init__(self) -> None:
        if self.n < 0 or self.q < 0:
            raise ValueError("n and q must be non-negative")
        pixels = tuple(self.pixels)
        if len(pixels) != 4 ** self.n:
            raise ValueError(f"expected {4 ** self.n} pixels, got {len(pixels)}")
        first = pixels[0][1]
        for chroma, code in pixels:
            if not isinstance(chroma, ChromaState):
                raise TypeError("pixel chroma must be a ChromaState")
            if code.q != self.q:
                raise ValueError(f"lightness code width {code.q} differs from image q={self.q}")
            if code.mapping != first.mapping or code.table != first.table:
                raise ValueError("all pixels must share one lightness mapping")
        object.__setattr__(self, "pixels", pixels)

    @property
    def side(self) -> int:
        return 2 ** self.n

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.n, self.q)

    @property
    def mapping(self) -> str:
        return self.pixels[0][1].mapping

    @property
    def table(self) -> tuple[float, ...] | None:
        return self.pixels[0][1].table

    def pixel(self, y: int, x: int) -> tuple[ChromaState, LightnessCode]:
        if not (0 <= y < self.side and 0 <= x < self.side):
            raise ValueError(f"pixel ({y}, {x}) outside a {self.side}x{self.side} image")
        return self.pixels[y * self.side + x]

    def chroma(self, y: int, x: int) -> ChromaState:
        return self.pixel(y, x)[0]

    def code(self, y: int, x: int) -> LightnessCode:
        return self.pixel(y, x)[1]

    def enumerate_pixels(self) -> Iterator[tuple[int, int, ChromaState, LightnessCode]]:
        side = self.side
        for i, (chroma, code) in enumerate(self.pixels):
            yield i // side, i % side, chroma, code

    def with_pixels(self, pixels) -> "QhslImage":
        return QhslImage(self.n, self.q, tuple(pixels), self.table_source)


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
    for y, x, chroma, code in img.enumerate_pixels():
        instrs += pixel_setter_circuit(layout, PixelAddress(y, x),
                                       chroma.phi, chroma.theta, code.bits).instructions
    return Circuit(layout.total_qubits, tuple(instrs))


def simulate_preparation(img: QhslImage, qubit_budget: int = DENSE_QUBIT_BUDGET) -> StateVector:
    """Run the preparation circuit on |0...0> with the dense simulator."""
    layout = img.layout
    if layout.total_qubits > qubit_budget:
        raise QubitBudgetError(
            f"dense simulation of {layout.total_qubits} qubits exceeds the budget of {qubit_budget}")
    return run_circuit(StateVector.zero(layout.total_qubits), preparation_circuit(img))


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
        chroma, code = self.image.pixel(y, x)
        if lightness != code.bits:
            return 0j
        a0, a1 = chroma.amplitudes()
        return self._scale * (a1 if chroma_bit else a0)

    def chroma_amplitudes(self, y: int, x: int) -> tuple[complex, complex]:
        """Normalized chroma amplitude pair of one pixel branch."""
        return self.image.chroma(y, x).amplitudes()

    def norm_squared(self) -> float:
        total = 0.0
        for _, _, chroma, _ in self.image.enumerate_pixels():
            a0, a1 = chroma.amplitudes()
            total += (abs(a0) ** 2 + abs(a1) ** 2) * self._scale ** 2
        return total

    def to_statevector(self, qubit_budget: int = DENSE_QUBIT_BUDGET) -> StateVector:
        layout = self.layout
        if layout.total_qubits > qubit_budget:
            raise QubitBudgetError(
                f"materializing {layout.total_qubits} qubits exceeds the budget of {qubit_budget}")
        amps = np.zeros(2 ** layout.total_qubits, dtype=complex)
        for y, x, chroma, code in self.image.enumerate_pixels():
            a0, a1 = chroma.amplitudes()
            amps[layout.basis_index(y, x, code.bits, 0)] = self._scale * a0
            amps[layout.basis_index(y, x, code.bits, 1)] = self._scale * a1
        return StateVector(layout.total_qubits, amps)


def structured_state(img: QhslImage) -> StructuredState:
    return StructuredState(img)
