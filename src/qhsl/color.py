"""HSL color handling and the single-qubit chroma encoding.

Hue and saturation of a pixel live in the two Bloch angles of one qubit:
``phi`` carries hue as a phase over the full turn, ``theta`` carries
saturation on the middle third of [0, pi] so that saturation shifts clamp
at the ends instead of wrapping.  Lightness is a small q-bit code with a
pluggable code-to-fraction mapping.

Phases are stored as exact integer multiples of ``PHASE_STEP`` (2**-48).
Both pi and 2*pi are exact multiples of that step, so additions of hue
angles modulo a full turn are exact integer arithmetic: shifting by pi
twice restores the original float bit for bit.  The grid resolution
(3.6e-15 rad) is far below every tolerance used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

AVERAGE = "average"
MANUAL = "manual"

PHASE_STEP = 2.0 ** -48
HALF_TURN_STEPS = round(math.pi / PHASE_STEP)  # exact: pi is a grid multiple
FULL_TURN_STEPS = 2 * HALF_TURN_STEPS

# Saturation occupies [pi/3, 2*pi/3]; theta outside decodes to a clamped S.
# The clamp slack absorbs serialization wobble (text dumps carry 12
# significant digits, so theta moves by a few 1e-12 per round trip)
# without letting boundary colors drift off exact S=0 / S=1.
SATURATION_LOW = math.pi / 3.0
SATURATION_HIGH = 2.0 * (math.pi / 3.0)
_CLAMP_SLACK = 1e-9
_POLE_SIN = 1e-12


def phase_steps(phi: float) -> int:
    """Index of an angle on the modular phase grid, in [0, FULL_TURN_STEPS)."""
    return round(phi / PHASE_STEP) % FULL_TURN_STEPS


def canonical_phase(phi: float) -> float:
    """Round an angle onto the modular phase grid, reduced into [0, 2*pi)."""
    return phase_steps(phi) * PHASE_STEP


def phase_steps_array(phi) -> np.ndarray:
    """phase_steps elementwise (int64)."""
    steps = np.rint(np.asarray(phi, dtype=np.float64) / PHASE_STEP).astype(np.int64)
    return steps % FULL_TURN_STEPS


def add_phase(phi: float, delta: float) -> float:
    """Exact mod-2*pi sum of two angles, result on the phase grid."""
    return ((phase_steps(phi) + phase_steps(delta)) % FULL_TURN_STEPS) * PHASE_STEP


def bloch_amplitudes(theta: float, phi: float) -> tuple[complex, complex]:
    """Normalized amplitude pair (cos(theta/2), e^{i phi} sin(theta/2))."""
    half = 0.5 * theta
    return complex(math.cos(half)), complex(math.cos(phi), math.sin(phi)) * math.sin(half)


@dataclass(frozen=True)
class RgbColor:
    """8-bit RGB triplet."""

    r: int
    g: int
    b: int

    def __post_init__(self) -> None:
        for name in ("r", "g", "b"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= 255:
                raise ValueError(f"channel {name}={v!r} outside 0..255")


@dataclass(frozen=True)
class HslColor:
    """Hue in degrees [0, 360), saturation and lightness as fractions."""

    hue: float
    saturation: float
    lightness: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hue < 360.0:
            raise ValueError(f"hue {self.hue!r} outside [0, 360)")
        if not 0.0 <= self.saturation <= 1.0:
            raise ValueError(f"saturation {self.saturation!r} outside [0, 1]")
        if not 0.0 <= self.lightness <= 1.0:
            raise ValueError(f"lightness {self.lightness!r} outside [0, 1]")


@dataclass(frozen=True)
class ChromaState:
    """Bloch angles of the hue/saturation qubit.

    ``theta`` lies in [0, pi]; ``phi`` is canonicalized onto the phase grid
    in [0, 2*pi) at construction, so equal angles compare equal.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta {self.theta!r} outside [0, pi]")
        object.__setattr__(self, "phi", canonical_phase(self.phi))

    def amplitudes(self) -> tuple[complex, complex]:
        """Normalized amplitude pair (cos(theta/2), e^{i phi} sin(theta/2))."""
        return bloch_amplitudes(self.theta, self.phi)


@dataclass(frozen=True)
class LightnessCode:
    """A q-bit lightness value plus the mapping that gives it meaning.

    ``mapping`` is either ``AVERAGE`` (code/(2**q - 1), with 0.5 as the
    q == 0 default) or ``MANUAL`` with a caller-supplied table of 2**q
    fractions sorted ascending.  A manual code may be built before its
    table is attached; using it without one raises ConfigurationError.
    """

    q: int
    bits: int
    mapping: str = AVERAGE
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("q must be non-negative")
        if not 0 <= self.bits < 2 ** self.q:
            raise ValueError(f"bits {self.bits} outside 0..{2 ** self.q - 1}")
        if self.mapping not in (AVERAGE, MANUAL):
            raise ValueError(f"unknown mapping {self.mapping!r}")
        if self.table is not None:
            if self.mapping != MANUAL:
                raise ValueError("a table is only meaningful with the manual mapping")
            object.__setattr__(self, "table", validate_table(self.table, self.q))


def validate_table(table, q: int) -> tuple[float, ...]:
    """Check a manual mapping table: 2**q entries in [0, 1], sorted ascending."""
    entries = tuple(float(v) for v in table)
    if len(entries) != 2 ** q:
        raise ConfigurationError(f"mapping table has {len(entries)} entries, expected {2 ** q}")
    for v in entries:
        if not 0.0 <= v <= 1.0:
            raise ConfigurationError(f"mapping table entry {v!r} outside [0, 1]")
    if any(a > b for a, b in zip(entries, entries[1:])):
        raise ConfigurationError("mapping table must be sorted ascending")
    return entries


class DecodedChroma(NamedTuple):
    hue: float
    saturation: float
    hue_undefined: bool


def encode_chroma(color: HslColor) -> ChromaState:
    """Map hue/saturation to qubit angles: phi = H*pi/180, theta = (1+S)*pi/3."""
    return ChromaState(theta=(1.0 + color.saturation) * (math.pi / 3.0),
                       phi=math.radians(color.hue))


def decode_chroma(state: ChromaState) -> DecodedChroma:
    """Invert encode_chroma, clamping saturation outside its band.

    theta at or below pi/3 decodes to S=0, at or above 2*pi/3 to S=1.  At
    the Bloch poles (sin theta ~ 0) hue is indeterminate: the hue comes
    back as 0.0 with ``hue_undefined`` set.
    """
    hue, saturation, undefined = decode_chroma_arrays(state.theta, state.phi)
    return DecodedChroma(float(hue), float(saturation), bool(undefined))


def decode_chroma_arrays(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_chroma elementwise: hue degrees, saturation and undefined-hue flags."""
    theta = np.asarray(theta, dtype=np.float64)
    saturation = np.where(theta <= SATURATION_LOW + _CLAMP_SLACK, 0.0,
                          np.where(theta >= SATURATION_HIGH - _CLAMP_SLACK, 1.0,
                                   3.0 * theta / math.pi - 1.0))
    undefined = np.sin(theta) <= _POLE_SIN
    hue = np.where(undefined, 0.0, np.degrees(phi))
    return hue, saturation, undefined


def lightness_to_fraction(code: LightnessCode) -> float:
    """Fraction in [0, 1] denoted by a lightness code under its mapping."""
    return float(lightness_fractions(code.bits, code.q, code.mapping, code.table))


def lightness_fractions(codes, q: int, mapping: str = AVERAGE, table=None) -> np.ndarray:
    """lightness_to_fraction elementwise over an array of q-bit codes."""
    codes = np.asarray(codes, dtype=np.int64)
    if mapping != MANUAL:
        return codes / (2 ** q - 1) if q else np.full(codes.shape, 0.5)
    if table is None:
        raise ConfigurationError("manual mapping used without a table")
    return np.asarray(table, dtype=np.float64)[codes]


def quantize_lightness(fraction: float, q: int, mapping: str = AVERAGE,
                       table=None) -> LightnessCode:
    """Nearest lightness code for a fraction; halfway cases take the lower code."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"lightness fraction {fraction!r} outside [0, 1]")
    if mapping != MANUAL:
        return LightnessCode(q, int(quantize_codes(np.array([fraction]), q)[0]), AVERAGE)
    if table is None:
        raise ConfigurationError("manual mapping used without a table")
    entries = validate_table(table, q)
    return LightnessCode(q, int(quantize_codes(np.array([fraction]), q, MANUAL, entries)[0]),
                         MANUAL, entries)


def quantize_codes(fractions: np.ndarray, q: int, mapping: str = AVERAGE,
                   table: tuple[float, ...] | None = None) -> np.ndarray:
    """quantize_lightness elementwise, as int64 codes, for fractions in [0, 1].

    A manual ``table`` must already have passed validate_table.  Its
    nearest entry comes from a binary search; among entries at the same
    (rounded) distance the lowest index wins, as in a linear scan.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if mapping != MANUAL:
        # ties go to the lower integer: 127.5 -> 127
        return np.clip(np.ceil(fractions * (2 ** q - 1) - 0.5), 0, 2 ** q - 1).astype(np.int64)
    entries = np.asarray(table, dtype=np.float64)

    def distance(i):
        return np.abs(entries[i] - fractions)

    upper = np.minimum(np.searchsorted(entries, fractions), entries.size - 1)
    codes = np.where(distance(upper - 1) <= distance(upper), np.maximum(upper - 1, 0), upper)
    nearest = distance(codes)
    # distances only grow away from the fraction: step down from the first of
    # each run of equal entries while the distance stays the same
    while True:
        codes = np.searchsorted(entries, entries[codes])
        step = (codes > 0) & (distance(codes - 1) == nearest)
        if not step.any():
            return codes
        codes = np.where(step, codes - 1, codes)


def rgb_array_to_hsl(rgb: np.ndarray) -> np.ndarray:
    """Convert an (..., 3) array of 8-bit RGB values to (..., 3) H, S, L floats."""
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    mx = arr.max(axis=-1)
    mn = arr.min(axis=-1)
    chroma = mx - mn
    light = 0.5 * (mx + mn)
    sat = np.zeros_like(light)
    nz = chroma > 0.0
    sat[nz] = chroma[nz] / (1.0 - np.abs(2.0 * light[nz] - 1.0))
    np.minimum(sat, 1.0, out=sat)
    hue = np.zeros_like(light)
    rmax = nz & (mx == r)
    gmax = nz & (mx == g) & ~rmax
    bmax = nz & ~rmax & ~gmax
    hue[rmax] = ((g - b)[rmax] / chroma[rmax]) % 6.0
    hue[gmax] = (b - r)[gmax] / chroma[gmax] + 2.0
    hue[bmax] = (r - g)[bmax] / chroma[bmax] + 4.0
    hue = (hue * 60.0) % 360.0
    return np.stack([hue, sat, light], axis=-1)


def hsl_array_to_rgb(hsl: np.ndarray) -> np.ndarray:
    """Convert an (..., 3) array of H, S, L values to (..., 3) uint8 RGB."""
    arr = np.asarray(hsl, dtype=np.float64)
    h, s, light = arr[..., 0], arr[..., 1], arr[..., 2]
    chroma = (1.0 - np.abs(2.0 * light - 1.0)) * s
    hp = (h % 360.0) / 60.0
    x = chroma * (1.0 - np.abs(hp % 2.0 - 1.0))
    zero = np.zeros_like(chroma)
    conds = [hp < 1.0, hp < 2.0, hp < 3.0, hp < 4.0, hp < 5.0, hp >= 5.0]
    r1 = np.select(conds, [chroma, x, zero, zero, x, chroma])
    g1 = np.select(conds, [x, chroma, chroma, x, zero, zero])
    b1 = np.select(conds, [zero, zero, x, chroma, chroma, x])
    m = light - 0.5 * chroma
    rgb = np.stack([r1 + m, g1 + m, b1 + m], axis=-1)
    return np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)


def rgb_to_hsl(color: RgbColor) -> HslColor:
    h, s, light = rgb_array_to_hsl(np.array([[color.r, color.g, color.b]]))[0]
    return HslColor(float(h), float(s), float(light))


def hsl_to_rgb(color: HslColor) -> RgbColor:
    r, g, b = hsl_array_to_rgb(np.array([[color.hue, color.saturation, color.lightness]]))[0]
    return RgbColor(int(r), int(g), int(b))
