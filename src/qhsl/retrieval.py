"""Recovering pixel colors from measurement statistics.

The chroma qubit of a pixel branch is read out in three bases: directly
(expectation K = cos theta), and after the two fixed rotations that move
the X and Y Bloch components onto the measurement axis (expectations
V = cos phi sin theta and W = sin phi sin theta).  theta comes back as
arccos K; phi is restored from (V, W) with full quadrant information.

Statistics can be exact probabilities or seeded shot estimates.  Shot
estimates reach a pixel branch either by conditioning full-register
samples on the measured position ("rejection") or, on the structured
backend, by sampling each pixel's chroma distribution directly
("oracle").  Lightness is a basis value on every branch, so its readout
is deterministic regardless of mode or seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .color import AVERAGE, ChromaState, LightnessCode, decode_chroma, lightness_to_fraction
from .errors import InconsistentStatisticsError, NonBasisLightnessError
from .image import QhslImage, RegisterLayout, structured_state
from .sim import Gate, StateVector, apply_gate, joint_probabilities

EXACT_HUE_FLOOR = 1e-6
_BRANCH_EPS = 1e-12


@dataclass(frozen=True)
class ChromaStatistics:
    """Measured expectations of one chroma qubit in the three bases.

    ``shots_per_basis`` is None for exact probabilities; otherwise each of
    k, v, w came from that many shots.
    """

    k: float
    v: float
    w: float
    shots_per_basis: int | None = None

    def __post_init__(self) -> None:
        if self.shots_per_basis is not None and self.shots_per_basis < 1:
            raise ValueError("shots_per_basis must be positive")
        slack = 3.0 * self.sigma + 1e-12
        for name in ("k", "v", "w"):
            val = getattr(self, name)
            if not math.isfinite(val) or abs(val) > 1.0 + slack:
                raise InconsistentStatisticsError(
                    f"statistic {name}={val!r} outside [-1, 1] beyond sampling slack")

    @property
    def is_exact(self) -> bool:
        return self.shots_per_basis is None

    @property
    def sigma(self) -> float:
        """Worst-case standard deviation of each statistic."""
        if self.shots_per_basis is None:
            return 0.0
        return 1.0 / math.sqrt(self.shots_per_basis)


def _chroma_expectations(a0: complex, a1: complex) -> tuple[float, float, float]:
    norm2 = abs(a0) ** 2 + abs(a1) ** 2
    if norm2 <= _BRANCH_EPS:
        raise InconsistentStatisticsError("chroma amplitudes are numerically zero")
    cross = a0.conjugate() * a1
    k = (abs(a0) ** 2 - abs(a1) ** 2) / norm2
    v = 2.0 * cross.real / norm2
    w = 2.0 * cross.imag / norm2
    return k, v, w


def measure_chroma(source, mode: str = "exact", shots: int | None = None,
                   seed=None, rng: np.random.Generator | None = None) -> ChromaStatistics:
    """Measure one chroma state (or amplitude pair) in the three bases.

    ``mode`` is "exact" for closed-form expectations or "shots" for
    seeded binomial sampling with ``shots`` measurements per basis.
    """
    if isinstance(source, ChromaState):
        a0, a1 = source.amplitudes()
    else:
        a0, a1 = complex(source[0]), complex(source[1])
    k, v, w = _chroma_expectations(a0, a1)
    if mode == "exact":
        return ChromaStatistics(k, v, w)
    if mode != "shots":
        raise ValueError(f"unknown mode {mode!r}")
    if shots is None or shots < 1:
        raise ValueError("shots mode needs a positive shot count")
    if rng is None:
        rng = np.random.default_rng(seed)
    estimates = []
    for expectation in (k, v, w):
        p0 = min(max(0.5 * (1.0 + expectation), 0.0), 1.0)
        n0 = int(rng.binomial(shots, p0))
        estimates.append((2 * n0 - shots) / shots)
    return ChromaStatistics(*estimates, shots_per_basis=shots)


def estimate_theta(stats: ChromaStatistics) -> float:
    """arccos of the direct-basis expectation, clamped within sampling slack."""
    slack = 3.0 * stats.sigma + 1e-12
    if abs(stats.k) > 1.0 + slack:
        raise InconsistentStatisticsError(f"K={stats.k!r} outside [-1, 1] beyond 3 sigma")
    return math.acos(min(1.0, max(-1.0, stats.k)))


def estimate_phi(stats: ChromaStatistics) -> tuple[float, bool]:
    """Restore phi in [0, 2*pi) from (V, W), or flag hue as undefined.

    The quadrant rules (arctan(W/V) for V>=0, W>=0; 2*pi + arctan for
    V>=0, W<0; pi + arctan for V<0; half-pi limits at V=0) are exactly the
    two-argument arctangent with negative angles wrapped by a full turn.
    Near the Bloch poles both V and W vanish and no phase is recoverable:
    below the exact floor (or the sampling noise floor at 3 sigma) the
    result is (0.0, True).
    """
    radius = math.hypot(stats.v, stats.w)
    floor = EXACT_HUE_FLOOR if stats.is_exact else 3.0 * math.sqrt(2.0) * stats.sigma
    if radius <= floor:
        return 0.0, True
    phi = math.atan2(stats.w, stats.v)
    if phi < 0.0:
        phi += 2.0 * math.pi
    return phi, False


def measure_lightness(source, y: int, x: int, layout: RegisterLayout | None = None) -> int:
    """Read the lightness code of one pixel branch.

    On an image this is the stored code.  On a dense state the branch's
    lightness register must be concentrated on a single basis value (up
    to 1e-9 of branch probability); anything else raises
    NonBasisLightnessError.  The readout involves no sampling and is
    identical across runs.
    """
    if isinstance(source, QhslImage):
        return source.code(y, x).bits
    if layout is None:
        raise ValueError("dense lightness readout needs a register layout")
    return int(_dense_lightness_codes(source, layout, [(y << layout.n) | x])[0])


def _dense_lightness_codes(state: StateVector, layout: RegisterLayout,
                           positions: Sequence[int]) -> np.ndarray:
    """Lightness codes of the pixel branches at raster ``positions``.

    One joint distribution over the position and lightness qubits serves
    every branch.  The first offending branch, in the order given, raises.
    """
    qubits = list(layout.position_qubits) + list(layout.lightness_qubits)
    probs = joint_probabilities(state, qubits).reshape(2 ** layout.q, 4 ** layout.n)[:, positions]
    totals = probs.sum(axis=0)
    codes = probs.argmax(axis=0)
    peaks = probs[codes, np.arange(codes.size)]
    bad = np.flatnonzero((totals <= _BRANCH_EPS) | (peaks < (1.0 - 1e-9) * totals))
    if bad.size:
        i = bad[0]
        y, x = divmod(positions[i], layout.side)
        if totals[i] <= _BRANCH_EPS:
            raise InconsistentStatisticsError(f"pixel ({y}, {x}) branch has no probability")
        raise NonBasisLightnessError(f"pixel ({y}, {x}) lightness register is in superposition")
    return codes


@dataclass(frozen=True)
class RetrievedPixel:
    y: int
    x: int
    theta: float
    phi: float
    hue: float
    saturation: float
    code: int
    lightness: float
    hue_undefined: bool
    theta_3sigma: float = 0.0
    phi_3sigma: float = 0.0


@dataclass(frozen=True)
class RetrievalReport:
    """Per-pixel color estimates plus the sampling configuration."""

    n: int
    q: int
    mode: str
    shots_per_basis: int | None
    seed: int | None
    branch: str
    pixels: tuple[RetrievedPixel, ...]

    def pixel(self, y: int, x: int) -> RetrievedPixel:
        return self.pixels[y * 2 ** self.n + x]


def _finish_pixel(y: int, x: int, stats: ChromaStatistics, code_bits: int,
                  q: int, mapping: str, table) -> RetrievedPixel:
    theta = estimate_theta(stats)
    phi, undefined = estimate_phi(stats)
    decoded = decode_chroma(ChromaState(theta, phi))
    hue = 0.0 if undefined else decoded.hue
    lightness = lightness_to_fraction(LightnessCode(q, code_bits, mapping, table))
    sigma = stats.sigma
    sin_theta = max(math.sin(theta), EXACT_HUE_FLOOR)
    radius = max(math.hypot(stats.v, stats.w), EXACT_HUE_FLOOR)
    return RetrievedPixel(
        y=y, x=x, theta=theta, phi=phi, hue=hue, saturation=decoded.saturation,
        code=code_bits, lightness=lightness, hue_undefined=undefined,
        theta_3sigma=3.0 * sigma / sin_theta,
        phi_3sigma=6.0 * sigma / radius,
    )


def _structured_statistics(img: QhslImage, mode: str, shots, seed, branch):
    state = structured_state(img)
    pixel_count = 4 ** img.n
    per_pixel: list[ChromaStatistics] = []
    if mode == "exact":
        for y, x, _, _ in img.enumerate_pixels():
            a0, a1 = state.chroma_amplitudes(y, x)
            per_pixel.append(ChromaStatistics(*_chroma_expectations(a0, a1)))
        return per_pixel
    if branch == "oracle":
        # independent per-pixel streams split off the master seed
        streams = np.random.SeedSequence(seed).spawn(pixel_count)
        for i, (y, x, _, _) in enumerate(img.enumerate_pixels()):
            rng = np.random.default_rng(streams[i])
            per_pixel.append(measure_chroma(state.chroma_amplitudes(y, x),
                                            "shots", shots=shots, rng=rng))
        return per_pixel
    # rejection: full-register sampling lands on a uniformly random pixel,
    # so per-basis pixel allocations are multinomial over shots * pixels draws
    rng = np.random.default_rng(seed)
    uniform = np.full(pixel_count, 1.0 / pixel_count)
    expectations = []
    for y, x, _, _ in img.enumerate_pixels():
        a0, a1 = state.chroma_amplitudes(y, x)
        expectations.append(_chroma_expectations(a0, a1))
    samples: list[list[tuple[int, int]]] = [[] for _ in range(pixel_count)]
    for axis in range(3):
        allocation = rng.multinomial(shots * pixel_count, uniform)
        for i in range(pixel_count):
            m = int(allocation[i])
            if m == 0:
                raise InconsistentStatisticsError(
                    f"pixel {i} received no samples; increase the shot budget")
            p0 = min(max(0.5 * (1.0 + expectations[i][axis]), 0.0), 1.0)
            n0 = int(rng.binomial(m, p0))
            samples[i].append((n0, m))
    for i in range(pixel_count):
        (kz, mz), (vu, mu), (wu, mw) = samples[i]
        per_pixel.append(ChromaStatistics(
            (2 * kz - mz) / mz, (2 * vu - mu) / mu, (2 * wu - mw) / mw,
            shots_per_basis=min(mz, mu, mw)))
    return per_pixel


def _dense_statistics(state: StateVector, layout: RegisterLayout, mode: str,
                      shots, seed):
    npos = 4 ** layout.n
    qubits = list(layout.position_qubits) + [layout.chroma_qubit]
    joints = []
    for rotation in (None, Gate.u1(), Gate.u2()):
        rotated = state if rotation is None else apply_gate(state, rotation, layout.chroma_qubit)
        joints.append(joint_probabilities(rotated, qubits))
    rng = np.random.default_rng(seed)
    per_pixel: list[ChromaStatistics] = []
    if mode == "shots":
        counts = [rng.multinomial(shots * npos, j / j.sum()) for j in joints]
    for pos in range(npos):
        values = []
        budget = None
        for axis in range(3):
            if mode == "exact":
                p0 = float(joints[axis][pos])
                p1 = float(joints[axis][pos + npos])
                total = p0 + p1
                if total <= _BRANCH_EPS:
                    raise InconsistentStatisticsError(f"pixel branch {pos} has no probability")
                values.append((p0 - p1) / total)
            else:
                n0 = int(counts[axis][pos])
                n1 = int(counts[axis][pos + npos])
                if n0 + n1 == 0:
                    raise InconsistentStatisticsError(
                        f"pixel branch {pos} received no samples; increase the shot budget")
                values.append((n0 - n1) / (n0 + n1))
                budget = n0 + n1 if budget is None else min(budget, n0 + n1)
        per_pixel.append(ChromaStatistics(*values, shots_per_basis=budget))
    return per_pixel


def retrieve_image(source, mode: str = "exact", *, shots: int | None = None,
                   seed: int | None = None, branch: str = "rejection",
                   layout: RegisterLayout | None = None, mapping: str | None = None,
                   table=None) -> RetrievalReport:
    """Estimate every pixel's color from the prepared state.

    ``source`` is a QhslImage (structured backend) or a dense StateVector
    with its ``layout``.  In "shots" mode, each pixel gets ``shots``
    measurements per basis; ``branch`` picks how pixel branches are
    reached ("rejection" everywhere, "oracle" fast path on images only).
    """
    if mode not in ("exact", "shots"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "shots" and (shots is None or shots < 1):
        raise ValueError("shots mode needs a positive shot count")
    if branch not in ("oracle", "rejection"):
        raise ValueError(f"unknown branch access {branch!r}")

    if isinstance(source, QhslImage):
        layout = source.layout
        mapping = source.mapping if mapping is None else mapping
        table = source.table if table is None else table
        stats = _structured_statistics(source, mode, shots, seed, branch)
        codes = [code.bits for _, _, _, code in source.enumerate_pixels()]
    elif isinstance(source, StateVector):
        if layout is None:
            raise ValueError("dense retrieval needs a register layout")
        if layout.total_qubits != source.num_qubits:
            raise ValueError("layout does not match the state register")
        if mode == "shots" and branch == "oracle":
            raise ValueError("the oracle branch fast path needs the structured backend")
        mapping = AVERAGE if mapping is None else mapping
        stats = _dense_statistics(source, layout, mode, shots, seed)
        codes = _dense_lightness_codes(source, layout, range(4 ** layout.n)).tolist()
    else:
        raise TypeError(f"cannot retrieve from {type(source).__name__}")

    side = layout.side
    pixels = tuple(
        _finish_pixel(pos >> layout.n, pos & (side - 1), stats[pos], codes[pos],
                      layout.q, mapping, table)
        for pos in range(4 ** layout.n)
    )
    return RetrievalReport(n=layout.n, q=layout.q, mode=mode,
                           shots_per_basis=shots if mode == "shots" else None,
                           seed=seed, branch=branch if mode == "shots" else "exact",
                           pixels=pixels)
