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

from .color import (
    AVERAGE,
    PHASE_STEP,
    ChromaState,
    decode_chroma_arrays,
    lightness_fractions,
    phase_steps_array,
)
from .errors import InconsistentStatisticsError, NonBasisLightnessError
from .image import QhslImage, RegisterLayout, structured_state
from .sim import Gate, StateVector, apply_gate, joint_probabilities

EXACT_HUE_FLOOR = 1e-6
_BRANCH_EPS = 1e-12


@dataclass(frozen=True, slots=True)
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
        _check_statistics(np.array([[self.k], [self.v], [self.w]], dtype=np.float64),
                          np.array([self.sigma]))

    @property
    def is_exact(self) -> bool:
        return self.shots_per_basis is None

    @property
    def sigma(self) -> float:
        """Worst-case standard deviation of each statistic."""
        if self.shots_per_basis is None:
            return 0.0
        return 1.0 / math.sqrt(self.shots_per_basis)


def _check_statistics(kvw: np.ndarray, sigma: np.ndarray) -> None:
    """Refuse statistics outside [-1, 1] by more than 3 sigma of sampling slack.

    ``kvw`` is a (3, pixels) array of k, v, w and ``sigma`` the per-pixel
    standard deviation (0 for exact statistics).  The first offending
    pixel in raster order raises, checking k, then v, then w.
    """
    bad = ~np.isfinite(kvw) | (np.abs(kvw) > 1.0 + (3.0 * sigma + 1e-12))
    if bad.any():
        pixel = np.flatnonzero(bad.any(axis=0))[0]
        axis = np.flatnonzero(bad[:, pixel])[0]
        raise InconsistentStatisticsError(
            f"statistic {'kvw'[axis]}={float(kvw[axis, pixel])!r} "
            "outside [-1, 1] beyond sampling slack")


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
    zeros = rng.binomial(shots, _zero_probability(np.array([k, v, w])))
    return ChromaStatistics(*_estimates(zeros, shots).tolist(), shots_per_basis=shots)


def _zero_probability(expectations: np.ndarray) -> np.ndarray:
    """Outcome-0 probability in each basis, for binomial shot draws.

    One rng.binomial call over an array of these takes the same values
    from the generator, in the same order, as one call per element, so
    batched draws keep seeded reports byte-identical.
    """
    return np.clip(0.5 * (1.0 + expectations), 0.0, 1.0)


def _estimates(zeros: np.ndarray, trials) -> np.ndarray:
    return (2 * zeros - trials) / trials


def estimate_theta(stats: ChromaStatistics) -> float:
    """arccos of the direct-basis expectation, clamped to [-1, 1].

    The statistics were range-checked, within sampling slack, when built.
    """
    return float(_theta_estimates(np.array([stats.k], dtype=np.float64))[0])


def estimate_phi(stats: ChromaStatistics) -> tuple[float, bool]:
    """Restore phi in [0, 2*pi) from (V, W), or flag hue as undefined.

    The quadrant rules (arctan(W/V) for V>=0, W>=0; 2*pi + arctan for
    V>=0, W<0; pi + arctan for V<0; half-pi limits at V=0) are exactly the
    two-argument arctangent with negative angles wrapped by a full turn.
    Near the Bloch poles both V and W vanish and no phase is recoverable:
    below the exact floor (or the sampling noise floor at 3 sigma) the
    result is (0.0, True).
    """
    phi, undefined, _ = _phi_estimates(
        np.array([stats.v], dtype=np.float64), np.array([stats.w], dtype=np.float64),
        None if stats.is_exact else np.array([stats.sigma]))
    return float(phi[0]), bool(undefined[0])


# arccos, arctan2 and hypot stay per element through ``math``: numpy's
# versions can differ from it in the last bit, which would move report bytes.

def _theta_estimates(k: np.ndarray) -> np.ndarray:
    """estimate_theta elementwise."""
    return np.array([math.acos(c) for c in np.clip(k, -1.0, 1.0).tolist()])


def _phi_estimates(v: np.ndarray, w: np.ndarray,
                   sigma: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """estimate_phi elementwise, plus the Bloch radius hypot(v, w).

    ``sigma`` is None for exact statistics, which use the exact hue floor.
    """
    v, w = v.tolist(), w.tolist()
    radius = np.array([math.hypot(a, b) for a, b in zip(v, w)])
    phi = np.array([math.atan2(b, a) for a, b in zip(v, w)])
    undefined = radius <= (EXACT_HUE_FLOOR if sigma is None else 3.0 * math.sqrt(2.0) * sigma)
    phi = np.where(undefined, 0.0, np.where(phi < 0.0, phi + 2.0 * math.pi, phi))
    return phi, undefined, radius


def measure_lightness(source, y: int, x: int, layout: RegisterLayout | None = None) -> int:
    """Read the lightness code of one pixel branch.

    On an image this is the stored code.  On a dense state the branch's
    lightness register must be concentrated on a single basis value (up
    to 1e-9 of branch probability); anything else raises
    NonBasisLightnessError.  The readout involves no sampling and is
    identical across runs.
    """
    if isinstance(source, QhslImage):
        return int(source.codes[source.raster_index(y, x)])
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


@dataclass(frozen=True, slots=True)
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


# report columns, in RetrievedPixel field order after y and x
_COLUMNS = {"theta": np.float64, "phi": np.float64, "hue": np.float64,
            "saturation": np.float64, "codes": np.int64, "lightness": np.float64,
            "hue_undefined": np.bool_, "theta_3sigma": np.float64, "phi_3sigma": np.float64}


class RetrievalReport:
    """Per-pixel color estimates plus the sampling configuration.

    Estimates are stored in raster order (row y=0 first) as read-only
    columns: ``theta``, ``phi``, ``hue``, ``saturation``, ``lightness``,
    ``theta_3sigma``, ``phi_3sigma`` (float64), ``codes`` (int64) and
    ``hue_undefined`` (bool).  ``pixels`` and ``pixel`` build RetrievedPixel
    objects on demand.  The constructor takes every pixel in raster order.
    """

    def __init__(self, n: int, q: int, mode: str, shots_per_basis: int | None,
                 seed: int | None, branch: str, pixels):
        pixels = tuple(pixels)
        side = 2 ** n
        if [(px.y, px.x) for px in pixels] != [divmod(i, side) for i in range(4 ** n)]:
            raise ValueError(
                f"expected the {4 ** n} pixels of a {side}x{side} grid in raster order")
        columns = zip(*((px.theta, px.phi, px.hue, px.saturation, px.code, px.lightness,
                         px.hue_undefined, px.theta_3sigma, px.phi_3sigma) for px in pixels))
        self._set(n, q, mode, shots_per_basis, seed, branch, dict(zip(_COLUMNS, columns)))

    @classmethod
    def from_arrays(cls, n: int, q: int, mode: str, shots_per_basis: int | None,
                    seed: int | None, branch: str, **columns) -> "RetrievalReport":
        """Build a report from raster-order columns (copied; see the class docstring)."""
        report = cls.__new__(cls)
        report._set(n, q, mode, shots_per_basis, seed, branch, columns)
        return report

    def _set(self, n, q, mode, shots_per_basis, seed, branch, columns) -> None:
        self.n, self.q, self.mode = n, q, mode
        self.shots_per_basis, self.seed, self.branch = shots_per_basis, seed, branch
        if columns.keys() != _COLUMNS.keys():
            raise TypeError(f"report columns are {', '.join(_COLUMNS)}")
        for name, dtype in _COLUMNS.items():
            array = np.array(columns[name], dtype=dtype)
            if array.shape != (4 ** n,):
                raise ValueError(f"report column {name} needs {4 ** n} entries")
            array.flags.writeable = False
            setattr(self, name, array)

    def _metadata(self) -> tuple:
        return (self.n, self.q, self.mode, self.shots_per_basis, self.seed, self.branch)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RetrievalReport) and self._metadata() == other._metadata()
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _COLUMNS))

    def __hash__(self) -> int:
        return hash(self._metadata())

    @property
    def pixels(self) -> tuple[RetrievedPixel, ...]:
        side = 2 ** self.n
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return tuple(RetrievedPixel(i // side, i % side, *row) for i, row in enumerate(rows))

    def pixel(self, y: int, x: int) -> RetrievedPixel:
        side = 2 ** self.n
        if not (0 <= y < side and 0 <= x < side):
            raise ValueError(f"pixel ({y}, {x}) outside a {side}x{side} report")
        return RetrievedPixel(y, x, *(getattr(self, name)[y * side + x].item()
                                      for name in _COLUMNS))


def _chroma_columns(kvw: np.ndarray, budgets: np.ndarray | None) -> dict[str, np.ndarray]:
    """Chroma report columns from a (3, pixels) k/v/w array and per-pixel shot budgets.

    ``budgets`` is None for exact statistics.
    """
    sigma = np.zeros(kvw.shape[1]) if budgets is None else 1.0 / np.sqrt(budgets)
    _check_statistics(kvw, sigma)
    theta = _theta_estimates(kvw[0])
    phi, undefined, radius = _phi_estimates(kvw[1], kvw[2], None if budgets is None else sigma)
    hue, saturation, _ = decode_chroma_arrays(theta, phase_steps_array(phi) * PHASE_STEP)
    # phi is 0 where the hue is undefined, so hue is 0 there too
    return {"theta": theta, "phi": phi, "hue": hue, "saturation": saturation,
            "hue_undefined": undefined,
            "theta_3sigma": 3.0 * sigma / np.maximum(np.sin(theta), EXACT_HUE_FLOOR),
            "phi_3sigma": 6.0 * sigma / np.maximum(radius, EXACT_HUE_FLOOR)}


def _structured_statistics(img: QhslImage, mode: str, shots, seed, branch):
    """(3, pixels) k/v/w array and per-pixel shot budgets (None when exact)."""
    kvw = np.array([_chroma_expectations(a0, a1)
                    for a0, a1 in structured_state(img).all_chroma_amplitudes()]).T
    pixel_count = kvw.shape[1]
    if mode == "exact":
        return kvw, None
    if branch == "oracle":
        # independent per-pixel streams split off the master seed
        # (three scalar draws cost less than one call over a 3-element array)
        streams = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(pixel_count))
        zeros = [[rng.binomial(shots, p0) for p0 in row]
                 for rng, row in zip(streams, _zero_probability(kvw).T.tolist())]
        return _estimates(np.array(zeros).T, shots), np.full(pixel_count, shots)
    # rejection: full-register sampling lands on a uniformly random pixel,
    # so per-basis pixel allocations are multinomial over shots * pixels draws
    rng = np.random.default_rng(seed)
    uniform = np.full(pixel_count, 1.0 / pixel_count)
    estimates, allocations = [], []
    for p0 in _zero_probability(kvw):
        allocation = rng.multinomial(shots * pixel_count, uniform)
        starved = np.flatnonzero(allocation == 0)
        if starved.size:
            raise InconsistentStatisticsError(
                f"pixel {starved[0]} received no samples; increase the shot budget")
        estimates.append(_estimates(rng.binomial(allocation, p0), allocation))
        allocations.append(allocation)
    return np.array(estimates), np.min(allocations, axis=0)


def _dense_statistics(state: StateVector, layout: RegisterLayout, mode: str,
                      shots, seed):
    """_structured_statistics for a dense state: one joint distribution per basis."""
    npos = 4 ** layout.n
    qubits = list(layout.position_qubits) + [layout.chroma_qubit]
    joints = np.array([
        joint_probabilities(state if rotation is None
                            else apply_gate(state, rotation, layout.chroma_qubit), qubits)
        for rotation in (None, Gate.u1(), Gate.u2())])
    if mode == "shots":
        rng = np.random.default_rng(seed)
        joints = np.array([rng.multinomial(shots * npos, j / j.sum()) for j in joints])
    zero, one = joints[:, :npos], joints[:, npos:]
    totals = zero + one
    empty = np.flatnonzero((totals <= _BRANCH_EPS).any(axis=0))
    if empty.size:
        raise InconsistentStatisticsError(
            f"pixel branch {empty[0]} has no probability" if mode == "exact" else
            f"pixel branch {empty[0]} received no samples; increase the shot budget")
    return (zero - one) / totals, totals.min(axis=0) if mode == "shots" else None


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
    layout = source.layout if isinstance(source, QhslImage) else layout
    if mode == "shots" and layout is not None and shots * 4 ** layout.n > 2 ** 63 - 1:
        raise ValueError(f"{shots} shots per basis on {4 ** layout.n} pixels exceed "
                         "2**63 - 1 samples")

    if isinstance(source, QhslImage):
        mapping = source.mapping if mapping is None else mapping
        table = source.table if table is None else table
        chroma = _chroma_columns(*_structured_statistics(source, mode, shots, seed, branch))
        codes = source.codes
    elif isinstance(source, StateVector):
        if layout is None:
            raise ValueError("dense retrieval needs a register layout")
        if layout.total_qubits != source.num_qubits:
            raise ValueError("layout does not match the state register")
        if mode == "shots" and branch == "oracle":
            raise ValueError("the oracle branch fast path needs the structured backend")
        mapping = AVERAGE if mapping is None else mapping
        chroma = _chroma_columns(*_dense_statistics(source, layout, mode, shots, seed))
        codes = _dense_lightness_codes(source, layout, range(4 ** layout.n))
    else:
        raise TypeError(f"cannot retrieve from {type(source).__name__}")

    return RetrievalReport.from_arrays(
        layout.n, layout.q, mode, shots if mode == "shots" else None, seed,
        branch if mode == "shots" else "exact", codes=codes,
        lightness=lightness_fractions(codes, layout.q, mapping, table), **chroma)
