"""Color transformations in pixel form and as quantum circuits.

Every transform exists twice: as a direct update of stored pixel values
and as a circuit over the image register.  The two agree on prepared
states; tests hold them together.  The pixel forms are masked array
operations; region-constrained variants leave unselected pixels
untouched, bit for bit.

Selections over the lightness code come in two interchangeable flavours:
control-pattern synthesis (a threshold `<= xi` decomposes into the
equality pattern for xi plus one pattern per set bit of xi; a general
interval decomposes into aligned blocks) and comparator circuits whose
flag qubits gate the payload and are uncomputed afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .color import (
    FULL_TURN_STEPS,
    SATURATION_HIGH,
    decode_chroma_arrays,
    phase_steps,
    quantize_lightness,
)
from .errors import AncillaBudgetError, ConfigurationError
from .image import PixelAddress, QhslImage, RegisterLayout
from .sim import (
    EMPTY_PATTERN,
    Circuit,
    ControlPattern,
    Gate,
    Instruction,
    comparator,
    load_constant,
    saturating_add_circuit,
    saturating_sub_circuit,
)


@dataclass(frozen=True)
class RegionConstraint:
    """Which pixels a local transform touches.

    Each field is an inclusive (lo, hi) interval: ``lightness`` on the
    q-bit code, ``y_range``/``x_range`` on pixel coordinates.  At least
    one must be present; absent fields do not constrain.
    """

    lightness: tuple[int, int] | None = None
    y_range: tuple[int, int] | None = None
    x_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.lightness is None and self.y_range is None and self.x_range is None:
            raise ValueError("a region constraint needs at least one predicate")
        for name in ("lightness", "y_range", "x_range"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            lo, hi = bounds
            if lo < 0 or lo > hi:
                raise ValueError(f"{name} interval ({lo}, {hi}) is empty or negative")
            object.__setattr__(self, name, (int(lo), int(hi)))

    @classmethod
    def lightness_leq(cls, xi: int) -> "RegionConstraint":
        return cls(lightness=(0, xi))

    @classmethod
    def lightness_geq(cls, xi: int, q: int) -> "RegionConstraint":
        return cls(lightness=(xi, 2 ** q - 1))

    @classmethod
    def lightness_between(cls, lo: int, hi: int) -> "RegionConstraint":
        return cls(lightness=(lo, hi))

    def matches(self, y, x, bits):
        """Whether pixel (y, x) with lightness code ``bits`` is selected; elementwise on arrays."""
        selected = True
        for bounds, value in ((self.lightness, bits), (self.y_range, y), (self.x_range, x)):
            if bounds is not None:
                selected = selected & (bounds[0] <= value) & (value <= bounds[1])
        return selected

    def mask(self, img: QhslImage) -> np.ndarray:
        """Boolean raster-order array of the image pixels the region selects."""
        pos = np.arange(4 ** img.n)
        return self.matches(pos >> img.n, pos & (img.side - 1), img.codes)


def _selection(img: QhslImage, region: RegionConstraint | None) -> np.ndarray:
    return np.ones(4 ** img.n, dtype=bool) if region is None else region.mask(img)


def _replace(img: QhslImage, theta=None, steps=None, codes=None) -> QhslImage:
    return QhslImage.from_arrays(
        img.n, img.q, img.theta if theta is None else theta,
        img.phase_steps if steps is None else steps, img.codes if codes is None else codes,
        img.mapping, img.table, img.table_source)


def _rotate_phases(steps: np.ndarray, dphi: float, selected=True) -> np.ndarray:
    # exact mod-2*pi addition on the phase grid, where selected
    return np.where(selected, (steps + phase_steps(dphi)) % FULL_TURN_STEPS, steps)


def hue_shift(img: QhslImage, dphi: float, region: RegionConstraint | None = None) -> QhslImage:
    """Rotate hue phases by dphi (mod 2*pi, exact on the phase grid)."""
    if not math.isfinite(dphi):
        raise ValueError(f"hue shift {dphi} is not finite")
    return _replace(img, steps=_rotate_phases(img.phase_steps, dphi, _selection(img, region)))


def _fold_theta(t) -> tuple[np.ndarray, np.ndarray]:
    # fold onto [0, pi]; each fold through a Bloch pole flips the phase by pi
    t = np.fmod(t, 2.0 * math.pi)
    below = t < 0.0
    t = np.where(below, -t, t)
    above = t > math.pi
    return np.where(above, 2.0 * math.pi - t, t), below ^ above


def saturation_shift(img: QhslImage, dtheta: float,
                     region: RegionConstraint | None = None) -> QhslImage:
    """Shift saturation angles by dtheta.

    theta leaving [0, pi] is reflected back and the hue phase advanced by
    pi, which is what the corresponding qubit rotation does physically.
    Decoding clamps saturation to [0, 1] on the outer thirds.
    """
    if not math.isfinite(dtheta):
        raise ValueError(f"saturation shift {dtheta} is not finite")
    selected = _selection(img, region)
    theta, flip = _fold_theta(img.theta + dtheta)
    return _replace(img, theta=np.where(selected, theta, img.theta),
                    steps=_rotate_phases(img.phase_steps, math.pi, selected & flip))


def _check_shift(q: int, k: int) -> int:
    top = 2 ** q - 1
    if not 0 <= k <= top:
        raise ValueError(f"k={k} outside 0..{top}")
    return top


def lightness_add(img: QhslImage, k: int, region: RegionConstraint | None = None) -> QhslImage:
    """Add k to lightness codes, saturating at the register maximum."""
    top = _check_shift(img.q, k)
    return _replace(img, codes=np.where(_selection(img, region),
                                        np.minimum(img.codes + k, top), img.codes))


def lightness_sub(img: QhslImage, k: int, region: RegionConstraint | None = None) -> QhslImage:
    """Subtract k from lightness codes, saturating at zero."""
    _check_shift(img.q, k)
    return _replace(img, codes=np.where(_selection(img, region),
                                        np.maximum(img.codes - k, 0), img.codes))


def invert_color(img: QhslImage) -> QhslImage:
    """Complement every pixel: lightness code flipped, hue advanced by pi."""
    return _replace(img, steps=_rotate_phases(img.phase_steps, math.pi),
                    codes=2 ** img.q - 1 - img.codes)


def leq_control_patterns(threshold: int, width: int) -> list[ControlPattern]:
    """Disjoint control patterns matching exactly the codes <= threshold.

    The first pattern matches the threshold itself; then, scanning the
    threshold's set bits from high to low, one pattern per set bit fixes
    the higher bits to the threshold's, that bit to 0, and leaves the
    lower bits free.  Total: popcount(threshold) + 1 patterns.
    """
    if not 0 <= threshold < 2 ** width or width < 0:
        raise ValueError(f"threshold {threshold} does not fit in {width} bits")
    patterns = [ControlPattern(tuple((i, (threshold >> i) & 1) for i in range(width)))]
    for j in range(width - 1, -1, -1):
        if (threshold >> j) & 1:
            terms = tuple((i, (threshold >> i) & 1) for i in range(j + 1, width)) + ((j, 0),)
            patterns.append(ControlPattern(terms))
    return patterns


def interval_control_patterns(lo: int, hi: int, width: int) -> list[ControlPattern]:
    """Disjoint control patterns covering exactly the codes in [lo, hi].

    Equivalent to (<= hi) minus (<= lo-1), realized directly as maximal
    aligned blocks: each pattern fixes a high prefix and frees the rest.
    """
    if width < 0 or not 0 <= lo <= hi < 2 ** width:
        raise ValueError(f"interval [{lo}, {hi}] does not fit in {width} bits")
    patterns = []
    cur = lo
    while cur <= hi:
        size = 1
        while cur % (2 * size) == 0 and cur + 2 * size - 1 <= hi:
            size *= 2
        free = size.bit_length() - 1
        patterns.append(ControlPattern(tuple((i, (cur >> i) & 1) for i in range(free, width))))
        cur += size
    return patterns


def region_control_patterns(layout: RegisterLayout, region: RegionConstraint) -> list[ControlPattern]:
    """All (disjoint) control patterns whose union selects a region."""

    def alternatives(bounds, width: int, offset: int) -> list[ControlPattern]:
        if bounds is None:
            return [EMPTY_PATTERN]
        if bounds == (0, 2 ** width - 1):
            return [EMPTY_PATTERN]
        return [p.shifted(offset) for p in interval_control_patterns(*bounds, width)]

    lights = alternatives(region.lightness, layout.q, 2 * layout.n)
    ys = alternatives(region.y_range, layout.n, layout.n)
    xs = alternatives(region.x_range, layout.n, 0)
    return [ControlPattern.merge(li, yi, xi) for li in lights for yi in ys for xi in xs]


def hue_shift_circuit(layout: RegisterLayout, dphi: float,
                      region: RegionConstraint | None = None) -> Circuit:
    """Circuit form of hue_shift: (controlled) RZ(dphi) on the chroma qubit."""
    patterns = [EMPTY_PATTERN] if region is None else region_control_patterns(layout, region)
    instrs = tuple(Instruction(Gate.rz(dphi), layout.chroma_qubit, p) for p in patterns)
    return Circuit(layout.total_qubits, instrs)


def saturation_shift_circuit(img: QhslImage, dtheta: float,
                             region: RegionConstraint | None = None) -> Circuit:
    """Circuit form of saturation_shift.

    A bare RY only adds to theta on the zero-phase meridian; for any other
    hue it drags the phase along.  The hue-preserving rotation axis
    depends on the pixel's phase, so each selected pixel gets the
    conjugated triple RZ(-phi) RY(dtheta) RZ(phi) under its position
    pattern.  This matches the pixel form exactly while theta stays in
    [0, pi]; a rotation crossing a pole agrees up to a -1 branch phase,
    which no measurement statistic can observe.
    """
    layout = img.layout
    cq = layout.chroma_qubit
    phis = img.phi
    instrs: list[Instruction] = []
    for pos in np.flatnonzero(_selection(img, region)).tolist():
        pattern = layout.pixel_pattern(PixelAddress(pos >> img.n, pos & (img.side - 1)))
        phi = float(phis[pos])
        instrs.append(Instruction(Gate.rz(-phi), cq, pattern))
        instrs.append(Instruction(Gate.ry(dtheta), cq, pattern))
        instrs.append(Instruction(Gate.rz(phi), cq, pattern))
    return Circuit(layout.total_qubits, tuple(instrs))


def invert_color_circuit(layout: RegisterLayout) -> Circuit:
    """Circuit form of invert_color: X on every lightness qubit, RZ(pi) on chroma."""
    instrs = [Instruction(Gate.x(), qb) for qb in layout.lightness_qubits]
    instrs.append(Instruction(Gate.rz(math.pi), layout.chroma_qubit))
    return Circuit(layout.total_qubits, tuple(instrs))


def _lightness_circuit(layout: RegisterLayout, k: int, saturating) -> Circuit:
    _check_shift(layout.q, k)
    base, q = layout.total_qubits, layout.q
    total = base + 2 * q + 1
    if q == 0 or k == 0:
        return Circuit(total)
    return saturating(q, k, list(layout.lightness_qubits), list(range(base, base + q)), base + q,
                      list(range(base + q + 1, total)), total)


def lightness_add_circuit(layout: RegisterLayout, k: int) -> Circuit:
    """Circuit form of lightness_add over the image register plus workspace.

    Workspace sits above the image register: a q-qubit addend holding the
    constant, a carry qubit, and q carry-chain qubits.  All workspace
    returns to |0>, so the image state stays disentangled from it.
    """
    return _lightness_circuit(layout, k, saturating_add_circuit)


def lightness_sub_circuit(layout: RegisterLayout, k: int) -> Circuit:
    """Circuit form of lightness_sub (complement, add, complement back)."""
    return _lightness_circuit(layout, k, saturating_sub_circuit)


def comparator_region_circuit(layout: RegisterLayout, region: RegionConstraint,
                              body: Circuit, qubit_budget: int | None = None) -> Circuit:
    """Gate a payload circuit on comparator-computed region flags.

    For every bounded side of the region's intervals a comparator against
    a loaded constant computes greater/less flags; the payload runs with
    all its instructions additionally controlled on the flags that assert
    membership (not-less than the low bound, not-greater than the high
    bound); then flags, work and constants are uncomputed in reverse.
    """
    free = max(body.num_qubits, layout.total_qubits)
    computes: list[Circuit] = []
    controls: list[tuple[int, int]] = []

    def add_bound(register: list[int], width: int, bound: int, select_not_greater: bool) -> None:
        nonlocal free
        const = list(range(free, free + width))
        greater_flag = free + width
        less_flag = free + width + 1
        work = list(range(free + width + 2, free + 2 * width + 2))
        free = free + 2 * width + 2
        compute = load_constant(bound, const, free) + \
            comparator(width, register, const, greater_flag, less_flag, work, free)
        computes.append(compute)
        controls.append((greater_flag, 0) if select_not_greater else (less_flag, 0))

    for bounds, register, width in (
        (region.lightness, list(layout.lightness_qubits), layout.q),
        (region.y_range, list(layout.y_qubits), layout.n),
        (region.x_range, list(layout.x_qubits), layout.n),
    ):
        if bounds is None:
            continue
        lo, hi = bounds
        if hi >= 2 ** width:
            raise ValueError(f"interval [{lo}, {hi}] does not fit in {width} bits")
        if lo > 0:
            add_bound(register, width, lo, select_not_greater=False)
        if hi < 2 ** width - 1:
            add_bound(register, width, hi, select_not_greater=True)

    if qubit_budget is not None and free > qubit_budget:
        raise AncillaBudgetError(
            f"region gating needs {free} qubits, budget is {qubit_budget}")

    instrs = [ins for compute in computes for ins in compute.instructions]
    instrs += body.shifted(0, free).controlled(ControlPattern(tuple(controls))).instructions
    for compute in reversed(computes):
        instrs += compute.inverse().instructions
    return Circuit(free, tuple(instrs))


@dataclass(frozen=True)
class PseudocolorMap:
    """Ordered density intervals with target hues in degrees.

    Entries are (lo, hi, hue_degrees) with contiguous ascending intervals
    starting at 0; together they must cover the code range of the image
    they are applied to.
    """

    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(lo), int(hi), float(hue)) for lo, hi, hue in self.entries)
        if not entries:
            raise ConfigurationError("a pseudocolor map needs at least one interval")
        expected_lo = 0
        for lo, hi, hue in entries:
            if lo != expected_lo:
                raise ConfigurationError(
                    f"intervals must be contiguous ascending: expected lo={expected_lo}, got {lo}")
            if hi < lo:
                raise ConfigurationError(f"interval [{lo}, {hi}] is empty")
            if not 0.0 <= hue < 360.0:
                raise ConfigurationError(f"hue {hue} outside [0, 360)")
            expected_lo = hi + 1
        object.__setattr__(self, "entries", entries)

    @property
    def max_value(self) -> int:
        return self.entries[-1][1]

    def interval_index(self, value: int) -> int:
        for i, (lo, hi, _) in enumerate(self.entries):
            if lo <= value <= hi:
                return i
        raise ValueError(f"value {value} outside the map range 0..{self.max_value}")


def interval_rotation_angles(pmap: PseudocolorMap) -> tuple[float, ...]:
    """Per-interval hue rotations for the cumulative threshold scheme.

    Rotating every code <= hi_i by delta_i makes a pixel in interval j
    accumulate the suffix sum delta_j + ... + delta_{m-1}, so the deltas
    solve the triangular system whose suffix sums are the target hues:
    the top interval gets its hue directly, every other one the
    difference to its successor.
    """
    hues = [math.radians(hue) for _, _, hue in pmap.entries]
    deltas = [hues[i] - hues[i + 1] for i in range(len(hues) - 1)]
    deltas.append(hues[-1])
    return tuple(deltas)


def _check_coverage(img: QhslImage, pmap: PseudocolorMap) -> None:
    top = 2 ** img.q - 1
    if pmap.max_value != top:
        raise ConfigurationError(
            f"map covers 0..{pmap.max_value} but the image codes run 0..{top}")


def _check_grayscale(img: QhslImage) -> None:
    colored = np.flatnonzero(decode_chroma_arrays(img.theta, img.phi)[1] != 0.0)
    if colored.size:
        y, x = divmod(int(colored[0]), img.side)
        raise ValueError(f"pseudocolor needs a saturation-zero source; pixel ({y}, {x}) is colored")


def _suffix_rotations(pmap: PseudocolorMap) -> list[float]:
    deltas = interval_rotation_angles(pmap)
    return [math.fsum(deltas[j:]) for j in range(len(deltas))]


def pseudocolor(img: QhslImage, pmap: PseudocolorMap) -> QhslImage:
    """Recolor a grayscale image: interval hue, full saturation, mid lightness.

    Hue phases get the cumulative threshold rotations (one per interval),
    saturation angles move to the top of the saturation band, and every
    lightness code is set to the 50% level under the image's mapping.
    """
    _check_coverage(img, pmap)
    _check_grayscale(img)
    suffix_steps = np.array([phase_steps(s) for s in _suffix_rotations(pmap)], dtype=np.int64)
    interval = np.searchsorted([hi for _, hi, _ in pmap.entries], img.codes)
    mid = quantize_lightness(0.5, img.q, img.mapping, img.table)
    count = 4 ** img.n
    return _replace(img, theta=np.full(count, SATURATION_HIGH),
                    steps=(img.phase_steps + suffix_steps[interval]) % FULL_TURN_STEPS,
                    codes=np.full(count, mid.bits))


def pseudocolor_circuit(img: QhslImage, pmap: PseudocolorMap,
                        selector: str = "patterns",
                        qubit_budget: int | None = None) -> Circuit:
    """Circuit form of pseudocolor.

    Step order matters: the lightness-selected hue rotations and
    saturation rotations run before the set gates overwrite the codes.
    ``selector`` picks how lightness selections are realized: "patterns"
    uses threshold/interval control patterns on the lightness qubits,
    "comparators" computes flag qubits against loaded constants and
    uncomputes them.  Both select identical code sets.

    The source must be uniformly grayscale with zero phases so that the
    per-interval saturation rotations know every selected pixel's phase.
    """
    if selector not in ("patterns", "comparators"):
        raise ValueError(f"unknown selector {selector!r}")
    _check_coverage(img, pmap)
    _check_grayscale(img)
    if img.theta.max() - img.theta.min() > 1e-12:
        raise ValueError("circuit pseudocolor needs one uniform theta over all pixels")
    if img.phase_steps.any():
        raise ValueError("circuit pseudocolor needs zero hue phases on the source")

    layout = img.layout
    cq = layout.chroma_qubit
    offset = 2 * layout.n
    deltas = interval_rotation_angles(pmap)
    suffixes = _suffix_rotations(pmap)
    dsat = SATURATION_HIGH - float(img.theta[0])
    mid = quantize_lightness(0.5, img.q, img.mapping, img.table)

    def gated(gates: list[Gate], patterns, region: RegionConstraint) -> Circuit:
        # the chroma gates under a lightness selection: control patterns or comparator flags
        if selector == "comparators":
            body = Circuit(layout.total_qubits, tuple(Instruction(g, cq) for g in gates))
            return comparator_region_circuit(layout, region, body, qubit_budget)
        return Circuit(layout.total_qubits, tuple(Instruction(g, cq, p.shifted(offset))
                                                  for p in patterns for g in gates))

    steps = [gated([Gate.rz(delta)], leq_control_patterns(hi, layout.q),
                   RegionConstraint.lightness_leq(hi))
             for delta, (_, hi, _) in zip(deltas, pmap.entries)]
    steps += [gated([Gate.rz(-suffix), Gate.ry(dsat), Gate.rz(suffix)],
                    interval_control_patterns(lo, hi, layout.q),
                    RegionConstraint.lightness_between(lo, hi))
              for suffix, (lo, hi, _) in zip(suffixes, pmap.entries)]
    sets = tuple(Instruction(Gate.set1() if (mid.bits >> j) & 1 else Gate.set0(), qb)
                 for j, qb in enumerate(layout.lightness_qubits))
    steps.append(Circuit(layout.total_qubits, sets))

    total = max(step.num_qubits for step in steps)
    return Circuit(total, tuple(ins for step in steps for ins in step.instructions))
