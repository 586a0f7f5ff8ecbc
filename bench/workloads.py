"""The three benchmark workloads: inputs, one iteration, output checks.

Each workload is closed-loop, single-process and single-client: an
iteration starts when the previous one ends.  ``setup`` makes the inputs
from the seed (the program only sees the generated files or images),
``iterate`` is the timed unit of work, and ``check`` validates the
outputs afterwards, outside the timed interval.  Work inside an
iteration that is not the program's (digesting or checking a large state
before it is dropped) runs under ``OpLog.untimed`` and is left out of the
iteration's time.

An operation is one CLI call or one library call.  It fails if it raises,
exits non-zero or fails its output check; failures count into
``ops_failed_frac``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time

import numpy as np

import qhsl
import qhsl.cli

TAU = 2.0 * math.pi
SHOTS = 1024

# A shot estimate should lie inside its reported 3-sigma bar for nearly
# every pixel statistic; sigma is the worst case 1/sqrt(shots), so the bars
# are conservative and misses are rarer than the Gaussian 0.27%.
MIN_3SIGMA_SHARE = 0.99
AMPLITUDE_TOL = 1e-10
# reports print 12 significant digits, so a hue near 360 degrees steps by
# 1e-9; allow a few steps on top of the 1e-10 amplitude agreement
REPORT_TOL = 1e-8


class IterationAborted(Exception):
    """An operation failed; the rest of the iteration depends on it."""


class OpLog:
    """Runs the operations of one iteration and keeps their outcomes.

    ``first`` marks the iteration whose outputs get the full checks; later
    iterations are only compared with its digests.  ``reference``, if given,
    runs untimed after every operation and returns seconds, which are kept
    in ``reference_s`` to gauge the host's speed during the iteration.
    """

    def __init__(self, first: bool, reference=None):
        self.first = first
        self.reference = reference
        self.reference_s = []
        self.completed = []      # operations that returned normally
        self.failures = []       # (operation, reason)
        self.outputs = {}        # operation -> digest of what it produced
        self.untimed_s = 0.0     # seconds spent under ``untimed``

    @contextlib.contextmanager
    def untimed(self):
        """Benchmark work inside an iteration, left out of its time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def _done(self, op: str):
        self.completed.append(op)
        if self.reference is not None:
            with self.untimed():
                self.reference_s.append(self.reference())

    def fail(self, op: str, reason: str):
        self.failures.append((op, reason))
        raise IterationAborted(f"{op}: {reason}")

    def call(self, op: str, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
        self._done(op)
        return result

    def cli(self, op: str, argv: list[str]) -> str:
        """One in-process ``qhsl`` call; returns what it printed."""
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = qhsl.cli.main(argv)
        except Exception as exc:  # any raise is a failed operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
        if code != 0:
            self.fail(op, f"exit code {code}: {captured.getvalue().strip()}")
        self._done(op)
        return captured.getvalue()

    def failed_ops(self, planned: int) -> int:
        """Operations not completed plus completed ones that failed a check."""
        checked = {op for op, _ in self.failures} & set(self.completed)
        return planned - len(self.completed) + len(checked)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


def digest_state(state) -> str:
    """Digest of a state's amplitudes, hashed in place (no copy)."""
    return hashlib.sha256(np.ascontiguousarray(state.amplitudes)).hexdigest()


def embed(state, num_qubits: int):
    """A state widened with workspace qubits held at |0>."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[: state.amplitudes.size] = state.amplitudes
    return qhsl.StateVector(num_qubits, amps)


def random_rgb(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 256, size=(2 ** n, 2 ** n, 3), dtype=np.uint8)


def share_within_3sigma(report, image) -> float:
    """Share of pixel statistics (theta, and phi where defined) inside 3 sigma."""
    inside = total = 0
    for px in report.pixels:
        chroma = image.chroma(px.y, px.x)
        total += 1
        inside += abs(px.theta - chroma.theta) <= px.theta_3sigma
        if not px.hue_undefined:
            gap = abs(px.phi - chroma.phi) % TAU
            total += 1
            inside += min(gap, TAU - gap) <= px.phi_3sigma
    return inside / total


def reports_agree(text_a: str, text_b: str) -> str | None:
    """Numeric comparison of two report texts; None when they agree."""
    a, b = qhsl.parse_report(text_a), qhsl.parse_report(text_b)
    if (a["n"], a["q"], a["mode"]) != (b["n"], b["q"], b["mode"]) or len(a["rows"]) != len(b["rows"]):
        return "report headers differ"
    for ra, rb in zip(a["rows"], b["rows"]):
        if ra[:2] != rb[:2] or ra[5] != rb[5]:
            return f"pixel {ra[:2]} differs in position or hue flag"
        gap = abs(ra[2] - rb[2]) % 360.0
        if min(gap, 360.0 - gap) > REPORT_TOL or abs(ra[3] - rb[3]) > REPORT_TOL \
                or abs(ra[4] - rb[4]) > REPORT_TOL:
            return f"pixel {ra[:2]} differs: {ra[2:5]} vs {rb[2:5]}"
    return None


def statistics_mismatch(got, want, image_qubits: int, chroma_qubit: int) -> str | None:
    """Compare every exact measurement statistic of two states.

    ``got`` may carry workspace above the image register; all of its
    probability must sit in the workspace-zero block.  The image blocks
    must then give the same full-register distribution in each of the
    three chroma bases (direct, U1, U2), which covers every pixel's chroma
    expectations and lightness distribution.
    """
    amps = got.amplitudes.reshape(-1, 2 ** image_qubits)
    rest = amps[1:].reshape(-1)
    leaked = float(np.vdot(rest, rest).real)
    if leaked > AMPLITUDE_TOL:
        return f"workspace holds probability {leaked:.3e}"
    block = qhsl.StateVector(image_qubits, amps[0] / np.linalg.norm(amps[0]))
    for rotation in (None, qhsl.Gate.u1(), qhsl.Gate.u2()):
        g = block if rotation is None else qhsl.apply_gate(block, rotation, chroma_qubit)
        w = want if rotation is None else qhsl.apply_gate(want, rotation, chroma_qubit)
        worst = float(np.abs(np.abs(g.amplitudes) ** 2 - np.abs(w.amplitudes) ** 2).max())
        if worst > AMPLITUDE_TOL:
            basis = "direct" if rotation is None else rotation.kind
            return f"{basis}-basis probabilities differ by {worst:.3e}"
    return None


class Workload:
    name = ""
    n = q = 0
    workspace_qubits = 0
    ops_per_iteration = 0

    @property
    def pixels(self) -> int:
        return 4 ** self.n

    def sizes(self) -> dict:
        return {"n": self.n, "q": self.q, "pixels": self.pixels,
                "qubits_total": 2 * self.n + self.q + 1 + self.workspace_qubits,
                "ops_per_iteration": self.ops_per_iteration}

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def iterate(self, log: OpLog) -> None:
        raise NotImplementedError

    def check(self, log: OpLog) -> None:
        """Validate outputs of the iteration just run; record failures in ``log``."""
        raise NotImplementedError


class StructuredPipeline(Workload):
    name = "structured_pipeline"
    n, q = 7, 8
    ops_per_iteration = 8

    def setup(self, seed, workdir):
        self.seed = seed
        self.paths = {name: os.path.join(workdir, name) for name in (
            "input.ppm", "encoded.dump", "hue.dump", "lighter.dump", "desat.dump",
            "rejection.report", "oracle.report", "estimate.ppm", "decoded.ppm")}
        qhsl.write_ppm(self.paths["input.ppm"], random_rgb(np.random.default_rng(seed), self.n))

    def iterate(self, log):
        p = self.paths
        shots = ["--mode", "shots", "--shots", str(SHOTS), "--seed", str(self.seed)]
        log.cli("encode", ["encode", p["input.ppm"], p["encoded.dump"],
                           "--n", str(self.n), "--q", str(self.q), "--mapping", "average"])
        log.cli("transform_hue", ["transform", p["encoded.dump"], p["hue.dump"],
                                  "--hue-shift", "120"])
        log.cli("transform_lighten", ["transform", p["hue.dump"], p["lighter.dump"],
                                      "--lighten", "40", "--lightness-geq", "128"])
        log.cli("transform_sat", ["transform", p["lighter.dump"], p["desat.dump"],
                                  "--sat-shift", "-0.25", "--rows", "0", "64"])
        log.cli("retrieve_rejection", ["retrieve", p["desat.dump"], p["rejection.report"],
                                       *shots, "--branch", "rejection"])
        log.cli("retrieve_oracle", ["retrieve", p["desat.dump"], p["oracle.report"],
                                    *shots, "--branch", "oracle"])
        log.cli("decode_report", ["decode", p["rejection.report"], p["estimate.ppm"]])
        log.cli("decode_dump", ["decode", p["desat.dump"], p["decoded.ppm"]])

    _OUTPUTS = {"encode": "encoded.dump", "transform_hue": "hue.dump",
                "transform_lighten": "lighter.dump", "transform_sat": "desat.dump",
                "retrieve_rejection": "rejection.report", "retrieve_oracle": "oracle.report",
                "decode_report": "estimate.ppm", "decode_dump": "decoded.ppm"}

    def check(self, log):
        for op, name in self._OUTPUTS.items():
            log.outputs[op] = digest_file(self.paths[name])
        if not log.first:
            return
        # shot estimates against the exact angles of the retrieved dump; the
        # library recomputes each report to get its 3-sigma bars and must
        # reproduce the CLI's bytes
        source = qhsl.load_dump(self.paths["desat.dump"])
        for op, branch in (("retrieve_rejection", "rejection"), ("retrieve_oracle", "oracle")):
            report = qhsl.retrieve_image(source, "shots", shots=SHOTS, seed=self.seed,
                                         branch=branch)
            with open(self.paths[f"{branch}.report"], encoding="utf-8") as fh:
                if qhsl.format_report(report) != fh.read():
                    log.failures.append((op, "CLI report differs from the library report"))
                    continue
            share = share_within_3sigma(report, source)
            if share < MIN_3SIGMA_SHARE:
                log.failures.append((op, f"only {share:.4f} of statistics within 3 sigma"))


class DenseVerify(Workload):
    name = "dense_verify"
    n, q = 4, 8
    ops_per_iteration = 6

    def setup(self, seed, workdir):
        self.seed = seed
        self.paths = {name: os.path.join(workdir, name) for name in (
            "image.dump", "image.circuit", "exact.report", "shots.report")}
        rgb = random_rgb(np.random.default_rng(seed), self.n)
        self.image = qhsl.image_from_rgb_array(rgb, self.n, self.q)
        qhsl.save_dump(self.paths["image.dump"], self.image)
        self.state = None

    def iterate(self, log):
        p = self.paths
        log.cli("prepare", ["prepare", p["image.dump"], p["image.circuit"]])
        self.verify_out = log.cli("verify", ["verify", p["image.dump"]])
        log.cli("retrieve_exact", ["retrieve", p["image.dump"], p["exact.report"],
                                   "--backend", "dense"])
        log.cli("retrieve_shots", ["retrieve", p["image.dump"], p["shots.report"],
                                   "--backend", "dense", "--mode", "shots",
                                   "--shots", str(SHOTS), "--seed", str(self.seed)])
        circuit = log.call("load_circuit", qhsl.load_circuit, p["image.circuit"])
        self.state = log.call("run_circuit", qhsl.run_circuit,
                              qhsl.StateVector.zero(circuit.num_qubits), circuit)

    def check(self, log):
        p = self.paths
        log.outputs["prepare"] = digest_file(p["image.circuit"])
        log.outputs["verify"] = digest_bytes(self.verify_out.encode())
        log.outputs["retrieve_exact"] = digest_file(p["exact.report"])
        log.outputs["retrieve_shots"] = digest_file(p["shots.report"])
        log.outputs["run_circuit"] = digest_state(self.state)
        if "verification passed" not in self.verify_out:
            log.failures.append(("verify", self.verify_out.strip()))
        if not log.first:
            return
        reference = qhsl.structured_state(self.image).to_statevector()
        deviation = float(np.abs(self.state.amplitudes - reference.amplitudes).max())
        if deviation > AMPLITUDE_TOL:
            log.failures.append(("run_circuit", f"dense vs structured deviation {deviation:.3e}"))
        with open(p["exact.report"], encoding="utf-8") as fh:
            dense_exact = fh.read()
        structured_exact = qhsl.format_report(qhsl.retrieve_image(self.image))
        problem = reports_agree(dense_exact, structured_exact)
        if problem:
            log.failures.append(("retrieve_exact", f"dense vs structured exact report: {problem}"))
        report = qhsl.retrieve_image(self.state, "shots", shots=SHOTS, seed=self.seed,
                                     layout=self.image.layout)
        with open(p["shots.report"], encoding="utf-8") as fh:
            if qhsl.format_report(report) != fh.read():
                log.failures.append(("retrieve_shots", "CLI report differs from the library report"))
                return
        share = share_within_3sigma(report, self.image)
        if share < MIN_3SIGMA_SHARE:
            log.failures.append(("retrieve_shots", f"only {share:.4f} of statistics within 3 sigma"))


class CircuitEdits(Workload):
    name = "circuit_edits"
    n, q = 3, 4
    workspace_qubits = 10       # comparator: constant, two flags, work register
    ops_per_iteration = 15

    HUE_SHIFT = TAU / 3.0
    SAT_SHIFT = -0.25 * math.pi / 3.0
    LIGHTEN, DARKEN = 5, 3
    REGION = dict(lightness=(4, 11), y_range=(0, 3))
    COMPARATOR_LEQ = 7
    COMPARATOR_HUE = 1.0
    PSEUDOCOLOR_MAP = ((0, 3, 0.0), (4, 8, 60.0), (9, 12, 240.0), (13, 15, 120.0))

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.image = qhsl.image_from_rgb_array(random_rgb(rng, self.n), self.n, self.q)
        levels = rng.integers(0, 256, size=(2 ** self.n, 2 ** self.n), dtype=np.uint8)
        self.gray = qhsl.image_from_rgb_array(np.repeat(levels[..., None], 3, axis=2),
                                              self.n, self.q)
        self.region = qhsl.RegionConstraint(**self.REGION)
        self.pmap = qhsl.PseudocolorMap(self.PSEUDOCOLOR_MAP)

    def _edit(self, log, name, build, *args, prepared):
        """Build and run one edit, then digest (and on the first iteration
        check) its state untimed and drop it, so the process never holds
        more than the state in flight."""
        circuit = log.call(f"{name}_build", build, *args)
        state = log.call(f"{name}_run", qhsl.run_circuit,
                         embed(prepared, circuit.num_qubits), circuit)
        with log.untimed():
            log.outputs[f"{name}_run"] = digest_state(state)
            if log.first:
                layout = self.image.layout
                try:
                    problem = statistics_mismatch(state, self.expected[name],
                                                  layout.total_qubits, layout.chroma_qubit)
                except Exception as exc:  # a check that cannot run is a failed check
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    log.failures.append((f"{name}_run", f"circuit vs pixel form: {problem}"))

    def iterate(self, log):
        if log.first:
            with log.untimed():
                try:
                    self.expected = self._pixel_forms()
                except Exception as exc:  # a check that cannot run is a failed check
                    log.failures.append(("check", f"pixel forms: {type(exc).__name__}: {exc}"))
                    self.expected = {}
        img, layout = self.image, self.image.layout
        prepared = log.call("prepare", qhsl.simulate_preparation, img)
        self._edit(log, "hue", qhsl.hue_shift_circuit, layout, self.HUE_SHIFT, self.region,
                   prepared=prepared)
        self._edit(log, "saturation", qhsl.saturation_shift_circuit, img, self.SAT_SHIFT,
                   self.region, prepared=prepared)
        self._edit(log, "lighten", qhsl.lightness_add_circuit, layout, self.LIGHTEN,
                   prepared=prepared)
        self._edit(log, "darken", qhsl.lightness_sub_circuit, layout, self.DARKEN,
                   prepared=prepared)
        body = log.call("comparator_body", qhsl.hue_shift_circuit, layout, self.COMPARATOR_HUE)
        self._edit(log, "comparator", qhsl.comparator_region_circuit, layout,
                   qhsl.RegionConstraint.lightness_leq(self.COMPARATOR_LEQ), body,
                   prepared=prepared)
        gray = log.call("prepare_gray", qhsl.simulate_preparation, self.gray)
        self._edit(log, "pseudocolor", qhsl.pseudocolor_circuit, self.gray, self.pmap,
                   "patterns", prepared=gray)

    def _pixel_forms(self):
        img = self.image
        leq = qhsl.RegionConstraint.lightness_leq(self.COMPARATOR_LEQ)
        forms = {
            "hue": qhsl.hue_shift(img, self.HUE_SHIFT, self.region),
            "saturation": qhsl.saturation_shift(img, self.SAT_SHIFT, self.region),
            "lighten": qhsl.lightness_add(img, self.LIGHTEN),
            "darken": qhsl.lightness_sub(img, self.DARKEN),
            "comparator": qhsl.hue_shift(img, self.COMPARATOR_HUE, leq),
            "pseudocolor": qhsl.pseudocolor(self.gray, self.pmap),
        }
        return {name: qhsl.structured_state(form).to_statevector() for name, form in forms.items()}

    def check(self, log):
        """Nothing left: ``_edit`` digests and checks each state as it is made."""


WORKLOADS = {w.name: w for w in (StructuredPipeline, DenseVerify, CircuitEdits)}
