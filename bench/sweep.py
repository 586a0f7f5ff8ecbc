"""Scaling sweep: seconds per stage against pixel count, with fitted exponents.

    python3 bench/sweep.py

Reported, not gated, and not one of the benchmark workloads.  Dense stages
(``preparation_circuit``, ``run_circuit``, dense exact retrieval) run at
n = 2, 3, 4 and structured stages (encode, dump parse, structured exact
retrieval) at n = 5, 6, 7, all at q = 8 on random RGB from ``SEED``.  Each
time is the median of ``REPEATS`` runs.  A stage's exponent is the
least-squares slope of log(seconds) against log(pixels); every stage here
should be linear, so an exponent above ``SUPERLINEAR`` is flagged.  The result is printed and
written to ``bench/out/sweep.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import run  # sets the thread settings before numpy loads

SUPERLINEAR = 1.2
Q = 8
SEED = 0
REPEATS = 3


def _stages(qhsl, np):
    def dense(n, rng):
        img = qhsl.image_from_rgb_array(rng.integers(0, 256, (2 ** n, 2 ** n, 3), dtype=np.uint8), n, Q)
        circuit = qhsl.preparation_circuit(img)
        state = qhsl.run_circuit(qhsl.StateVector.zero(circuit.num_qubits), circuit)
        return {
            "preparation_circuit": lambda: qhsl.preparation_circuit(img),
            "run_circuit": lambda: qhsl.run_circuit(qhsl.StateVector.zero(circuit.num_qubits), circuit),
            "dense_retrieval": lambda: qhsl.retrieve_image(state, layout=img.layout),
        }

    def structured(n, rng):
        rgb = rng.integers(0, 256, (2 ** n, 2 ** n, 3), dtype=np.uint8)
        img = qhsl.image_from_rgb_array(rgb, n, Q)
        text = qhsl.format_image(img)
        return {
            "encode": lambda: qhsl.image_from_rgb_array(rgb, n, Q),
            "dump_parse": lambda: qhsl.parse_image(text),
            "structured_retrieval": lambda: qhsl.retrieve_image(img),
        }

    return ((dense, (2, 3, 4)), (structured, (5, 6, 7)))


def exponent(pixels, seconds) -> float:
    xs = [math.log(p) for p in pixels]
    ys = [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    qhsl = run.load_program()
    import numpy as np

    rng = np.random.default_rng(SEED)
    timings: dict[str, dict[int, float]] = {}
    for make, sizes in _stages(qhsl, np):
        for n in sizes:
            for stage, fn in make(n, rng).items():
                samples = []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    fn()
                    samples.append(time.perf_counter() - start)
                timings.setdefault(stage, {})[4 ** n] = statistics.median(samples)

    report = {}
    for stage, by_pixels in timings.items():
        pixels = sorted(by_pixels)
        slope = exponent(pixels, [by_pixels[p] for p in pixels])
        report[stage] = {"seconds_by_pixels": {str(p): by_pixels[p] for p in pixels},
                         "exponent": slope, "superlinear": slope > SUPERLINEAR}
        sizes = "  ".join(f"{p} px {by_pixels[p]:.4g} s" for p in pixels)
        flag = "  SUPER-LINEAR" if slope > SUPERLINEAR else ""
        print(f"{stage:22s} {sizes}  exponent {slope:.2f}{flag}")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    record = {"seed": SEED, "repeats": REPEATS, "q": Q, "stages": report,
              "environment": run.environment(qhsl)}
    with open(os.path.join(run.OUT_DIR, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({stage: round(entry["exponent"], 3) for stage, entry in report.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
