"""Benchmark of the qhsl pipeline: one workload per run, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any copy of it holding ``src/qhsl``); the
program is imported from that copy's ``src``.  The run:

1. runs one warm-up iteration, untimed, whose outputs get the full checks;
2. runs iterations back to back until their timed total reaches
   ``--seconds`` (at least ``MIN_ITERATIONS``), checking each iteration's
   outputs afterwards, outside the timed interval;
3. times set-up (interpreter start, imports, input generation from the
   seed) in ``SETUP_SAMPLES`` child processes, started between iterations
   and spread evenly over the timed phase, and keeps their median;
4. prints one line per metric, then one JSON object as the last line of
   standard output, and exits non-zero if any check failed.

The host's speed drifts over seconds to minutes, so both medians are taken
over samples spread across the whole run rather than over a burst, and
each sample is scaled to a reference host speed (see ``REFERENCE_S``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports per-layer metrics from the
traced ones (see tracing.py); its spans go to ``bench/out``.  Each run also
writes a record with sizes, settings and the layer-to-metric map there.
"""

from __future__ import annotations

import os
import sys

# one single-client process: keep BLAS and OpenMP pools to one thread so
# runs are comparable on any machine (set before numpy is imported)
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, "work")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_ITERATIONS = 3
SETUP_SAMPLES = 15

# The host switches between fast and slow phases (up to 1.6x apart, lasting
# seconds to minutes), which moves set-up and iteration times together.  A
# run without tracing therefore times a fixed reference task, outside the
# timed intervals, after every operation and around every set-up sample, and
# scales each sample by ``REFERENCE_S`` over the mean reference time around
# it: the seconds it would have taken on a host that runs the reference
# task in ``REFERENCE_S``.  The wall-clock values are printed and recorded
# beside them.
REFERENCE_S = 0.035

END_TO_END = {           # name -> unit
    "setup_s": "s",
    "iter_s_p50": "s",
    "px_per_s": "px/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {            # name -> unit
    "cli.calls": "count",
    "cli.self_s": "s",
    "formats.self_s": "s",
    "formats.read_s": "s",
    "formats.write_s": "s",
    "formats.read_bytes": "B",
    "formats.write_bytes": "B",
    "color.self_s": "s",
    "color.calls_per_px": "calls/px",
    "image.self_s": "s",
    "image.instructions_built": "count",
    "transforms.self_s": "s",
    "transforms.instructions_built": "count",
    "sim.self_s": "s",
    "sim.instructions_applied": "count",
    "sim.bytes_moved_computed": "B",
    "sim.gb_per_s_computed": "GB/s",
    "sim.state_qubits_max": "qubits",
    "retrieval.self_s": "s",
    "retrieval.joint_calls": "count",
    "trace.overhead_frac": "ratio",
}

# per-layer metric -> the end-to-end metric it should move, and where
LAYER_MAP = {
    "cli.calls": "iter_s_p50 on every workload; stays small (dispatch guard)",
    "cli.self_s": "iter_s_p50 on every workload; stays small (dispatch guard)",
    "formats.self_s": "px_per_s on structured_pipeline",
    "formats.read_s": "px_per_s on structured_pipeline",
    "formats.write_s": "px_per_s on structured_pipeline",
    "formats.read_bytes": "none: fixed by the file formats, must not move",
    "formats.write_bytes": "none: fixed by the file formats, must not move",
    "color.self_s": "px_per_s on structured_pipeline; ~0 on circuit_edits",
    "color.calls_per_px": "px_per_s on structured_pipeline; array core drives it to 0",
    "image.self_s": "iter_s_p50 on dense_verify; ~0 on structured_pipeline",
    "image.instructions_built": "iter_s_p50 on dense_verify; 0 on structured_pipeline",
    "transforms.self_s": "px_per_s on structured_pipeline (pixel forms)",
    "transforms.instructions_built": "iter_s_p50 on circuit_edits",
    "sim.self_s": "iter_s_p50 on dense_verify (gate fusion); unchanged on circuit_edits",
    "sim.instructions_applied": "iter_s_p50 on dense_verify (gate fusion); unchanged on circuit_edits",
    "sim.bytes_moved_computed": "iter_s_p50 and peak_rss_mb on circuit_edits",
    "sim.gb_per_s_computed": "iter_s_p50 on circuit_edits (faster kernel reads higher)",
    "sim.state_qubits_max": "peak_rss_mb on circuit_edits",
    "retrieval.self_s": "iter_s_p50 on dense_verify; px_per_s on structured_pipeline",
    "retrieval.joint_calls": "iter_s_p50 on dense_verify (259 per dense retrieval today, <=4 ideal)",
    "trace.overhead_frac": "none: tracing cost, traced over untraced wall time minus 1",
}

# per-iteration counts that must repeat exactly between iterations and runs
COUNT_KEYS = ("cli.calls", "formats.read_bytes", "formats.write_bytes", "color.calls",
              "image.instructions_built", "transforms.instructions_built",
              "sim.instructions_applied", "sim.bytes_moved_computed", "sim.state_qubits_max",
              "retrieval.joint_calls", "retrieval.retrieve_calls")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import qhsl from this copy's src, refusing any other installation."""
    init = os.path.join(SRC, "qhsl", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no program source at {init}")
    sys.path.insert(0, SRC)
    import qhsl

    if os.path.abspath(qhsl.__file__) != init:
        raise SystemExit(f"bench: imported qhsl from {qhsl.__file__}, not {init}")
    return qhsl


def git_sha():
    """The checked-out commit of this copy; None outside a git checkout."""
    try:
        done = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def setup_sample(args) -> float:
    """Wall seconds of a child process that starts, imports and makes the inputs."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    # no timeout: with one, subprocess polls the child in 50 ms steps
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def reference_task() -> float:
    """Fixed interpreter and numpy work, like the program's mix of per-item
    Python (calls, float maths, dict updates) and small-array numpy.  It
    uses nothing from qhsl, so it does not change when the program does."""
    import math

    import numpy as np

    acc, table = 0.0, {}
    for i in range(60000):
        x = (i * 0.618034) % 1.0
        key = i & 255
        table[key] = table.get(key, 0.0) + math.atan2(x, 1.0 - x)
        acc += x * x
    arr = np.linspace(0.0, 1.0, 4096)
    for _ in range(200):
        arr = np.sqrt(arr * arr + 1.0) - 1.0 + arr
    return acc + sum(table.values()) + float(arr[-1])


def time_reference_task() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def run_iterations(workload, args, tracer):
    """Warm-up, then a closed loop until the timed total reaches ``args.seconds``.

    Runs without tracing also time the reference task after every
    operation (through ``OpLog``) and take their set-up samples between
    iterations, one each time the timed total passes another
    ``1 / SETUP_SAMPLES`` of ``args.seconds``; every sample is kept both
    as measured and scaled.  Returns the tally.
    """
    from workloads import IterationAborted, OpLog

    tally = {"times": [], "traced": [], "warmup_s": None, "setup": [], "scaled": [],
             "setup_scaled": [], "attempted": 0, "failed": 0, "failures": [], "summaries": []}
    times = tally["times"]
    reference, reference_failed = None, set()
    minimum = 2 * MIN_ITERATIONS if tracer else MIN_ITERATIONS
    while tally["warmup_s"] is None or sum(times) < args.seconds or len(times) < minimum:
        first = reference is None
        traced = tracer is not None and not first and len(times) % 2 == 1
        log = OpLog(first=first, reference=None if args.trace else time_reference_task)
        gc.collect()
        with (tracer if traced else nullcontext()):
            start = time.perf_counter()
            try:
                workload.iterate(log)
                completed = True
            except IterationAborted:
                completed = False
            elapsed = time.perf_counter() - start - log.untimed_s
        if completed:
            try:
                workload.check(log)
            except Exception as exc:  # a check that cannot run is a failed check
                log.failures.append(("check", f"{type(exc).__name__}: {exc}"))
            if first:
                # later iterations are checked against these outputs only
                reference = dict(log.outputs)
                reference_failed = {op for op, _ in log.failures}
            else:
                for op, digest in log.outputs.items():
                    if reference.get(op) != digest:
                        log.failures.append((op, "output differs from the first iteration's"))
                    elif op in reference_failed:
                        log.failures.append((op, "repeats the first iteration's failed output"))
        if traced:
            summary = tracer.finish_iteration(summarize=completed)
            if summary is not None:
                tally["summaries"].append(summary)
        tally["attempted"] += workload.ops_per_iteration
        tally["failed"] += log.failed_ops(workload.ops_per_iteration)
        tally["failures"].extend(log.failures)
        if first:
            tally["warmup_s"] = elapsed
            if not completed:
                break  # nothing to time: the program fails on these inputs
            continue
        times.append(elapsed)
        tally["traced"].append(traced)
        if not args.trace:
            tally["scaled"].append(elapsed * REFERENCE_S / statistics.mean(log.reference_s))
            due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * sum(times) / args.seconds))
            while len(tally["setup"]) < due:
                before = time_reference_task()
                tally["setup"].append(setup_sample(args))
                around = (before + time_reference_task()) / 2
                tally["setup_scaled"].append(tally["setup"][-1] * REFERENCE_S / around)
    return tally


def layer_metrics(workload, tally) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced iterations, plus count problems."""
    summaries = tally["summaries"]
    problems = []
    if not summaries:
        return {}, ["no traced iteration completed"]
    for key in COUNT_KEYS:
        values = {s[key] for s in summaries}
        if len(values) != 1:
            problems.append(f"{key} differs between iterations: {sorted(values)}")
    first = summaries[0]

    def median(fn):
        return statistics.median(fn(s) for s in summaries)

    metrics = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = median(lambda s, k=name: s[k])
        elif name in first:
            metrics[name] = first[name]
    metrics["color.calls_per_px"] = first["color.calls"] / workload.pixels
    retrievals = first["retrieval.retrieve_calls"]
    metrics["retrieval.joint_calls"] = first["retrieval.joint_calls"] / retrievals if retrievals else 0.0
    metrics["sim.gb_per_s_computed"] = median(
        lambda s: s["sim.bytes_moved_computed"] / s["sim.self_s"] / 1e9 if s["sim.self_s"] > 0 else 0.0)
    times, traced = tally["times"], tally["traced"]
    plain = statistics.median(t for t, tr in zip(times, traced) if not tr)
    with_spans = statistics.median(t for t, tr in zip(times, traced) if tr)
    metrics["trace.overhead_frac"] = with_spans / plain - 1.0
    return {name: metrics[name] for name in PER_LAYER}, problems


def environment(qhsl_module) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qhsl": qhsl_module.__version__,
        "thread_settings": THREAD_SETTINGS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    qhsl = load_program()
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.setup_only:
        workdir = tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT)
        try:
            workload.setup(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    tracer = None
    try:
        workload.setup(args.seed, workdir)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        tally = run_iterations(workload, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times, setup_samples = tally["times"], tally["setup"]
    problems = [f"{op}: {reason}" for op, reason in tally["failures"]]
    if not times:
        problems.append("the warm-up iteration failed, so no iteration was timed")
        for problem in problems[:20]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, count_problems = layer_metrics(workload, tally)
        problems += count_problems
        units = PER_LAYER
        wall = {}
    else:
        wall = {
            "setup_s": statistics.median(setup_samples),
            "iter_s_p50": statistics.median(times),
            "px_per_s": workload.pixels * len(times) / sum(times),
        }
        scaled = tally["scaled"]
        metrics = {
            "setup_s": statistics.median(tally["setup_scaled"]),
            "iter_s_p50": statistics.median(scaled),
            "px_per_s": workload.pixels * len(scaled) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    correct = not problems and tally["failed"] == 0
    failed_frac = tally["failed"] / tally["attempted"]

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": workload.name, "sizes": workload.sizes(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "iterations": len(times), "iteration_s": times, "iteration_traced": tally["traced"],
        "warmup_s": tally["warmup_s"],
        "setup_samples_s": setup_samples,
        "iteration_scaled_s": tally["scaled"], "setup_scaled_s": tally["setup_scaled"],
        "wall_metrics": wall,
        "attempted": tally["attempted"], "failed": tally["failed"],
        "ops_failed_frac": failed_frac, "problems": problems[:50],
        "metrics": metrics,
        "layer_map": LAYER_MAP, "environment": environment(qhsl),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.npz")

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(times)} iterations, {tally['attempted']} operations")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if wall:
        print(f"wall-clock values (the metrics above are scaled to a {REFERENCE_S} s reference task):")
        for name, value in wall.items():
            print(f"  {name} {value!r} {units[name]}")
    print(f"ops_failed_frac {failed_frac!r} ({tally['failed']}/{tally['attempted']})")
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
