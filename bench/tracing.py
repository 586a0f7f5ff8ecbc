"""Spans around calls into qhsl's layers, recorded from outside the package.

The traced run wraps every public function that ``qhsl/__init__.py``
exports, plus ``qhsl.cli.main``, at every ``qhsl.*`` module attribute bound
to it.  Calls between modules (``cli`` -> ``formats``, ``retrieval`` ->
``sim``, ...) therefore pass through a wrapper too.  Each span records its
function, start, end and parent and belongs to the layer (module) that
defines the function.  A layer's self time is its spans' durations minus
the time their child spans cover.  Spans stay in memory (packed into arrays
after each iteration) until the run writes them out.

Nothing here touches qhsl's source: ``Tracer`` swaps module attributes on
entry and restores them on exit, so untraced iterations run the program
exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "formats", "color", "image", "transforms", "sim", "retrieval")

# formats entry points, by what they do with a file or its text
_READ_PREFIXES = ("read_", "load_", "parse_")
_WRITE_PREFIXES = ("write_", "save_", "format_")

# bytes one single-qubit gate moves: it reads and writes a complex128 pair
# for every basis pair of the controlled subspace
_BYTES_PER_PAIR = 2 * 16


def _public_functions():
    import qhsl
    import qhsl.cli

    found = {}
    for name in dir(qhsl):
        obj = getattr(qhsl, name)
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith("qhsl.")):
            found[id(obj)] = obj
    found[id(qhsl.cli.main)] = qhsl.cli.main
    return list(found.values())


class _FunctionInfo:
    __slots__ = ("name", "layer", "io", "has_path", "builder")

    def __init__(self, fn):
        self.layer = fn.__module__.split(".")[1]
        self.name = f"{self.layer}.{fn.__name__}"
        self.io = None
        if self.layer == "formats":
            if fn.__name__.startswith(_READ_PREFIXES):
                self.io = "read"
            elif fn.__name__.startswith(_WRITE_PREFIXES):
                self.io = "write"
        signature = inspect.signature(fn)
        params = list(signature.parameters)
        self.has_path = bool(params) and params[0] == "path"
        # qhsl uses postponed annotations, so this is the string "Circuit"
        self.builder = signature.return_annotation == "Circuit"


class Tracer:
    """Span recorder; use ``with tracer:`` around each traced iteration,
    then ``finish_iteration()`` once its outputs are no longer timed."""

    def __init__(self):
        self._originals = _public_functions()
        self.functions = [_FunctionInfo(fn) for fn in self._originals]
        self._spans = []         # current iteration: (function, start, end, parent)
        # span index -> payload for the count metrics, one map per payload kind
        # (``load_circuit`` both reads a file and builds a circuit)
        self._built = {}         # instructions in the returned circuit
        self._bytes = {}         # size of the file read or written
        self._sim = {}           # (state qubits, circuit or control width)
        self._stack = [-1]
        self._patched = []
        self._wrappers = [self._wrap(i, fn) for i, fn in enumerate(self._originals)]
        self.archive = []        # one dict of arrays per traced iteration

    def __enter__(self):
        by_id = {id(fn): w for fn, w in zip(self._originals, self._wrappers)}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qhsl" or modname.startswith("qhsl.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, fid, fn):
        spans, stack = self._spans, self._stack
        notes = self._notes_for(self.functions[fid])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, stack[-1])
            for note in notes:
                note(index, args, kwargs, result)
            return result

        return traced

    def _notes_for(self, info):
        """O(1) bookkeeping a span needs for the counts (possibly none)."""
        notes = []
        if info.builder:
            built = self._built

            def note_built(index, args, kwargs, result):
                built[index] = len(result.instructions)
            notes.append(note_built)
        if info.has_path and info.io is not None:
            sizes = self._bytes

            def note_bytes(index, args, kwargs, result):
                sizes[index] = os.path.getsize(args[0] if args else kwargs["path"])
            notes.append(note_bytes)
        sim = self._sim
        if info.name == "sim.run_circuit":
            def note_run(index, args, kwargs, result):
                sim[index] = (args[0].num_qubits, args[1])
            notes.append(note_run)
        elif info.name == "sim.apply_gate":
            def note_gate(index, args, kwargs, result):
                controls = args[3] if len(args) > 3 else kwargs.get("controls")
                sim[index] = (args[0].num_qubits, len(controls.terms) if controls else 0)
            notes.append(note_gate)
        return tuple(notes)

    def finish_iteration(self, summarize: bool) -> dict | None:
        """Summarize the iteration just traced (if asked), archive its spans
        as arrays and release the payloads kept for the counts."""
        summary = self._summarize() if summarize else None
        spans = self._spans
        self.archive.append({
            "function": np.array([s[0] for s in spans], dtype=np.int32),
            "start_s": np.array([s[1] for s in spans]),
            "end_s": np.array([s[2] for s in spans]),
            "parent": np.array([s[3] for s in spans], dtype=np.int32),
        })
        spans.clear()
        for payloads in (self._built, self._bytes, self._sim):
            payloads.clear()
        return summary

    def _summarize(self) -> dict:
        spans, funcs = self._spans, self.functions
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out.update({"formats.read_s": 0.0, "formats.write_s": 0.0,
                    "formats.read_bytes": 0, "formats.write_bytes": 0,
                    "image.instructions_built": 0, "transforms.instructions_built": 0,
                    "sim.instructions_applied": 0, "sim.bytes_moved_computed": 0,
                    "sim.state_qubits_max": 0, "retrieval.joint_calls": 0,
                    "retrieval.retrieve_calls": 0})
        formats_root = [-1] * len(spans)    # outermost formats span at or above
        in_retrieval = [False] * len(spans)
        builder_above = [frozenset()] * len(spans)   # layers with an open builder span
        for i, (fid, start, end, parent) in enumerate(spans):
            info = funcs[fid]
            self_time = end - start - child[i]
            out[f"{info.layer}.self_s"] += self_time
            out[f"{info.layer}.calls"] += 1

            above = builder_above[parent] if parent >= 0 else frozenset()
            if info.builder:
                if info.layer in ("image", "transforms") and info.layer not in above:
                    out[f"{info.layer}.instructions_built"] += self._built[i]
                builder_above[i] = above | {info.layer}
            else:
                builder_above[i] = above

            root = formats_root[parent] if parent >= 0 else -1
            if root < 0 and info.layer == "formats":
                root = i
            formats_root[i] = root
            if info.layer == "formats" and root >= 0:
                io = funcs[spans[root][0]].io
                if io is not None:
                    out[f"formats.{io}_s"] += self_time
                    if root == i and info.has_path:
                        out[f"formats.{io}_bytes"] += self._bytes[i]

            in_retrieval[i] = (parent >= 0 and in_retrieval[parent]) or info.layer == "retrieval"
            if info.name == "sim.run_circuit":
                qubits, circuit = self._sim[i]
                out["sim.instructions_applied"] += len(circuit.instructions)
                out["sim.bytes_moved_computed"] += sum(
                    _BYTES_PER_PAIR << (qubits - len(ins.controls.terms))
                    for ins in circuit.instructions)
                out["sim.state_qubits_max"] = max(out["sim.state_qubits_max"], qubits)
            elif info.name == "sim.apply_gate":
                qubits, width = self._sim[i]
                out["sim.instructions_applied"] += 1
                out["sim.bytes_moved_computed"] += _BYTES_PER_PAIR << (qubits - width)
                out["sim.state_qubits_max"] = max(out["sim.state_qubits_max"], qubits)
            elif info.name == "sim.joint_probabilities" and parent >= 0 and in_retrieval[parent]:
                out["retrieval.joint_calls"] += 1
            elif info.name == "retrieval.retrieve_image":
                out["retrieval.retrieve_calls"] += 1
        return out

    def write(self, path) -> None:
        """Write every archived span: per traced iteration, the function
        index, start and end (perf_counter seconds) and parent span index
        (-1 at the top), plus the function names the indices refer to."""
        arrays = {"function_names": np.array([info.name for info in self.functions])}
        for k, iteration in enumerate(self.archive):
            arrays.update({f"iteration{k}.{column}": values for column, values in iteration.items()})
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
