"""Command line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 backend
verification failure.  Every sampled operation takes --seed, so pipelines
are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .color import AVERAGE, MANUAL
from .errors import QhslError
from .formats import (
    image_from_rgb_array,
    load_dump,
    parse_image,
    parse_report,
    read_mapping_table,
    read_pseudocolor_map,
    read_raster,
    report_rows_to_rgb_array,
    save_circuit,
    save_dump,
    save_image,
    save_report,
    write_raster,
)
from .image import DENSE_QUBIT_BUDGET, preparation_circuit, simulate_preparation, structured_state
from .retrieval import retrieve_image
from .transforms import (
    RegionConstraint,
    hue_shift,
    invert_color,
    lightness_add,
    lightness_sub,
    pseudocolor,
    saturation_shift,
)


class UsageError(Exception):
    """Bad flag combinations detected after argparse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _infer_n(height: int, width: int) -> int:
    n = 0
    while 2 ** n < max(height, width, 1):
        n += 1
    return n


def _cmd_encode(args) -> int:
    rgb = read_raster(args.input)
    n = _infer_n(*rgb.shape[:2]) if args.n is None else args.n
    table = None
    table_ref = None
    if args.mapping == MANUAL:
        if args.table is None:
            raise UsageError("manual mapping needs --table")
        table = read_mapping_table(args.table)
        # reference the table relative to the dump so the pair stays portable
        table_ref = os.path.relpath(os.path.abspath(args.table),
                                    start=os.path.dirname(os.path.abspath(args.output)))
    elif args.table is not None:
        raise UsageError("--table only applies to the manual mapping")
    img = image_from_rgb_array(rgb, n, args.q, args.mapping, table, table_ref)
    save_dump(args.output, img)
    return 0


def _cmd_decode(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("#"):
        meta = parse_report(text)
        write_raster(args.output, report_rows_to_rgb_array(meta["n"], meta["rows"]))
    else:
        save_image(args.output, parse_image(text, base_dir=Path(args.input).parent))
    return 0


def _cmd_prepare(args) -> int:
    img = load_dump(args.input)
    save_circuit(args.output, preparation_circuit(img))
    return 0


def _region_from_args(args) -> RegionConstraint | None:
    chosen = [name for name in ("lightness_leq", "lightness_geq", "lightness_between")
              if getattr(args, name) is not None]
    if len(chosen) > 1:
        raise UsageError("at most one lightness region flag may be given")
    lightness = None
    if args.lightness_leq is not None:
        lightness = (0, args.lightness_leq)
    elif args.lightness_geq is not None:
        lightness = (args.lightness_geq, 2 ** args.region_q - 1)
    elif args.lightness_between is not None:
        lightness = tuple(args.lightness_between)
    rows = tuple(args.rows) if args.rows is not None else None
    cols = tuple(args.cols) if args.cols is not None else None
    if lightness is None and rows is None and cols is None:
        return None
    return RegionConstraint(lightness=lightness, y_range=rows, x_range=cols)


def _cmd_transform(args) -> int:
    img = load_dump(args.input)
    args.region_q = img.q
    region = _region_from_args(args)
    ops = [name for name in ("hue_shift", "sat_shift", "lighten", "darken")
           if getattr(args, name) is not None]
    if args.invert:
        ops.append("invert")
    if len(ops) != 1:
        raise UsageError(
            "exactly one of --hue-shift/--sat-shift/--lighten/--darken/--invert is required")
    op = ops[0]
    if op == "hue_shift":
        img = hue_shift(img, math.radians(args.hue_shift), region)
    elif op == "sat_shift":
        img = saturation_shift(img, args.sat_shift * (math.pi / 3.0), region)
    elif op == "lighten":
        img = lightness_add(img, args.lighten, region)
    elif op == "darken":
        img = lightness_sub(img, args.darken, region)
    else:
        if region is not None:
            raise UsageError("--invert is a whole-image complement; region flags do not apply")
        img = invert_color(img)
    save_dump(args.output, img)
    return 0


def _cmd_pseudocolor(args) -> int:
    img = load_dump(args.input)
    pmap = read_pseudocolor_map(args.map)
    save_dump(args.output, pseudocolor(img, pmap))
    return 0


def _cmd_retrieve(args) -> int:
    img = load_dump(args.input)
    mode = args.mode
    shots = args.shots if mode == "shots" else None
    if mode == "shots" and shots < 1:
        raise UsageError("--shots must be at least 1")
    if args.backend == "dense":
        state = simulate_preparation(img, args.qubit_budget)
        report = retrieve_image(state, mode, shots=shots, seed=args.seed,
                                branch="rejection", layout=img.layout,
                                mapping=img.mapping, table=img.table)
    else:
        report = retrieve_image(img, mode, shots=shots, seed=args.seed, branch=args.branch)
    save_report(args.output, report)
    if args.raster is not None:
        save_image(args.raster, report)
    return 0


def _cmd_verify(args) -> int:
    img = load_dump(args.input)
    state = simulate_preparation(img, args.qubit_budget)
    reference = structured_state(img).to_statevector(args.qubit_budget)
    deviation = np.abs(state.amplitudes - reference.amplitudes).max()
    print(f"max amplitude deviation: {deviation:.3e} (tolerance {args.tolerance:g})")
    if deviation > args.tolerance:
        print("verification FAILED: dense and structured backends disagree")
        return 3
    print("verification passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qhsl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="raster image -> QHSL dump")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--n", type=int, default=None,
                   help="grid exponent; default: smallest fit for the raster")
    p.add_argument("--q", type=int, default=8, choices=range(0, 17), metavar="Q",
                   help="lightness qubits (default 8)")
    p.add_argument("--mapping", choices=(AVERAGE, MANUAL), default=AVERAGE)
    p.add_argument("--table", default=None, help="mapping table file (manual only)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="QHSL dump or retrieval report -> raster image")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("prepare", help="QHSL dump -> preparation circuit text")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("transform", help="apply one color transform to a dump")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--hue-shift", type=float, default=None, metavar="DEGREES")
    p.add_argument("--sat-shift", type=float, default=None, metavar="FRACTION",
                   help="saturation change in [-1, 1] units (scaled by pi/3)")
    p.add_argument("--lighten", type=int, default=None, metavar="K")
    p.add_argument("--darken", type=int, default=None, metavar="K")
    p.add_argument("--invert", action="store_true")
    p.add_argument("--lightness-leq", type=int, default=None, metavar="XI")
    p.add_argument("--lightness-geq", type=int, default=None, metavar="XI")
    p.add_argument("--lightness-between", type=int, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--rows", type=int, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--cols", type=int, nargs=2, default=None, metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("pseudocolor", help="recolor a grayscale dump through a map file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--map", required=True, help="text file of 'lo hi hue_degrees' lines")
    p.set_defaults(func=_cmd_pseudocolor)

    p = sub.add_parser("retrieve", help="measurement-based readout of a dump")
    p.add_argument("input")
    p.add_argument("output", help="report file")
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=int, default=4096, metavar="N",
                   help="samples per basis per pixel (shots mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--branch", choices=("rejection", "oracle"), default="rejection",
                   help="pixel-branch access strategy (shots mode)")
    p.add_argument("--backend", choices=("structured", "dense"), default="structured")
    p.add_argument("--qubit-budget", type=int, default=DENSE_QUBIT_BUDGET)
    p.add_argument("--raster", default=None, help="also render the report to this image")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("verify", help="cross-check dense against structured amplitudes")
    p.add_argument("input")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--qubit-budget", type=int, default=DENSE_QUBIT_BUDGET)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qhsl {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    except (QhslError, OSError, ValueError) as exc:
        print(f"qhsl {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
