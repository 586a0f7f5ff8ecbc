"""Byte-for-byte pins on the CLI outputs of both backends.

``golden/`` holds a 4x4 PPM raster (``input.ppm``), a 4x4 gray ramp
(``gray.ppm``), a pseudocolor map, their n=2 dumps and the outputs of
``prepare``, ``retrieve`` (dense and structured; exact, and shots with a
fixed seed on every branch), each ``transform``, ``pseudocolor``,
``decode`` and ``verify``.  Each test reruns one command on the golden
inputs and compares the result with the stored bytes.  Regenerate the
files only for an intended change of output, by running the commands in
``COMMANDS`` (and ``qhsl verify image.dump > verify.txt``) in ``golden``.

Twelve significant digits hide most last-bit changes of an angle, so the
structured commands also run on a seeded 64x64 raster (n=6), whose
outputs are pinned by their SHA-256 digests.  ``retrieve --raster`` renders
the in-memory report rather than its text, so its rasters are pinned too.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from qhsl.cli import main
from qhsl.formats import write_ppm

GOLDEN = Path(__file__).parent / "golden"

# output file -> (input file, [subcommand, options after the two paths])
COMMANDS = {
    "image.dump": ("input.ppm", ["encode", "--n", "2"]),
    "image.circuit": ("image.dump", ["prepare"]),
    "dense_exact.report": ("image.dump", ["retrieve", "--backend", "dense"]),
    "dense_shots.report": ("image.dump", ["retrieve", "--backend", "dense",
                                          "--mode", "shots", "--shots", "512", "--seed", "7"]),
    "gray.dump": ("gray.ppm", ["encode", "--n", "2"]),
    "structured_exact.report": ("image.dump", ["retrieve"]),
    "rejection_shots.report": ("image.dump", ["retrieve", "--mode", "shots", "--shots", "512",
                                              "--seed", "7", "--branch", "rejection"]),
    "oracle_shots.report": ("image.dump", ["retrieve", "--mode", "shots", "--shots", "512",
                                           "--seed", "7", "--branch", "oracle"]),
    "hue.dump": ("image.dump", ["transform", "--hue-shift", "200.5"]),
    "sat_down.dump": ("image.dump", ["transform", "--sat-shift", "-1.5", "--rows", "0", "1"]),
    "sat_up.dump": ("image.dump", ["transform", "--sat-shift", "1.5", "--cols", "1", "2"]),
    "lighten.dump": ("image.dump", ["transform", "--lighten", "40", "--lightness-geq", "128"]),
    "darken.dump": ("image.dump", ["transform", "--darken", "30",
                                   "--lightness-between", "64", "192"]),
    "invert.dump": ("image.dump", ["transform", "--invert"]),
    "pseudocolor.dump": ("gray.dump", ["pseudocolor", "--map", str(GOLDEN / "pseudocolor.map")]),
    "sat_down_exact.report": ("sat_down.dump", ["retrieve"]),
    "sat_down.ppm": ("sat_down.dump", ["decode"]),
    "rejection_shots.ppm": ("rejection_shots.report", ["decode"]),
}

# the commands pinned again at n=6, in dependency order
N6_COMMANDS = [
    "structured_exact.report", "rejection_shots.report", "oracle_shots.report",
    "hue.dump", "sat_down.dump", "sat_up.dump", "lighten.dump", "darken.dump", "invert.dump",
    "pseudocolor.dump", "sat_down_exact.report", "sat_down.ppm", "rejection_shots.ppm",
]
# the n=6 retrievals whose `--raster` output is pinned as well
N6_RASTERS = ["structured_exact.report", "rejection_shots.report", "oracle_shots.report"]
N6_SEED = 6
# manual mapping table at q=4: repeated entries, and gray levels halfway
# between even multiples of 1/255 to exercise the lower-code tie rule
N6_TABLE = [0.0, 2 / 255, 2 / 255, 6 / 255, 10 / 255, 20 / 255, 40 / 255, 64 / 255,
            100 / 255, 128 / 255, 128 / 255, 160 / 255, 200 / 255, 230 / 255, 250 / 255, 1.0]
N6_DIGESTS = {
    "image.dump": "0549f6f28c8087a7963ec74ee5e4ef851dfe0b69e360f10c4263b5d546774cba",
    "gray.dump": "6d3a8beb2105aeaac65de4acd2e30edc979f7ca29d4a1b85b34e27c9ae2349c0",
    "structured_exact.report": "8c6e7e7c73dcb519c584633269829386ad791971b963bac48b44c48d006be1dc",
    "rejection_shots.report": "c2cb8b0f0957c0e80187915674da63551c77bfa98c15df20e51e1a678f9b2fb4",
    "oracle_shots.report": "5a8ba88d8de641ee114adaf043ceb3df64d4e25728b93ae9085b8babfcdc8984",
    "hue.dump": "efb32ccde8a0fffd601d4c81e62df13048506dcfb029ab82f1ac1c40ecea83f7",
    "sat_down.dump": "a578939200b5ef88fb282e7f5127379e769af32ff686dca833cb81043b56abaa",
    "sat_up.dump": "e389f113be82212b5043c4bca1b910807e7c5f68eb6f6cbc79924b92224ffd60",
    "lighten.dump": "a9724dbef75852a1b80ddd08464490f039a1bfac5f3448a483273c1c4a8ddc20",
    "darken.dump": "e4e09c3c01b00929f2995436ccf223f649002a0bb5502c000c1eab996c4d7725",
    "invert.dump": "f2dbd5089b2409cac41ea0307c8fc593a8b1ffa01a22eb926789114c39faa4d2",
    "pseudocolor.dump": "90f57d56bf5afdc4b96f927c9ed36437ac612dfe8e604a89d1961f47fbe7cdf1",
    "sat_down_exact.report": "2240417327806ad5fa054a0cb41fc9319e979d3ee24e223a24b6dee591eb5ef7",
    "sat_down.ppm": "aed69f6e2b4860b40fcf7cf4162f6b2c67102592e0daa923dca313e0d66b1fc2",
    "rejection_shots.ppm": "ebeccc6d9f2d423784b0a8f7ff07ce0ceccd9a5caa46682c1b12b2b0169c3389",
    "manual.dump": "f50aa0790b207c249a83cb39adf239e450c77bff0974faa2d391a59bf661a36e",
    "manual_gray.dump": "e007106bcdab5763b942247aa2bd058f20b5ee34a58d21d61ee30095a44268bb",
    "manual_exact.report": "a2b6fa6412e8f9e52b85f1cacc8a9e92aaa4ecbc7aae893c5e5b0da3792b10b6",
    "manual_lighten.dump": "b68e3db5a67d17158fa1e0a5aad49eacffb4093a3868fc6a63b229e2a968462e",
    "manual_gray.ppm": "1229941e1a382dcec8c1cd5ad75f2c4293a4a97ba2fb184d1187139c54cbdd83",
    "structured_exact.raster.ppm": "35189082eea9755ee0e89b9506bfe67c5af5f0d71376124d52499cc0ff08889a",
    "rejection_shots.raster.ppm": "9817503ad1bbd106066f0ea11bb0f151178fd0d56aba3203f80136f1f0b56272",
    "oracle_shots.raster.ppm": "2f59ffe4e1da9202b0d117c0f7f1efbd6ea7b19f0847222db01fa60ee411046f",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path):
    source, (command, *options) = COMMANDS[name]
    out = tmp_path / name
    assert main([command, str(GOLDEN / source), str(out), *options]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_verify_stdout(capsys):
    assert main(["verify", str(GOLDEN / "image.dump")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify.txt").read_text(encoding="utf-8")


def test_n6_digests(tmp_path):
    rng = np.random.default_rng(N6_SEED)
    write_ppm(tmp_path / "input.ppm", rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8))
    levels = rng.integers(0, 256, size=(64, 64, 1), dtype=np.uint8)
    write_ppm(tmp_path / "gray.ppm", np.repeat(levels, 3, axis=2))
    runs = [("image.dump", ("input.ppm", ["encode", "--n", "6"])),
            ("gray.dump", ("gray.ppm", ["encode", "--n", "6"]))]
    runs += [(name, COMMANDS[name]) for name in N6_COMMANDS]
    (tmp_path / "table.txt").write_text("".join(f"{v!r}\n" for v in N6_TABLE))
    manual = ["encode", "--n", "6", "--q", "4", "--mapping", "manual",
              "--table", str(tmp_path / "table.txt")]
    runs += [("manual.dump", ("input.ppm", manual)),
             ("manual_gray.dump", ("gray.ppm", manual)),
             ("manual_exact.report", ("manual.dump", ["retrieve"])),
             ("manual_lighten.dump", ("manual.dump", ["transform", "--lighten", "3",
                                                      "--lightness-leq", "8"])),
             ("manual_gray.ppm", ("manual_gray.dump", ["decode"]))]
    digests = {}
    for name, (source, (command, *options)) in runs:
        out = tmp_path / name
        assert main([command, str(tmp_path / source), str(out), *options]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    for name in N6_RASTERS:
        source, (command, *options) = COMMANDS[name]
        raster = tmp_path / name.replace(".report", ".raster.ppm")
        assert main([command, str(tmp_path / source), str(tmp_path / "rendered.report"), *options,
                     "--raster", str(raster)]) == 0
        digests[raster.name] = hashlib.sha256(raster.read_bytes()).hexdigest()
    assert digests == N6_DIGESTS
