"""Byte-for-byte pins on the dense backend's CLI outputs.

``golden/`` holds a 4x4 PPM raster (``input.ppm``), its n=2 dump and the
outputs of ``prepare``, ``retrieve --backend dense`` (exact, and shots with
a fixed seed) and ``verify``.  Each test reruns one command on the golden
inputs and compares the result with the stored bytes.  Regenerate the
files only for an intended change of output, by running the commands in
``COMMANDS`` (and ``qhsl verify image.dump > verify.txt``) in ``golden``.
"""

from pathlib import Path

import pytest

from qhsl.cli import main

GOLDEN = Path(__file__).parent / "golden"

# output file -> (input file, [subcommand, options after the two paths])
COMMANDS = {
    "image.dump": ("input.ppm", ["encode", "--n", "2"]),
    "image.circuit": ("image.dump", ["prepare"]),
    "dense_exact.report": ("image.dump", ["retrieve", "--backend", "dense"]),
    "dense_shots.report": ("image.dump", ["retrieve", "--backend", "dense",
                                          "--mode", "shots", "--shots", "512", "--seed", "7"]),
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
