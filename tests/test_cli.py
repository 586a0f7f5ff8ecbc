import math

import numpy as np
import pytest

from qhsl import load_dump, load_circuit, parse_report, read_ppm, write_ppm, decode_chroma
from qhsl.formats import load_report, write_mapping_table, write_png
from qhsl.cli import main

TAU = 2.0 * math.pi


def green_ppm(path, side=2):
    rgb = np.zeros((side, side, 3), dtype=np.uint8)
    rgb[..., 1] = 255
    write_ppm(path, rgb)
    return path


def ramp_ppm(path, side=4):
    levels = np.linspace(0, 255, side * side).round().astype(np.uint8)
    rgb = np.repeat(levels, 3).reshape(side, side, 3)
    write_ppm(path, rgb)
    return path


@pytest.fixture
def green_dump(tmp_path):
    src = green_ppm(tmp_path / "green.ppm")
    dump = tmp_path / "green.dump"
    assert main(["encode", str(src), str(dump)]) == 0
    return dump


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_pure_green(green_dump):
    img = load_dump(green_dump)
    assert img.n == 1 and img.q == 8
    for _, _, chroma, code in img.enumerate_pixels():
        assert chroma.theta == pytest.approx(TAU / 3, abs=1e-9)
        assert chroma.phi == pytest.approx(TAU / 3, abs=1e-9)
        assert code.bits == 127


def test_encode_infers_and_pads(tmp_path):
    rgb = np.zeros((3, 3, 3), dtype=np.uint8)
    rgb[..., 0] = 200
    src = tmp_path / "three.ppm"
    write_ppm(src, rgb)
    dump = tmp_path / "three.dump"
    assert main(["encode", str(src), str(dump)]) == 0
    img = load_dump(dump)
    assert img.side == 4
    black = sum(1 for _, _, _, code in img.enumerate_pixels() if code.bits == 0)
    assert black == 7


def test_encode_explicit_n_too_small(tmp_path, capsys):
    src = ramp_ppm(tmp_path / "ramp.ppm", side=4)
    code = main(["encode", str(src), str(tmp_path / "out.dump"), "--n", "1"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_encode_negative_n_exits_2_without_output(tmp_path, capsys):
    src = green_ppm(tmp_path / "green.ppm", side=1)
    out = tmp_path / "out.dump"
    assert main(["encode", str(src), str(out), "--n", "-1"]) == 2
    assert "grid exponent n=-1 must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_encode_corrupt_png_exits_2_without_output(tmp_path, capsys):
    src = tmp_path / "green.png"
    write_png(src, np.zeros((2, 2, 3), dtype=np.uint8))
    data = bytearray(src.read_bytes())
    data[-20] ^= 0xFF  # inside the IDAT chunk, so its CRC no longer matches
    src.write_bytes(bytes(data))
    out = tmp_path / "out.dump"
    assert main(["encode", str(src), str(out)]) == 2
    assert "bad CRC in PNG chunk IDAT" in capsys.readouterr().err
    assert not out.exists()


def test_decode_round_trip_channel_stable(tmp_path, green_dump):
    out = tmp_path / "back.ppm"
    assert main(["decode", str(green_dump), str(out)]) == 0
    rgb = read_ppm(out)
    assert np.abs(rgb.astype(int) - [0, 255, 0]).max() <= 1


def test_decode_missing_input(tmp_path, capsys):
    assert main(["decode", str(tmp_path / "absent.dump"), str(tmp_path / "o.ppm")]) == 2
    assert capsys.readouterr().err


def test_decode_names_an_unreadable_table_reference(tmp_path, capsys):
    dump = tmp_path / "nul.dump"
    dump.write_text("QHSL n=0 q=1 mapping=manual:a\x00b\n0 0 1.0 0 0\n", encoding="utf-8")
    assert main(["decode", str(dump), str(tmp_path / "o.ppm")]) == 2
    table = str(tmp_path / "a\x00b")
    assert capsys.readouterr().err == \
        f"qhsl decode: cannot read mapping table {table!r}: embedded null byte\n"


def test_encode_manual_mapping(tmp_path):
    src = green_ppm(tmp_path / "g.ppm")
    table = tmp_path / "table.txt"
    write_mapping_table(table, [i / 3.0 for i in range(4)])
    dump = tmp_path / "g.dump"
    assert main(["encode", str(src), str(dump), "--q", "2",
                 "--mapping", "manual", "--table", str(table)]) == 0
    img = load_dump(dump)
    assert img.mapping == "manual"
    assert img.table == (0.0, pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0)


def test_encode_table_without_manual_is_usage_error(tmp_path, capsys):
    src = green_ppm(tmp_path / "g.ppm")
    table = tmp_path / "table.txt"
    write_mapping_table(table, [0.0, 1.0])
    code = main(["encode", str(src), str(tmp_path / "g.dump"), "--table", str(table)])
    assert code == 1


def test_encode_manual_without_table_is_usage_error(tmp_path):
    src = green_ppm(tmp_path / "g.ppm")
    assert main(["encode", str(src), str(tmp_path / "g.dump"), "--mapping", "manual"]) == 1


# ---------------------------------------------------------------------------
# prepare


def test_prepare_writes_circuit(tmp_path, green_dump):
    out = tmp_path / "prep.circuit"
    assert main(["prepare", str(green_dump), str(out)]) == 0
    circ = load_circuit(out)
    kinds = [i.gate.kind for i in circ.instructions]
    assert kinds.count("H") == 2
    assert kinds.count("R") == 4


# ---------------------------------------------------------------------------
# transform


def test_transform_hue_shift_degrees(tmp_path, green_dump):
    out = tmp_path / "shifted.dump"
    assert main(["transform", str(green_dump), str(out), "--hue-shift", "180"]) == 0
    img = load_dump(out)
    assert decode_chroma(img.chroma(0, 0)).hue == pytest.approx(300.0, abs=1e-6)


def test_transform_saturation_fraction(tmp_path, green_dump):
    out = tmp_path / "grey.dump"
    assert main(["transform", str(green_dump), str(out), "--sat-shift", "-1"]) == 0
    img = load_dump(out)
    assert decode_chroma(img.chroma(0, 0)).saturation == 0.0


def test_transform_lighten_with_region(tmp_path, green_dump):
    out = tmp_path / "light.dump"
    assert main(["transform", str(green_dump), str(out),
                 "--lighten", "200", "--rows", "0", "0"]) == 0
    img = load_dump(out)
    assert img.code(0, 0).bits == 255
    assert img.code(1, 0).bits == 127


def test_transform_invert(tmp_path, green_dump):
    out = tmp_path / "inv.dump"
    assert main(["transform", str(green_dump), str(out), "--invert"]) == 0
    img = load_dump(out)
    assert img.code(0, 0).bits == 128
    assert decode_chroma(img.chroma(0, 0)).hue == pytest.approx(300.0, abs=1e-6)


def test_transform_usage_errors(tmp_path, green_dump, capsys):
    out = str(tmp_path / "o.dump")
    assert main(["transform", str(green_dump), out]) == 1  # no op chosen
    assert main(["transform", str(green_dump), out,
                 "--hue-shift", "10", "--invert"]) == 1  # two ops
    assert main(["transform", str(green_dump), out,
                 "--invert", "--rows", "0", "0"]) == 1  # invert takes no region
    assert main(["transform", str(green_dump), out, "--lighten", "5",
                 "--lightness-leq", "3", "--lightness-geq", "2"]) == 1


def test_transform_bad_flag_exits_one(tmp_path, green_dump, capsys):
    assert main(["transform", str(green_dump), str(tmp_path / "o.dump"),
                 "--warp", "7"]) == 1


def test_unknown_subcommand_exits_one(capsys):
    assert main(["explode"]) == 1


# ---------------------------------------------------------------------------
# pseudocolor


def test_pseudocolor_pipeline(tmp_path):
    src = ramp_ppm(tmp_path / "ramp.ppm")
    dump = tmp_path / "ramp.dump"
    assert main(["encode", str(src), str(dump)]) == 0
    map_file = tmp_path / "map.txt"
    map_file.write_text("0 37 0\n38 96 60\n97 200 240\n201 255 120\n")
    out = tmp_path / "colored.dump"
    assert main(["pseudocolor", str(dump), str(out), "--map", str(map_file)]) == 0
    img = load_dump(out)
    hues = set()
    for _, _, chroma, code in img.enumerate_pixels():
        dec = decode_chroma(chroma)
        assert dec.saturation == 1.0
        assert code.bits == 127
        hues.add(round(dec.hue, 6))
    assert hues == {0.0, 60.0, 240.0, 120.0}


def test_pseudocolor_rejects_colored_input(tmp_path, green_dump):
    map_file = tmp_path / "map.txt"
    map_file.write_text("0 255 10\n")
    code = main(["pseudocolor", str(green_dump), str(tmp_path / "o.dump"),
                 "--map", str(map_file)])
    assert code == 2


# ---------------------------------------------------------------------------
# retrieve / verify


def test_retrieve_exact_report(tmp_path, green_dump):
    out = tmp_path / "r.txt"
    assert main(["retrieve", str(green_dump), str(out)]) == 0
    meta = load_report(out)
    assert meta["mode"] == "exact"
    for _, _, hue, sat, light, flag in meta["rows"]:
        assert hue == pytest.approx(120.0, abs=1e-6)
        assert sat == pytest.approx(1.0, abs=1e-9)
        assert not flag


def test_retrieve_seeded_runs_are_byte_identical(tmp_path, green_dump):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert main(["retrieve", str(green_dump), str(out), "--mode", "shots",
                     "--shots", "500", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_retrieve_oracle_branch_and_raster(tmp_path, green_dump):
    out = tmp_path / "r.txt"
    raster = tmp_path / "r.ppm"
    assert main(["retrieve", str(green_dump), str(out), "--mode", "shots",
                 "--shots", "4096", "--seed", "1", "--branch", "oracle",
                 "--raster", str(raster)]) == 0
    meta = load_report(out)
    assert meta["branch"] == "oracle"
    rgb = read_ppm(raster)
    assert rgb.shape == (2, 2, 3)
    assert (rgb[..., 1].astype(int) - rgb[..., 0].astype(int)).min() > 100


def test_retrieve_dense_backend_matches_structured(tmp_path, green_dump):
    s = tmp_path / "s.txt"
    d = tmp_path / "d.txt"
    assert main(["retrieve", str(green_dump), str(s)]) == 0
    assert main(["retrieve", str(green_dump), str(d), "--backend", "dense"]) == 0
    ms, md = load_report(s), load_report(d)
    for row_s, row_d in zip(ms["rows"], md["rows"]):
        assert row_d[2] == pytest.approx(row_s[2], abs=1e-9)
        assert row_d[3] == pytest.approx(row_s[3], abs=1e-9)


def test_decode_renders_reports(tmp_path, green_dump):
    report = tmp_path / "r.txt"
    out = tmp_path / "r.ppm"
    assert main(["retrieve", str(green_dump), str(report)]) == 0
    assert main(["decode", str(report), str(out)]) == 0
    rgb = read_ppm(out)
    assert np.abs(rgb.astype(int) - [0, 255, 0]).max() <= 1


def test_verify_passes_on_valid_dump(tmp_path, green_dump, capsys):
    assert main(["verify", str(green_dump)]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_verify_fails_with_impossible_tolerance(tmp_path, green_dump, capsys):
    assert main(["verify", str(green_dump), "--tolerance", "-1"]) == 3
    assert "FAILED" in capsys.readouterr().out


def test_verify_respects_qubit_budget(tmp_path, green_dump, capsys):
    assert main(["verify", str(green_dump), "--qubit-budget", "4"]) == 2


def test_corrupt_dump_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.dump"
    bad.write_text("QHSL n=0 q=0 mapping=average\n0 0 99 0 0\n")
    assert main(["decode", str(bad), str(tmp_path / "o.ppm")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_encode_above_the_pixel_limit_exits_2_without_output(tmp_path, capsys):
    src = green_ppm(tmp_path / "one.ppm", side=1)
    out = tmp_path / "out.dump"
    assert main(["encode", str(src), str(out), "--n", "12"]) == 2
    assert "limit" in capsys.readouterr().err
    assert not out.exists()


def test_dump_header_above_the_pixel_limit_exits_2(tmp_path, capsys):
    dump = tmp_path / "huge.dump"
    dump.write_text("QHSL n=12 q=8 mapping=average\n0 0 1.0471975512 0 0\n", encoding="utf-8")
    out = tmp_path / "huge.ppm"
    assert main(["decode", str(dump), str(out)]) == 2
    assert "line 1: " in capsys.readouterr().err
    assert not out.exists()


def test_decode_report_row_outside_grid_exits_2(tmp_path, capsys):
    report = tmp_path / "bad.report"
    report.write_text("# qhsl-report n=1 q=2 mode=exact shots=- seed=- branch=exact\n"
                      "0 0 10 0.5 0.5 0\n5 0 10 0.5 0.5 0\n", encoding="utf-8")
    assert main(["decode", str(report), str(tmp_path / "bad.ppm")]) == 2
    assert "outside the 2x2 grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Inputs no writer produces, and numbers past what the arithmetic holds


def _write_report(path, header, rows="0 0 10 0.5 0.5 0\n"):
    path.write_text(f"# qhsl-report {header} q=2 mode=exact shots=- seed=- branch=exact\n{rows}",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("n, message", [
    ("-1", "line 1: grid exponent n=-1 must be non-negative"),
    ("20", "line 1: a 2**20 x 2**20 image exceeds the limit of n=11 (4194304 pixels)"),
])
def test_decode_refuses_report_grid_exponents(tmp_path, capsys, n, message):
    report = _write_report(tmp_path / "bad.report", f"n={n}")
    assert main(["decode", str(report), str(tmp_path / "bad.ppm")]) == 2
    assert capsys.readouterr().err == f"qhsl decode: {message}\n"
    assert not (tmp_path / "bad.ppm").exists()


@pytest.mark.parametrize("row, message", [
    ("0 0 10 nan 0.5 0", "report pixel (0, 0) has saturation nan outside [0, 1]"),
    ("0 0 inf 0.5 0.5 0", "report pixel (0, 0) has hue inf outside [0, 360]"),
    ("0 0 -1 0.5 0.5 0", "report pixel (0, 0) has hue -1.0 outside [0, 360]"),
    ("0 0 10 0.5 1.5 0", "report pixel (0, 0) has lightness 1.5 outside [0, 1]"),
    ("1000000000000000000000000000000 0 10 0.5 0.5 0",
     "report pixel (1000000000000000000000000000000, 0) outside the 1x1 grid"),
])
def test_decode_refuses_report_rows_no_writer_produces(tmp_path, capsys, row, message):
    report = _write_report(tmp_path / "bad.report", "n=0", row + "\n")
    assert main(["decode", str(report), str(tmp_path / "bad.ppm")]) == 2
    assert capsys.readouterr().err == f"qhsl decode: {message}\n"


def test_decode_keeps_hue_360(tmp_path):
    report = _write_report(tmp_path / "edge.report", "n=0", "0 0 360 1 0.5 0\n")
    assert main(["decode", str(report), str(tmp_path / "edge.ppm")]) == 0
    assert read_ppm(tmp_path / "edge.ppm").tolist() == [[[255, 0, 0]]]


def _dump_with_q(path, q):
    path.write_text(f"QHSL n=0 q={q} mapping=average\n0 0 1.0471975512 0 0\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("q, flags", [("100", ["--invert"]), ("100", ["--lighten", "1"]),
                                      ("63", ["--lighten", "5"])])
def test_transform_refuses_lightness_registers_above_62_qubits(tmp_path, capsys, q, flags):
    dump = _dump_with_q(tmp_path / "wide.dump", q)
    assert main(["transform", str(dump), str(tmp_path / "out.dump"), *flags]) == 2
    assert capsys.readouterr().err == (
        f"qhsl transform: line 1: q={q} exceeds the limit of 62 lightness qubits\n")


def test_transform_works_at_62_lightness_qubits(tmp_path):
    dump = _dump_with_q(tmp_path / "wide.dump", 62)
    out = tmp_path / "out.dump"
    assert main(["transform", str(dump), str(out), "--lighten", str(2 ** 62 - 1)]) == 0
    assert load_dump(out).codes.tolist() == [2 ** 62 - 1]
    assert main(["transform", str(out), str(out), "--invert"]) == 0
    assert load_dump(out).codes.tolist() == [0]


@pytest.mark.parametrize("flag, value, message", [
    ("--hue-shift", "inf", "hue shift inf is not finite"),
    ("--hue-shift", "nan", "hue shift nan is not finite"),
    ("--sat-shift", "nan", "saturation shift nan is not finite"),
    ("--sat-shift", "-inf", "saturation shift -inf is not finite"),
])
def test_transform_refuses_non_finite_shifts(tmp_path, green_dump, capsys, flag, value, message):
    out = tmp_path / "out.dump"
    assert main(["transform", str(green_dump), str(out), f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"qhsl transform: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--hue-shift", "-1e-9"),
    ("--sat-shift", "-5e-9"),
    ("--hue-shift", "-2.5E+1"),
    ("--sat-shift", "-0.5"),
])
def test_transform_takes_a_negative_shift_as_its_own_token(tmp_path, green_dump, flag, value):
    # the option after the value must still be read as an option
    joined, split = tmp_path / "joined.dump", tmp_path / "split.dump"
    assert main(["transform", str(green_dump), str(joined), f"{flag}={value}", "--rows", "0", "0"]) == 0
    assert main(["transform", str(green_dump), str(split), flag, value, "--rows", "0", "0"]) == 0
    assert split.read_bytes() == joined.read_bytes()


def test_transform_refuses_a_separate_non_finite_negative_shift(tmp_path, green_dump, capsys):
    out = tmp_path / "out.dump"
    assert main(["transform", str(green_dump), str(out), "--sat-shift", "-inf"]) == 2
    assert capsys.readouterr().err == "qhsl transform: saturation shift -inf is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, abbreviation, value", [
    ("--hue-shift", "--hue", "-1e-9"),
    ("--sat-shift", "--sat", "-5e-9"),
    ("--hue-shift", "--hue-s", "-1e-9"),
    ("--hue-shift", "--hu", "-2.5E+1"),
    ("--sat-shift", "--s", "-0.5"),
    ("--sat-shift", "--sat-shif", "-inf"),
])
def test_transform_takes_a_negative_shift_after_an_abbreviated_flag(tmp_path, green_dump, capsys,
                                                                    flag, abbreviation, value):
    full, short = tmp_path / "full.dump", tmp_path / "short.dump"
    code = main(["transform", str(green_dump), str(full), flag, value, "--rows", "0", "0"])
    want = capsys.readouterr()
    assert main(["transform", str(green_dump), str(short), abbreviation, value,
                 "--rows", "0", "0"]) == code
    assert capsys.readouterr() == want
    assert short.exists() == full.exists() == (code == 0)
    if code == 0:
        assert short.read_bytes() == full.read_bytes()


def test_transform_ambiguous_prefix_before_a_negative_value_stays_a_usage_error(
        tmp_path, green_dump, capsys):
    out = tmp_path / "out.dump"
    assert main(["transform", str(green_dump), str(out), "--h", "-1e-9"]) == 1
    assert "error: ambiguous option: --h could match" in capsys.readouterr().err
    assert not out.exists()


def test_negative_values_join_only_transform_abbreviations(tmp_path, green_dump, capsys):
    # in retrieve --s is ambiguous, and the error names the flag alone
    out = tmp_path / "r.report"
    assert main(["retrieve", str(green_dump), str(out), "--s", "-5"]) == 1
    assert "error: ambiguous option: --s could match" in capsys.readouterr().err
    assert main(["retrieve", str(green_dump), str(out), "--hue", "-1e-9"]) == 1
    assert "error: unrecognized arguments: --hue -1e-9" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_refuses_zero_shots(tmp_path, green_dump, capsys):
    out = tmp_path / "r.report"
    assert main(["retrieve", str(green_dump), str(out), "--mode", "shots", "--shots", "0"]) == 1
    assert capsys.readouterr().err == "qhsl retrieve: --shots must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--hue-shift", "--sat-shift"])
@pytest.mark.parametrize("follower", ["--invert", "--lighten", "-h"])
def test_transform_shift_followed_by_an_option_still_lacks_its_value(tmp_path, green_dump,
                                                                     capsys, flag, follower):
    out = tmp_path / "out.dump"
    assert main(["transform", str(green_dump), str(out), flag, follower, "3"]) == 1
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shots, flags", [
    ("3000000000000000000", ["--branch", "rejection"]),
    ("3000000000000000000", ["--backend", "dense"]),
    ("9300000000000000000", ["--branch", "oracle"]),
])
def test_retrieve_refuses_shot_totals_past_int64(tmp_path, green_dump, capsys, shots, flags):
    out = tmp_path / "r.report"
    assert main(["retrieve", str(green_dump), str(out), "--mode", "shots", "--shots", shots,
                 *flags]) == 2
    assert capsys.readouterr().err == (
        f"qhsl retrieve: {shots} shots per basis on 4 pixels exceed 2**63 - 1 samples\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, callee, error, message", [
    (["verify", "{dump}", "--qubit-budget", "40"], "simulate_preparation",
     MemoryError("Unable to allocate 16.0 TiB"),
     "qhsl verify: out of memory: Unable to allocate 16.0 TiB"),
    (["retrieve", "{dump}", "{out}", "--backend", "dense", "--qubit-budget", "40"],
     "simulate_preparation", MemoryError(), "qhsl retrieve: out of memory"),
    (["retrieve", "{dump}", "{out}"], "retrieve_image", MemoryError(),
     "qhsl retrieve: out of memory"),
])
def test_memory_error_is_exit_2(tmp_path, green_dump, capsys, monkeypatch, argv, callee, error,
                                message):
    # the callee raises instead of allocating, so no test holds a large state
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"qhsl.cli.{callee}", exhausted)
    out = tmp_path / "r.report"
    assert main([a.format(dump=green_dump, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


def test_verify_above_physical_memory_is_exit_2(green_dump, capsys, monkeypatch):
    # n=1, q=8: 11 qubits, a 32 KiB state and a 112 KiB peak; 25 pages of 4 KiB
    monkeypatch.setattr("os.sysconf", {"SC_PHYS_PAGES": 25, "SC_PAGE_SIZE": 4096}.__getitem__)
    assert main(["verify", str(green_dump), "--qubit-budget", "40"]) == 2
    assert capsys.readouterr().err == (
        "qhsl verify: dense simulation of 11 qubits needs about 0.000107 GiB, "
        "above the 9.54e-05 GiB of physical memory\n")
