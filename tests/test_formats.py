import math
import os
import struct
import zlib

import numpy as np
import pytest

from qhsl import (
    ChromaState,
    FormatError,
    Gate,
    Instruction,
    Circuit,
    ControlPattern,
    LightnessCode,
    QhslImage,
    encode_chroma,
    HslColor,
    format_circuit,
    format_image,
    format_report,
    image_from_rgb_array,
    image_to_rgb_array,
    load_circuit,
    load_dump,
    parse_circuit,
    parse_image,
    parse_report,
    read_mapping_table,
    read_ppm,
    read_pseudocolor_map,
    read_raster,
    retrieve_image,
    save_circuit,
    save_dump,
    save_image,
    save_report,
    write_ppm,
    write_raster,
)
from qhsl.formats import write_mapping_table, write_png, read_png
from conftest import random_image, random_color_image

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# PPM


def test_ppm_round_trip(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    assert np.array_equal(read_ppm(path), rgb)


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    body = bytes(range(12))
    path.write_bytes(b"P6 # a comment\n# another\n2 2\n# last\n255\n" + body)
    rgb = read_ppm(path)
    assert rgb.shape == (2, 2, 3)
    assert rgb.tobytes() == body


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
    with pytest.raises(FormatError):
        read_ppm(path)


def test_ppm_rejects_truncated_data(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x01\x02")
    with pytest.raises(FormatError):
        read_ppm(path)


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "p3.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(FormatError):
        read_ppm(path)


def test_png_round_trip(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(5, 3, 3), dtype=np.uint8)
    path = tmp_path / "img.png"
    write_png(path, rgb)
    assert np.array_equal(read_png(path), rgb)


def test_raster_dispatch(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
    for name in ("a.ppm", "b.png"):
        write_raster(tmp_path / name, rgb)
        assert np.array_equal(read_raster(tmp_path / name), rgb)
    with pytest.raises(FormatError):
        write_raster(tmp_path / "c.gif", rgb)
    with pytest.raises(FormatError):
        read_raster(tmp_path / "c.gif")


# PNG bytes built here, independently of qhsl.formats, so the reader is
# checked against the format rather than against its own writer.

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_chunk(kind: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + kind + body
            + struct.pack(">I", zlib.crc32(kind + body)))


def paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def filter_scanlines(samples: np.ndarray, kinds) -> bytes:
    """Forward PNG filtering of (h, w, c) samples, row y with kinds[y]."""
    height, width, bpp = samples.shape
    rows = [[int(v) for v in row] for row in samples.reshape(height, width * bpp)]
    out = bytearray()
    for y, (kind, row) in enumerate(zip(kinds, rows)):
        prior = rows[y - 1] if y else [0] * len(row)
        out.append(kind)
        for i, value in enumerate(row):
            a = row[i - bpp] if i >= bpp else 0
            b = prior[i]
            c = prior[i - bpp] if i >= bpp else 0
            pred = (0, a, b, (a + b) // 2, paeth(a, b, c))[kind]
            out.append((value - pred) % 256)
    return bytes(out)


def png_bytes(samples: np.ndarray, color_type: int, kinds=None, *, palette=None,
              depth=8, interlace=0, idat_parts=1, extra=b"") -> bytes:
    height, width = samples.shape[:2]
    kinds = [0] * height if kinds is None else kinds
    data = zlib.compress(filter_scanlines(samples, kinds))
    cuts = np.linspace(0, len(data), idat_parts + 1).astype(int)
    ihdr = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, interlace)
    body = png_chunk(b"IHDR", ihdr) + extra
    if palette is not None:
        body += png_chunk(b"PLTE", palette.astype(np.uint8).tobytes())
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        body += png_chunk(b"IDAT", data[lo:hi])
    return PNG_SIGNATURE + body + png_chunk(b"IEND", b"")


def read_png_bytes(tmp_path, data: bytes) -> np.ndarray:
    path = tmp_path / "in.png"
    path.write_bytes(data)
    return read_png(path)


@pytest.mark.parametrize("kinds", [[0] * 6, [1] * 6, [2] * 6, [3] * 6, [4] * 6,
                                   [4, 3, 2, 1, 0, 3]],
                         ids=["none", "sub", "up", "average", "paeth", "mixed"])
@pytest.mark.parametrize("levels", [256, 4])  # few levels make Paeth ties common
def test_png_reads_every_filter_type(tmp_path, rng, kinds, levels):
    rgb = rng.integers(0, levels, size=(6, 5, 3), dtype=np.uint8)
    assert np.array_equal(read_png_bytes(tmp_path, png_bytes(rgb, 2, kinds)), rgb)


def test_png_reads_gray_alpha_palette_and_rgba(tmp_path, rng):
    kinds = [1, 4, 3, 2, 0]
    gray = rng.integers(0, 256, size=(5, 7, 1), dtype=np.uint8)
    expected = np.repeat(gray, 3, axis=2)
    assert np.array_equal(read_png_bytes(tmp_path, png_bytes(gray, 0, kinds)), expected)

    alpha = rng.integers(0, 256, size=(5, 7, 1), dtype=np.uint8)
    gray_alpha = np.concatenate([gray, alpha], axis=2)
    assert np.array_equal(read_png_bytes(tmp_path, png_bytes(gray_alpha, 4, kinds)), expected)

    rgba = rng.integers(0, 256, size=(5, 7, 4), dtype=np.uint8)
    assert np.array_equal(read_png_bytes(tmp_path, png_bytes(rgba, 6, kinds)), rgba[..., :3])

    table = rng.integers(0, 256, size=(11, 3), dtype=np.uint8)
    index = rng.integers(0, 11, size=(5, 7, 1), dtype=np.uint8)
    data = png_bytes(index, 3, kinds, palette=table)
    assert np.array_equal(read_png_bytes(tmp_path, data), table[index[..., 0]])


def test_png_reads_split_idat_and_skips_ancillary_chunks(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    data = png_bytes(rgb, 2, [4] * 8, idat_parts=3,
                     extra=png_chunk(b"tEXt", b"Comment\x00qhsl"))
    assert np.array_equal(read_png_bytes(tmp_path, data), rgb)


def test_write_png_is_deterministic_rgb_with_three_chunks(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    write_png(tmp_path / "a.png", rgb)
    write_png(tmp_path / "b.png", rgb)
    data = (tmp_path / "a.png").read_bytes()
    assert data == (tmp_path / "b.png").read_bytes()
    assert data[:8] == PNG_SIGNATURE
    kinds, offset = [], 8
    while offset < len(data):
        length, kind = struct.unpack_from(">I4s", data, offset)
        kinds.append(kind)
        offset += 12 + length
    assert kinds == [b"IHDR", b"IDAT", b"IEND"]
    assert struct.unpack_from(">IIBBBBB", data, 16) == (4, 3, 8, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        write_png(tmp_path / "c.png", rgb[..., 0])


def _flip_crc(data: bytes) -> bytes:
    # last byte of the IHDR chunk's CRC: signature 8 + length 4 + kind 4 + body 13 + CRC 4
    return data[:32] + bytes([data[32] ^ 0x01]) + data[33:]


def _replace_idat(data: bytes, edit) -> bytes:
    """Replace the single IDAT chunk's body with edit(body), with a valid CRC."""
    start = data.index(b"IDAT") - 4
    (length,) = struct.unpack_from(">I", data, start)
    body = edit(data[start + 8:start + 8 + length])
    return data[:start] + png_chunk(b"IDAT", body) + data[start + 12 + length:]


def _recompressed(edit_scanlines):
    return lambda body: zlib.compress(edit_scanlines(zlib.decompress(body)))


_RGB = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
_GOOD = png_bytes(_RGB, 2)


@pytest.mark.parametrize("data, reason", [
    (b"GIF89a" + _GOOD[6:], "bad signature"),
    (_flip_crc(_GOOD), "bad CRC in PNG chunk IHDR"),
    (_replace_idat(_GOOD, lambda body: body[:len(body) // 2]), "truncated: 11 of 20"),
    (_replace_idat(_GOOD, lambda body: b"\x00" + body[1:]), "corrupt PNG image data"),
    (_GOOD[:-12], "no IEND"),
    (_GOOD[:len(_GOOD) - 20], "truncated PNG chunk IDAT"),
    (png_bytes(_RGB, 2, depth=16), "bit depth 16"),
    (png_bytes(_RGB, 2, interlace=1), "interlaced"),
    (_replace_idat(_GOOD, _recompressed(lambda raw: raw + b"\x00" * 16)), "exceeds 20 bytes"),
    (_replace_idat(_GOOD, _recompressed(lambda raw: b"\x05" + raw[1:])), "filter type 5"),
    (png_bytes(_RGB, 2, extra=png_chunk(b"ZZZZ", b"")), "critical PNG chunk ZZZZ"),
    (PNG_SIGNATURE + png_chunk(b"IEND", b""), "IHDR"),
    (png_bytes(np.full((2, 3, 1), 4, dtype=np.uint8), 3, palette=np.zeros((4, 3))),
     "palette index out of range"),
    (png_bytes(np.zeros((2, 3, 1), dtype=np.uint8), 3), "PLTE"),
], ids=["bad-signature", "flipped-crc", "truncated-idat", "corrupt-deflate", "missing-iend",
        "truncated-file", "bit-depth-16", "interlace-1", "oversized-idat", "bad-filter-type",
        "unknown-critical-chunk", "no-ihdr", "palette-index-out-of-range", "missing-plte"])
def test_png_refusals_raise_format_error(tmp_path, data, reason):
    with pytest.raises(FormatError, match=reason):
        read_png_bytes(tmp_path, data)


def test_png_cross_check_with_pillow(tmp_path, rng):
    pil_image = pytest.importorskip("PIL.Image")
    rgb = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    write_png(tmp_path / "ours.png", rgb)
    with pil_image.open(tmp_path / "ours.png") as im:
        assert np.array_equal(np.asarray(im.convert("RGB")), rgb)

    gray = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
    palette_image = pil_image.fromarray(gray)
    palette_image.putpalette(rng.integers(0, 256, size=768, dtype=np.uint8).tobytes())
    images = {
        "RGB": pil_image.fromarray(rgb),
        "RGBA": pil_image.fromarray(rng.integers(0, 256, size=(9, 7, 4), dtype=np.uint8)),
        "L": pil_image.fromarray(gray),
        "P": palette_image,
    }
    for mode, image in images.items():
        assert image.mode == mode
        for optimize in (False, True):
            path = tmp_path / f"{mode}-{optimize}.png"
            image.save(path, format="PNG", optimize=optimize)
            with pil_image.open(path) as im:
                expected = np.asarray(im.convert("RGB"))
            assert np.array_equal(read_png(path), expected), (mode, optimize)


def test_atomic_write_replaces_and_leaves_no_litter(tmp_path, rng):
    path = tmp_path / "img.ppm"
    write_ppm(path, np.zeros((1, 1, 3), dtype=np.uint8))
    old = path.read_bytes()
    rgb = rng.integers(0, 256, size=(1, 1, 3), dtype=np.uint8)
    write_ppm(path, rgb)
    assert path.read_bytes() != old
    assert os.listdir(tmp_path) == ["img.ppm"]


# ---------------------------------------------------------------------------
# Raster <-> image


def test_pure_green_encodes_to_green_angles():
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[..., 1] = 255
    img = image_from_rgb_array(rgb, 1, 8)
    for _, _, chroma, code in img.enumerate_pixels():
        assert chroma.theta == pytest.approx(TAU / 3, abs=1e-9)
        assert chroma.phi == pytest.approx(TAU / 3, abs=1e-9)
        assert code.bits == 127


def test_small_raster_pads_with_black(rng):
    rgb = rng.integers(1, 256, size=(3, 3, 3), dtype=np.uint8)
    img = image_from_rgb_array(rgb, 2, 8)
    back = image_to_rgb_array(img)
    black = [(y, x) for y, x, chroma, code in img.enumerate_pixels()
             if code.bits == 0 and (back[y, x] == 0).all()]
    assert len(black) == 7
    assert all(y == 3 or x == 3 for y, x in black)


def test_oversized_raster_is_refused(rng):
    rgb = rng.integers(0, 256, size=(5, 5, 3), dtype=np.uint8)
    with pytest.raises(FormatError):
        image_from_rgb_array(rgb, 2, 8)


def test_save_load_raster_channel_stability(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    src = tmp_path / "in.ppm"
    write_ppm(src, rgb)
    img = image_from_rgb_array(read_raster(src), 3, 8)
    out = tmp_path / "out.ppm"
    save_image(out, img)
    diff = np.abs(read_ppm(out).astype(int) - rgb.astype(int))
    assert diff.max() <= 1


def test_save_image_accepts_reports(tmp_path, rng):
    img = random_color_image(rng, 1, 8)
    report = retrieve_image(img)
    path = tmp_path / "report.ppm"
    save_image(path, report)
    direct = image_to_rgb_array(img)
    assert np.abs(read_ppm(path).astype(int) - direct.astype(int)).max() <= 1


# ---------------------------------------------------------------------------
# Image dumps


def test_dump_round_trip_identity(rng):
    img = random_image(rng, 1, 3)
    text = format_image(img)
    again = parse_image(text)
    assert format_image(again) == text
    for (_, _, c1, l1), (_, _, c2, l2) in zip(img.enumerate_pixels(), again.enumerate_pixels()):
        assert abs(c1.theta - c2.theta) < 1e-11
        assert abs(c1.phi - c2.phi) < 1e-11
        assert l1.bits == l2.bits


def test_dump_file_round_trip_is_byte_stable(tmp_path, rng):
    img = random_image(rng, 1, 2)
    first = tmp_path / "a.dump"
    second = tmp_path / "b.dump"
    save_dump(first, img)
    save_dump(second, load_dump(first))
    assert first.read_bytes() == second.read_bytes()


def test_dump_header_and_line_format(rng):
    img = random_image(rng, 0, 2)
    lines = format_image(img).splitlines()
    assert lines[0] == "QHSL n=0 q=2 mapping=average"
    assert len(lines) == 2
    assert len(lines[1].split()) == 5


def test_parse_image_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_image("BOGUS n=0 q=0 mapping=average\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_image("QHSL n=0 q=0 mapping=average\n0 0 1.0\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_image("QHSL n=1 q=0 mapping=average\n0 0 1.0 0.0 0\n0 2 1.0 0.0 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_image("QHSL n=0 q=0 mapping=average\n0 0 9.9 0.0 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_image("QHSL n=0 q=2 mapping=average\n0 0 1.0 0.0 7\n")


def test_parse_image_raster_order_enforced():
    text = ("QHSL n=1 q=0 mapping=average\n"
            "0 0 1.0 0.0 0\n0 1 1.0 0.0 0\n1 1 1.0 0.0 0\n1 0 1.0 0.0 0\n")
    with pytest.raises(FormatError, match="raster order"):
        parse_image(text)


def test_parse_image_pixel_count_checked():
    text = "QHSL n=1 q=0 mapping=average\n0 0 1.0 0.0 0\n"
    with pytest.raises(FormatError, match="expected 4"):
        parse_image(text)


def test_parse_image_theta_snaps_to_pi():
    text = f"QHSL n=0 q=0 mapping=average\n0 0 {math.pi + 1e-10} 0.5 0\n"
    img = parse_image(text)
    assert img.chroma(0, 0).theta == math.pi


def test_dump_manual_mapping_round_trip(tmp_path):
    table = (0.0, 0.3, 0.6, 1.0)
    table_path = tmp_path / "table.txt"
    write_mapping_table(table_path, table)
    img = QhslImage(0, 2, ((ChromaState(1.0, 0.5), LightnessCode(2, 2, "manual", table)),),
                    table_source="table.txt")
    dump = tmp_path / "img.dump"
    save_dump(dump, img)
    assert "mapping=manual:table.txt" in dump.read_text()
    again = load_dump(dump)
    assert again.mapping == "manual"
    assert again.table == table
    assert again.code(0, 0).bits == 2


def test_dump_manual_mapping_requires_reference():
    table = (0.0, 0.3, 0.6, 1.0)
    img = QhslImage(0, 2, ((ChromaState(1.0, 0.5), LightnessCode(2, 2, "manual", table)),))
    with pytest.raises(FormatError):
        format_image(img)


def test_dump_manual_missing_table_file(tmp_path):
    text = "QHSL n=0 q=2 mapping=manual:absent.txt\n0 0 1.0 0.0 0\n"
    with pytest.raises(FormatError):
        parse_image(text, base_dir=tmp_path)


def test_dump_manual_wrong_table_length(tmp_path):
    (tmp_path / "t.txt").write_text("0.0 1.0\n")
    text = "QHSL n=0 q=2 mapping=manual:t.txt\n0 0 1.0 0.0 0\n"
    with pytest.raises(FormatError, match="line 1"):
        parse_image(text, base_dir=tmp_path)


# ---------------------------------------------------------------------------
# Circuit files


def test_circuit_round_trip_every_gate_kind(tmp_path):
    instrs = (
        Instruction(Gate.h(), 0),
        Instruction(Gate.x(), 1, ControlPattern(((0, 1),))),
        Instruction(Gate.i(), 2),
        Instruction(Gate.ry(0.1234567890123456), 3),
        Instruction(Gate.rz(-2.5), 0, ControlPattern(((1, 0), (2, 1)))),
        Instruction(Gate.r(1.0, -1.0), 1),
        Instruction(Gate.set0(), 2),
        Instruction(Gate.set1(), 3, ControlPattern(((0, 0),))),
        Instruction(Gate.u1(), 0),
        Instruction(Gate.u2(), 1),
    )
    circ = Circuit(4, instrs)
    path = tmp_path / "circ.txt"
    save_circuit(path, circ)
    again = load_circuit(path)
    assert again == circ  # exact doubles and controls survive


def test_circuit_text_shape():
    circ = Circuit(2, (Instruction(Gate.ry(0.5), 1, ControlPattern(((0, 1),))),))
    text = format_circuit(circ)
    lines = text.splitlines()
    assert lines[0] == "# qhsl-circuit v1 qubits=2"
    assert lines[1] == "RY(0.5) t=1 c=[0=1]"


def test_parse_circuit_skips_comments():
    text = "# qhsl-circuit v1 qubits=1\n# a note\nX() t=0\n"
    circ = parse_circuit(text)
    assert len(circ.instructions) == 1


def test_parse_circuit_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_circuit("nonsense\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_circuit("# qhsl-circuit v1 qubits=2\nFLIP() t=0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_circuit("# qhsl-circuit v1 qubits=2\nRY() t=0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_circuit("# qhsl-circuit v1 qubits=2\nX() t=0 c=[zz]\n")
    with pytest.raises(FormatError):
        parse_circuit("")


def test_parse_circuit_rejects_out_of_range_target():
    with pytest.raises(FormatError):
        parse_circuit("# qhsl-circuit v1 qubits=1\nX() t=5\n")


# ---------------------------------------------------------------------------
# Mapping tables and pseudocolor maps


def test_mapping_table_round_trip(tmp_path):
    table = (0.0, 0.25, 0.75, 1.0)
    path = tmp_path / "t.txt"
    write_mapping_table(path, table)
    assert read_mapping_table(path) == table


def test_mapping_table_comments_and_layout(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n0.0 0.25\n\n0.75\n1.0\n")
    assert read_mapping_table(path) == (0.0, 0.25, 0.75, 1.0)
    path.write_text("0.0 huh\n")
    with pytest.raises(FormatError, match="line 1"):
        read_mapping_table(path)


def test_pseudocolor_map_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# density slices\n0 37 0\n38 96 60\n97 200 240\n201 255 120\n")
    pmap = read_pseudocolor_map(path)
    assert pmap.entries == ((0, 37, 0.0), (38, 96, 60.0), (97, 200, 240.0), (201, 255, 120.0))
    path.write_text("0 10\n")
    with pytest.raises(FormatError, match="line 1"):
        read_pseudocolor_map(path)
    path.write_text("# nothing\n")
    with pytest.raises(FormatError):
        read_pseudocolor_map(path)


# ---------------------------------------------------------------------------
# Reports


def test_report_round_trip(tmp_path, rng):
    img = random_color_image(rng, 1, 3)
    report = retrieve_image(img, "shots", shots=256, seed=7)
    path = tmp_path / "r.txt"
    save_report(path, report)
    meta = parse_report(path.read_text())
    assert meta["n"] == 1 and meta["q"] == 3
    assert meta["mode"] == "shots" and meta["shots"] == 256
    assert meta["seed"] == 7 and meta["branch"] == "rejection"
    assert len(meta["rows"]) == 4
    for px, row in zip(report.pixels, meta["rows"]):
        y, x, hue, sat, light, flag = row
        assert (y, x) == (px.y, px.x)
        assert hue == pytest.approx(px.hue, abs=1e-9)
        assert sat == pytest.approx(px.saturation, abs=1e-9)
        assert light == pytest.approx(px.lightness, abs=1e-9)
        assert flag == px.hue_undefined


def test_report_exact_mode_header(rng):
    img = random_image(rng, 0, 2)
    report = retrieve_image(img)
    text = format_report(report)
    assert text.splitlines()[0] == "# qhsl-report n=0 q=2 mode=exact shots=- seed=- branch=exact"
    meta = parse_report(text)
    assert meta["shots"] is None and meta["seed"] is None


def test_parse_report_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_report("not a header\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_report("# qhsl-report n=0 q=0 mode=exact shots=- seed=- branch=exact\n0 0 1.0\n")
    with pytest.raises(FormatError):
        parse_report("")


# ---------------------------------------------------------------------------
# Empty rasters, the pixel limit, report rendering


@pytest.mark.parametrize("writer", [write_ppm, write_png])
@pytest.mark.parametrize("shape", [(0, 4, 3), (3, 0, 3), (0, 0, 3)])
def test_writers_refuse_empty_rasters(tmp_path, writer, shape):
    path = tmp_path / "empty.raster"
    with pytest.raises(ValueError):
        writer(path, np.zeros(shape, dtype=np.uint8))
    assert not path.exists()


def test_image_grid_above_the_limit_is_refused():
    from qhsl import QubitBudgetError
    from qhsl.image import MAX_IMAGE_N

    with pytest.raises(QubitBudgetError, match="limit"):
        image_from_rgb_array(np.zeros((1, 1, 3), dtype=np.uint8), MAX_IMAGE_N + 1, 8)
    with pytest.raises(QubitBudgetError, match="line 1: .*limit"):
        parse_image(f"QHSL n={MAX_IMAGE_N + 1} q=8 mapping=average\n0 0 1 0 0\n")
    # at the limit the header passes; the missing pixel lines are what fails
    with pytest.raises(FormatError, match="dump has 0 pixel lines"):
        parse_image(f"QHSL n={MAX_IMAGE_N} q=8 mapping=average\n")


def test_negative_grid_exponent_is_refused():
    with pytest.raises(FormatError, match=r"^grid exponent n=-1 must be non-negative$"):
        image_from_rgb_array(np.zeros((1, 1, 3), dtype=np.uint8), -1, 8)


def test_parse_image_non_finite_phase_is_a_format_error():
    for phi in ("inf", "-inf", "nan", "1e300"):
        with pytest.raises(FormatError, match="line 2: "):
            parse_image(f"QHSL n=0 q=1 mapping=average\n0 0 1.0 {phi} 0\n")


def test_parse_image_bits_outside_register():
    with pytest.raises(FormatError, match=r"line 3: bits 4 outside 0\.\.3"):
        parse_image("QHSL n=0 q=2 mapping=average\n\n0 0 1.0 0 4\n")


def test_report_rows_render_like_the_report(rng):
    from qhsl.formats import report_rows_to_rgb_array, report_to_rgb_array

    img = random_color_image(rng, 2, 5)
    report = retrieve_image(img, "shots", shots=32, seed=4)
    rows = parse_report(format_report(report))["rows"]
    assert np.array_equal(report_rows_to_rgb_array(2, rows), report_to_rgb_array(report))
    assert np.array_equal(report_rows_to_rgb_array(1, []), np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(FormatError, match=r"\(4, 0\) outside the 4x4 grid"):
        report_rows_to_rgb_array(2, [(4, 0, 0.0, 0.0, 0.5, False)])


@pytest.mark.parametrize("n, q", [(0, 0), (2, 3), (3, 8)])
def test_encode_matches_per_pixel_codec(rng, n, q):
    from qhsl import quantize_lightness
    from qhsl.color import rgb_array_to_hsl

    rgb = rng.integers(0, 256, size=(2 ** n, 2 ** n, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)  # hue 0 and full saturation
    pixels = [(encode_chroma(HslColor(*(float(v) for v in hsl))),
               quantize_lightness(float(hsl[2]), q))
              for hsl in rgb_array_to_hsl(rgb).reshape(-1, 3)]
    assert image_from_rgb_array(rgb, n, q) == QhslImage(n, q, pixels)


def test_undefined_hue_renders_grey_in_images_and_reports():
    from qhsl.color import hsl_array_to_rgb
    from qhsl.formats import report_rows_to_rgb_array

    # theta = pi is the south pole: saturation 1 but no hue, so it renders grey
    img = QhslImage(0, 2, ((ChromaState(math.pi, 1.0), LightnessCode(2, 1)),))
    grey = hsl_array_to_rgb(np.array([[[0.0, 0.0, 1 / 3]]]))
    assert np.array_equal(image_to_rgb_array(img), grey)
    rows = [(0, 0, 120.0, 0.7, 1 / 3, True)]
    assert np.array_equal(report_rows_to_rgb_array(0, rows), grey)
    assert not np.array_equal(report_rows_to_rgb_array(0, [rows[0][:5] + (False,)]), grey)
