"""File formats: rasters, image dumps, circuit text, tables, maps, reports.

Binary rasters are 8-bit RGB: PPM P6 and PNG, both read and written by
the stdlib and numpy alone.  Everything else is line-oriented text.  All
writers go through an atomic replace so a crash never leaves a
half-written file.

Angles in image dumps are printed once with 12 significant digits, a text
that reads back to an angle printing the same, so dumping a parsed dump
reproduces it byte for byte.  A phase whose text reads back at 2*pi wraps,
so phases near 2*pi are printed again until the text is a fixed point.
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .color import (
    AVERAGE,
    MANUAL,
    PHASE_STEP,
    canonical_phase,
    decode_chroma_arrays,
    hsl_array_to_rgb,
    lightness_fractions,
    phase_steps,
    phase_steps_array,
    quantize_codes,
    rgb_array_to_hsl,
    validate_table,
)
from .errors import ConfigurationError, FormatError
from .image import _MAX_Q, QhslImage, check_image_size
from .retrieval import RetrievalReport
from .sim import Circuit, ControlPattern, Gate, Instruction
from .transforms import PseudocolorMap


def _atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qhsl-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _tokenize_ppm_header(data: bytes, count: int) -> tuple[list[bytes], int]:
    # returns `count` header tokens and the offset just past the single
    # whitespace byte that terminates the header
    tokens: list[bytes] = []
    i, n = 0, len(data)
    while len(tokens) < count:
        if i >= n:
            raise FormatError("truncated PPM header")
        c = data[i:i + 1]
        if c in (b" ", b"\t", b"\r", b"\n"):
            i += 1
            continue
        if c == b"#":
            while i < n and data[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < n and data[j:j + 1] not in (b" ", b"\t", b"\r", b"\n"):
            j += 1
        tokens.append(data[i:j])
        i = j
    if i >= n or data[i:i + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise FormatError("missing separator after the PPM maxval")
    return tokens, i + 1


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into an (h, w, 3) uint8 array."""
    data = Path(path).read_bytes()
    tokens, offset = _tokenize_ppm_header(data, 4)
    magic, width_s, height_s, maxval_s = tokens
    if magic != b"P6":
        raise FormatError(f"not a binary PPM: magic {magic!r}")
    try:
        width, height, maxval = int(width_s), int(height_s), int(maxval_s)
    except ValueError as exc:
        raise FormatError(f"bad PPM header field: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    need = width * height * 3
    raw = data[offset:offset + need]
    if len(raw) < need:
        raise FormatError(f"PPM pixel data is short: {len(raw)} of {need} bytes")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    # the reader refuses zero-sized rasters, so the writer does too
    if rgb.ndim != 3 or rgb.shape[2] != 3 or 0 in rgb.shape:
        raise ValueError(f"expected an (h, w, 3) array, got shape {rgb.shape}")
    height, width = rgb.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + rgb.tobytes())


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_LEVEL = 6
# samples per pixel of each supported colour type: gray, RGB, palette,
# gray + alpha, RGBA
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _png_chunk(kind: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + kind + body
            + struct.pack(">I", zlib.crc32(kind + body)))


def _png_chunks(data: bytes):
    """Yield (kind, body) for each chunk up to and including IEND."""
    offset = len(_PNG_SIGNATURE)
    while True:
        if offset + 8 > len(data):
            raise FormatError("truncated PNG: no IEND chunk")
        length, kind = struct.unpack_from(">I4s", data, offset)
        name = kind.decode("latin-1")
        end = offset + 12 + length
        if end > len(data):
            raise FormatError(f"truncated PNG chunk {name}")
        body = data[offset + 8:end - 4]
        if struct.unpack_from(">I", data, end - 4)[0] != zlib.crc32(kind + body):
            raise FormatError(f"bad CRC in PNG chunk {name}")
        yield kind, body
        if kind == b"IEND":
            return
        offset = end


def _unfilter_png_row(kind: int, line: list, prior: list, bpp: int) -> bytearray:
    # Average (3) and Paeth (4) predict from the reconstructed left byte, so
    # they run byte by byte
    out = bytearray(len(line))
    for i, value in enumerate(line):
        left = out[i - bpp] if i >= bpp else 0
        up = prior[i]
        if kind == 3:
            pred = (left + up) >> 1
        else:
            upleft = prior[i - bpp] if i >= bpp else 0
            p = left + up - upleft
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
            pred = left if pa <= pb and pa <= pc else up if pb <= pc else upleft
        out[i] = (value + pred) & 0xFF
    return out


def read_png(path) -> np.ndarray:
    """Read an 8-bit, non-interlaced PNG into an (h, w, 3) uint8 array.

    Gray, gray + alpha, palette, RGB and RGBA images are read; gray is
    repeated into R, G and B and alpha is dropped.  Any other PNG, and any
    damaged one, raises FormatError.
    """
    data = Path(path).read_bytes()
    if not data.startswith(_PNG_SIGNATURE):
        raise FormatError("not a PNG file: bad signature")
    header = palette = None
    idat = []
    for kind, body in _png_chunks(data):
        if header is None:
            if kind != b"IHDR" or len(body) != 13:
                raise FormatError("PNG does not start with a 13-byte IHDR chunk")
            header = struct.unpack(">IIBBBBB", body)
        elif kind == b"PLTE":
            palette = body
        elif kind == b"IDAT":
            idat.append(body)
        elif kind not in (b"IHDR", b"IEND") and not kind[0] & 0x20:
            raise FormatError(f"unsupported critical PNG chunk {kind.decode('latin-1')}")
    width, height, depth, color_type, compression, filter_method, interlace = header
    if width < 1 or height < 1:
        raise FormatError(f"bad PNG dimensions {width}x{height}")
    if color_type not in _PNG_CHANNELS:
        raise FormatError(f"unknown PNG colour type {color_type}")
    if depth != 8:
        raise FormatError(f"PNG bit depth {depth} is not supported (only 8)")
    if interlace == 1:
        raise FormatError("Adam7-interlaced PNG is not supported")
    if compression != 0 or filter_method != 0 or interlace != 0:
        raise FormatError("unknown PNG compression, filter or interlace method")
    bpp = _PNG_CHANNELS[color_type]
    stride = width * bpp
    size = height * (1 + stride)
    if size >= sys.maxsize:
        raise FormatError(f"PNG dimensions {width}x{height} are too large")
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(b"".join(idat), size + 1)
    except zlib.error as exc:
        raise FormatError(f"corrupt PNG image data: {exc}") from exc
    if len(raw) > size:
        raise FormatError(f"PNG image data exceeds {size} bytes for {width}x{height} pixels")
    if len(raw) < size or not stream.eof:
        raise FormatError(f"PNG image data is truncated: {len(raw)} of {size} bytes")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + stride)
    # row 0 is the all-zero scanline that precedes the image
    out = np.zeros((height + 1, stride), dtype=np.uint8)
    for y, (kind, line) in enumerate(zip(rows[:, 0], rows[:, 1:])):
        if kind == 0:
            out[y + 1] = line
        elif kind == 1:
            out[y + 1] = np.cumsum(line.reshape(width, bpp), axis=0, dtype=np.uint8).ravel()
        elif kind == 2:
            out[y + 1] = line + out[y]
        elif kind in (3, 4):
            out[y + 1] = np.frombuffer(
                _unfilter_png_row(kind, line.tolist(), out[y].tolist(), bpp), dtype=np.uint8)
        else:
            raise FormatError(f"unknown PNG filter type {kind} in row {y}")
    pixels = out[1:].reshape(height, width, bpp)
    if color_type == 3:
        if palette is None or not 3 <= len(palette) <= 768 or len(palette) % 3:
            raise FormatError("palette PNG needs a PLTE chunk of 1 to 256 entries")
        table = np.frombuffer(palette, dtype=np.uint8).reshape(-1, 3)
        if pixels.max() >= len(table):
            raise FormatError("PNG palette index out of range")
        return table[pixels[..., 0]]
    if color_type in (0, 4):
        return np.repeat(pixels[..., :1], 3, axis=2)
    return np.ascontiguousarray(pixels[..., :3])


def write_png(path, rgb: np.ndarray) -> None:
    """Write an (h, w, 3) array as an 8-bit RGB PNG.

    Every row uses filter type 0 and the compression level is fixed, so a
    given array always gives the same bytes.
    """
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or 0 in rgb.shape:
        raise ValueError(f"expected an (h, w, 3) array, got shape {rgb.shape}")
    height, width = rgb.shape[:2]
    rows = np.zeros((height, 1 + width * 3), dtype=np.uint8)
    rows[:, 1:] = rgb.reshape(height, width * 3)
    _atomic_write_bytes(path, b"".join((
        _PNG_SIGNATURE,
        _png_chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)),
        _png_chunk(b"IDAT", zlib.compress(rows.tobytes(), _PNG_LEVEL)),
        _png_chunk(b"IEND", b""),
    )))


# raster codecs by file suffix: (reader, writer)
_RASTER_CODECS = {".ppm": (read_ppm, write_ppm), ".png": (read_png, write_png)}


def _raster_codec(path):
    suffix = Path(path).suffix.lower()
    if suffix not in _RASTER_CODECS:
        raise FormatError(f"unsupported raster format {suffix!r} (use .ppm or .png)")
    return _RASTER_CODECS[suffix]


def read_raster(path) -> np.ndarray:
    """Read a raster file by extension (.ppm or .png)."""
    return _raster_codec(path)[0](path)


def write_raster(path, rgb: np.ndarray) -> None:
    _raster_codec(path)[1](path, rgb)


def image_from_rgb_array(rgb: np.ndarray, n: int, q: int, mapping: str = AVERAGE,
                         table=None, table_source: str | None = None) -> QhslImage:
    """Encode an RGB raster onto the 2**n x 2**n pixel grid.

    Rasters smaller than the grid are padded with black on the bottom and
    right; larger ones are refused rather than silently cropped.  Grids
    above n = MAX_IMAGE_N raise QubitBudgetError.
    """
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"expected an (h, w, 3) raster, got shape {rgb.shape}")
    check_image_size(n)
    side = 2 ** n
    height, width = rgb.shape[:2]
    if height > side or width > side:
        raise FormatError(f"raster {width}x{height} exceeds the {side}x{side} grid for n={n}")
    if mapping == MANUAL:
        if table is None:
            raise ConfigurationError("manual mapping used without a table")
        table = validate_table(table, q)
    else:
        mapping, table = AVERAGE, None
    padded = np.zeros((side, side, 3), dtype=np.uint8)
    padded[:height, :width] = rgb
    hue, sat, light = rgb_array_to_hsl(padded).reshape(-1, 3).T
    return QhslImage.from_arrays(n, q, (1.0 + sat) * (math.pi / 3.0),
                                 phase_steps_array(np.radians(hue)),
                                 quantize_codes(light, q, mapping, table), mapping, table,
                                 table_source)


def image_to_rgb_array(img: QhslImage) -> np.ndarray:
    """Render stored pixels back to 8-bit RGB.

    Pixels whose hue is indeterminate (chroma at a Bloch pole) render as
    the saturation-zero grey of their lightness.
    """
    hue, sat, undefined = decode_chroma_arrays(img.theta, img.phi)
    light = lightness_fractions(img.codes, img.q, img.mapping, img.table)
    return _render(img.n, hue, sat, light, undefined)


def _render(n: int, hue, saturation, lightness, undefined, position=slice(None)) -> np.ndarray:
    """8-bit RGB of the 2**n x 2**n grid from columns at raster ``position``: images and
    reports, parsed or not, render here.  Pixels without a value stay black."""
    side = 2 ** n
    hsl = np.zeros((side * side, 3))
    hsl[position] = np.column_stack([hue, np.where(undefined, 0.0, saturation), lightness])
    return hsl_array_to_rgb(hsl.reshape(side, side, 3))


def report_rows_to_rgb_array(n: int, rows) -> np.ndarray:
    """Render (y, x, hue, saturation, lightness, hue_undefined) rows to 8-bit RGB; a
    row off the grid, or with a value no report holds, raises FormatError."""
    side = 2 ** n
    try:
        data = np.array(rows, dtype=np.float64).reshape(-1, 6)
        inside = np.all((data[:, :2] >= 0) & (data[:, :2] < side))
    except OverflowError:  # an integer past float range
        inside = False
    if not inside:
        y, x = next((y, x) for y, x, *_ in rows if not (0 <= y < side and 0 <= x < side))
        raise FormatError(f"report pixel ({y}, {x}) outside the {side}x{side} grid")
    # 2*pi prints as hue 360 at 12 digits
    valid = (data[:, 2:5] >= 0.0) & (data[:, 2:5] <= (360.0, 1.0, 1.0))
    if not valid.all():
        i, j = np.argwhere(~valid)[0]
        y, x, *values = rows[i]
        name, top = (("hue", 360), ("saturation", 1), ("lightness", 1))[j]
        raise FormatError(f"report pixel ({y}, {x}) has {name} {values[j]} outside [0, {top}]")
    position = data[:, 0].astype(np.int64) * side + data[:, 1].astype(np.int64)
    return _render(n, data[:, 2], data[:, 3], data[:, 4], data[:, 5], position)


def report_to_rgb_array(report: RetrievalReport) -> np.ndarray:
    return _render(report.n, report.hue, report.saturation, report.lightness,
                   report.hue_undefined)


def save_image(path, source) -> None:
    """Write a QhslImage or RetrievalReport as a raster file."""
    report = isinstance(source, RetrievalReport)
    write_raster(path, (report_to_rgb_array if report else image_to_rgb_array)(source))


# a phase's text reads back below 2*pi under this; a theta's reads back as itself or snaps to pi
_PHASE_WRAP = 2.0 * math.pi - 1e-10
# dump lines converted at a time, which bounds the Python objects held at once
_BODY_BLOCK = 2048


def _stable_phase(phi: float) -> str:
    s = "%.12g" % phi
    t = "%.12g" % canonical_phase(float(s))
    while t != s:
        s, t = t, "%.12g" % canonical_phase(float(t))
    return s


def format_image(img: QhslImage) -> str:
    """Serialize an image: a header line, then one `y x theta phi L` per pixel."""
    if img.mapping == MANUAL:
        ref = img.table_source
        if not ref:
            raise FormatError("a manual-mapping image needs a table path reference to serialize")
        if any(ch.isspace() for ch in ref):
            raise FormatError(f"table reference {ref!r} must not contain whitespace")
        mapping = f"manual:{ref}"
    else:
        mapping = "average"
    lines = [f"QHSL n={img.n} q={img.q} mapping={mapping}"]
    pos = np.arange(4 ** img.n)
    blocks = (np.split(column, range(_BODY_BLOCK, len(pos), _BODY_BLOCK)) for column in
              (pos >> img.n, pos & (img.side - 1), img.theta, img.phi, img.codes))
    for y, x, theta, phi, bits in zip(*blocks):
        phis = ["%.12g" % p if p < _PHASE_WRAP else _stable_phase(p) for p in phi.tolist()]
        rows = zip(y.tolist(), x.tolist(), theta.tolist(), phis, bits.tolist())
        lines.append("\n".join(map("%d %d %.12g %s %d".__mod__, rows)))
    return "\n".join(lines) + "\n"


def _lines(raw_lines: list[str], comments: bool = False, split: bool = True):
    """Yield (line number, tokens) for each non-blank one of a text's ``splitlines()``, or
    the stripped line if not ``split``; with ``comments``, '#' lines are skipped too."""
    for ln, raw in enumerate(raw_lines, start=1):
        line = raw.split() if split else raw.strip()
        # line[0][0] is the first character either way
        if line and not (comments and line[0][0] == "#"):
            yield ln, line


def _header_line(lines, what: str):
    for item in lines:
        return item
    raise FormatError(f"empty {what}")


def _line_error(ln: int, error) -> FormatError:
    return FormatError(f"line {ln}: {error}")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read {what} {os.fspath(path)!r}: {exc}") from exc


def _parse_header_fields(tokens: list[str], ln: int) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise _line_error(ln, f"malformed header field {tok!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    return fields


_THETA_MAX = math.pi + 1e-9  # dump thetas up to this bound snap to pi
# below this magnitude, phase_steps_array rounds onto the grid exactly as phase_steps does
_PHASE_LIMIT = 2.0 ** 60 * PHASE_STEP


def _bulk_pixels(body: list[str], n: int, top: int):
    """(theta, phase steps, codes) of a dump body of one valid line per pixel in raster
    order, else None: parse_image's line loop then reads it and raises any error."""
    if len(body) != 4 ** n:
        return None
    columns = []
    for start in range(0, 4 ** n, _BODY_BLOCK):
        block = body[start:start + _BODY_BLOCK]
        if set(map(len, map(str.split, block))) != {5}:
            return None
        tokens = " ".join(block).split()  # each line's split, back to back
        try:
            y, x, bits = (np.fromiter(map(int, tokens[i::5]), np.int64) for i in (0, 1, 4))
            th, phi = (np.fromiter(map(float, tokens[i::5]), np.float64) for i in (2, 3))
        except (ValueError, OverflowError):
            return None
        pos = np.arange(start, start + len(block))
        if not (np.array_equal(y, pos >> n) and np.array_equal(x, pos & (2 ** n - 1))
                and np.all((th >= 0.0) & (th <= _THETA_MAX) & (np.abs(phi) < _PHASE_LIMIT))
                and np.all((bits >= 0) & (bits < top))):
            return None
        columns.append((np.minimum(th, math.pi), phase_steps_array(phi), bits))
    return [np.concatenate(column) for column in zip(*columns)]


def parse_image(text: str, base_dir=None) -> QhslImage:
    """Parse the dump format back into an image.

    Pixel lines must appear in raster order and cover the grid exactly.
    A manual mapping's table reference is resolved relative to
    ``base_dir`` (the dump's directory when loading from a file).
    """
    raw_lines = text.splitlines()
    lines = _lines(raw_lines)
    ln, tokens = _header_line(lines, "image dump")
    if tokens[0] != "QHSL":
        raise _line_error(ln, "expected a 'QHSL n=... q=... mapping=...' header")
    fields = _parse_header_fields(tokens[1:], ln)
    missing = {"n", "q", "mapping"} - fields.keys()
    if missing:
        raise _line_error(ln, f"header is missing {sorted(missing)}")
    try:
        n, q = int(fields["n"]), int(fields["q"])
    except ValueError as exc:
        raise _line_error(ln, exc) from exc
    if n < 0 or q < 0:
        raise _line_error(ln, "n and q must be non-negative")
    check_image_size(n, f"line {ln}: ")
    if q > _MAX_Q:
        raise _line_error(ln, f"q={q} exceeds the limit of {_MAX_Q} lightness qubits")
    mapping, table, ref = AVERAGE, None, None
    spec = fields["mapping"]
    if spec.startswith("manual:"):
        mapping = MANUAL
        ref = spec.split(":", 1)[1]
        if not ref:
            raise _line_error(ln, "empty table reference")
        resolved = os.path.join("." if base_dir is None else base_dir, ref)
        try:
            table = validate_table(read_mapping_table(resolved), q)
        except ConfigurationError as exc:
            raise _line_error(ln, f"bad mapping table: {exc}") from exc
    elif spec != "average":
        raise _line_error(ln, f"unknown mapping {spec!r}")

    side = 2 ** n
    count, top = side * side, 2 ** q
    pixels = _bulk_pixels(raw_lines[ln:], n, top)
    if pixels is not None:
        return QhslImage.from_arrays(n, q, *pixels, mapping, table, ref)
    thetas, steps, codes = [], [], []
    for index, (ln, tokens) in enumerate(lines):
        if len(tokens) != 5:
            raise _line_error(ln, f"expected 'y x theta phi L', got {len(tokens)} fields")
        if index >= count:
            raise _line_error(ln, f"more pixel lines than the {side}x{side} grid")
        y, x, theta, phi, bits = tokens
        try:
            y, x, theta, phi, bits = int(y), int(x), float(theta), float(phi), int(bits)
        except ValueError as exc:
            raise _line_error(ln, exc) from exc
        if (y, x) != divmod(index, side):
            raise _line_error(ln, f"pixel ({y}, {x}) out of raster order, expected "
                                  f"({index // side}, {index % side})")
        if not 0.0 <= theta <= _THETA_MAX:
            raise _line_error(ln, f"theta {theta} outside [0, pi]")
        if not 0 <= bits < top:
            raise _line_error(ln, f"bits {bits} outside 0..{top - 1}")
        try:
            steps.append(phase_steps(phi))
        except (ValueError, OverflowError) as exc:
            raise _line_error(ln, exc) from exc
        thetas.append(theta if theta <= math.pi else math.pi)
        codes.append(bits)
    if len(codes) != count:
        raise FormatError(f"dump has {len(codes)} pixel lines, expected {count}")
    return QhslImage.from_arrays(n, q, thetas, steps, codes, mapping, table, ref)


def save_dump(path, img: QhslImage) -> None:
    _atomic_write_text(path, format_image(img))


def load_dump(path) -> QhslImage:
    path = Path(path)
    return parse_image(path.read_text(encoding="utf-8"), base_dir=path.parent)


_CIRCUIT_HEADER_RE = re.compile(r"#\s*qhsl-circuit\s+v1\s+qubits=(\d+)\s*$")
_INSTR_RE = re.compile(r"^(\w+)\(([^)]*)\)\s+t=(\d+)(?:\s+c=\[([^\]]*)\])?\s*$")


def format_circuit(circuit: Circuit) -> str:
    """Serialize a circuit, one instruction per line.

    Angles are printed with repr so parsing recovers the exact doubles
    and a serialized circuit applies bit-identically.
    """
    lines = [f"# qhsl-circuit v1 qubits={circuit.num_qubits}"]
    for ins in circuit.instructions:
        params = ", ".join(repr(p) for p in ins.gate.params)
        line = f"{ins.gate.kind}({params}) t={ins.target}"
        if ins.controls.terms:
            line += " c=[" + ",".join(f"{qb}={bit}" for qb, bit in ins.controls.terms) + "]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_instruction(line: str) -> Instruction:
    m = _INSTR_RE.match(line)
    if not m:
        raise ValueError(f"unrecognized instruction {line!r}")
    kind, params, target, controls = m.groups()
    # Gate checks the kind and its parameter count
    gate = Gate(kind, tuple(float(p) for p in params.split(",") if p.strip()))
    terms = []
    for part in controls.split(",") if controls else ():
        if "=" not in part:
            raise ValueError(f"malformed control term {part!r}")
        qb, bit = part.split("=", 1)
        terms.append((int(qb), int(bit)))
    return Instruction(gate, int(target), ControlPattern(tuple(terms)))


def parse_circuit(text: str) -> Circuit:
    # instructions are matched whole, since their parameter lists hold spaces
    lines = _lines(text.splitlines(), split=False)
    ln, line = _header_line(lines, "circuit file")
    m = _CIRCUIT_HEADER_RE.match(line)
    if not m:
        raise _line_error(ln, "expected header '# qhsl-circuit v1 qubits=<k>'")
    instrs: list[Instruction] = []
    for ln, line in lines:
        if line[0] != "#":
            try:
                instrs.append(_parse_instruction(line))
            except ValueError as exc:
                raise _line_error(ln, exc) from exc
    try:
        return Circuit(int(m.group(1)), tuple(instrs))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_circuit(path, circuit: Circuit) -> None:
    _atomic_write_text(path, format_circuit(circuit))


def load_circuit(path) -> Circuit:
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def read_mapping_table(path) -> tuple[float, ...]:
    """Read a lightness mapping table: whitespace-separated fractions."""
    values: list[float] = []
    for ln, tokens in _lines(_read_text(path, "mapping table").splitlines(), comments=True):
        try:
            values += map(float, tokens)
        except ValueError as exc:
            raise _line_error(ln, exc) from exc
    return tuple(values)


def write_mapping_table(path, table) -> None:
    _atomic_write_text(path, "\n".join(repr(float(v)) for v in table) + "\n")


def read_pseudocolor_map(path) -> PseudocolorMap:
    """Read a pseudocolor map: one `lo hi hue_degrees` interval per line."""
    entries = []
    for ln, tokens in _lines(_read_text(path, "pseudocolor map").splitlines(), comments=True):
        if len(tokens) != 3:
            raise _line_error(ln, f"expected 'lo hi hue_degrees', got {len(tokens)} fields")
        try:
            entries.append((int(tokens[0]), int(tokens[1]), float(tokens[2])))
        except ValueError as exc:
            raise _line_error(ln, exc) from exc
    if not entries:
        raise FormatError("empty pseudocolor map")
    return PseudocolorMap(tuple(entries))


def format_report(report: RetrievalReport) -> str:
    """Serialize a retrieval report: header, then `y x hue sat light flag` lines."""
    shots = "-" if report.shots_per_basis is None else str(report.shots_per_basis)
    seed = "-" if report.seed is None else str(report.seed)
    lines = [f"# qhsl-report n={report.n} q={report.q} mode={report.mode} "
             f"shots={shots} seed={seed} branch={report.branch}"]
    pos = np.arange(4 ** report.n)
    rows = zip((pos >> report.n).tolist(), (pos & (2 ** report.n - 1)).tolist(),
               report.hue.tolist(), report.saturation.tolist(), report.lightness.tolist(),
               report.hue_undefined.tolist())
    lines += map("%d %d %.12g %.12g %.12g %d".__mod__, rows)
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Parse a report into {'n', 'q', 'mode', 'shots', 'seed', 'branch', 'rows'}."""
    lines = _lines(text.splitlines())
    ln, tokens = _header_line(lines, "report")
    head = " ".join(tokens).lstrip("#").split()
    if tokens[0][0] != "#" or not head or head[0] != "qhsl-report":
        raise _line_error(ln, "expected a '# qhsl-report ...' header")
    fields = _parse_header_fields(head[1:], ln)
    try:
        meta = {
            "n": int(fields["n"]),
            "q": int(fields["q"]),
            "mode": fields["mode"],
            "shots": None if fields["shots"] == "-" else int(fields["shots"]),
            "seed": None if fields["seed"] == "-" else int(fields["seed"]),
            "branch": fields["branch"],
        }
    except (KeyError, ValueError) as exc:
        raise _line_error(ln, f"bad report header: {exc}") from exc
    check_image_size(meta["n"], f"line {ln}: ")
    rows = []
    for ln, tokens in lines:
        try:
            y, x, hue, sat, light, flag = tokens
        except ValueError:
            raise _line_error(ln, "expected 'y x hue saturation lightness flag', "
                                  f"got {len(tokens)} fields") from None
        try:
            rows.append((int(y), int(x), float(hue), float(sat), float(light), int(flag) != 0))
        except ValueError as exc:
            raise _line_error(ln, exc) from exc
    meta["rows"] = tuple(rows)
    return meta


def save_report(path, report: RetrievalReport) -> None:
    _atomic_write_text(path, format_report(report))


def load_report(path) -> dict:
    return parse_report(Path(path).read_text(encoding="utf-8"))
