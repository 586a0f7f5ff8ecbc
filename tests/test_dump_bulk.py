"""Image dumps: the once-printed angles against the per-pixel fixed point, and the
bulk body reader against the line loop it falls back to."""

import math

import numpy as np
import pytest

from qhsl import FormatError, QhslError, QhslImage, format_image, parse_image
from qhsl import formats
from qhsl.color import FULL_TURN_STEPS, PHASE_STEP, canonical_phase
from qhsl.formats import write_mapping_table

# ---------------------------------------------------------------------------
# Writer: each pixel line as the per-pixel fixed point printed it


def _stable_angle(value: float, canonical) -> str:
    s = "%.12g" % value
    t = "%.12g" % canonical(float(s))
    while t != s:
        s, t = t, "%.12g" % canonical(float(t))
    return s


def _snap_theta(value: float) -> float:
    return min(value, math.pi)


def reference_format(img: QhslImage) -> str:
    mapping = "average" if img.mapping == "average" else f"manual:{img.table_source}"
    lines = [f"QHSL n={img.n} q={img.q} mapping={mapping}"]
    side = img.side
    for i, (theta, phi, bits) in enumerate(zip(img.theta.tolist(), img.phi.tolist(),
                                               img.codes.tolist())):
        lines.append(f"{i // side} {i % side} {_stable_angle(theta, _snap_theta)} "
                     f"{_stable_angle(phi, canonical_phase)} {bits}")
    return "\n".join(lines) + "\n"


def assert_formats_like_the_fixed_point(img):
    # line by line: a diff of two whole dumps is slow to print
    lines, expected = format_image(img).split("\n"), reference_format(img).split("\n")
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        assert line == want


def _images(theta, steps, n=8, q=4, **manual):
    """Images of 4**n pixels that hold every (theta, step) pair, padded with zeros."""
    theta, steps = np.broadcast_arrays(np.asarray(theta, dtype=np.float64),
                                       np.asarray(steps, dtype=np.int64))
    count = 4 ** n
    pad = -len(steps) % count
    theta = np.concatenate([theta, np.zeros(pad)]).reshape(-1, count)
    steps = np.concatenate([steps, np.zeros(pad, dtype=np.int64)]).reshape(-1, count)
    codes = np.arange(count) % 2 ** q
    return [QhslImage.from_arrays(n, q, t, s, codes, **manual) for t, s in zip(theta, steps)]


def _wrap_window_steps():
    # every grid step in [2*pi - 2e-10, 2*pi): the texts that can read back as 2*pi
    return np.arange(FULL_TURN_STEPS - round(2e-10 / PHASE_STEP), FULL_TURN_STEPS)


def _decade_steps():
    # +-20k steps around each power of ten from 1e-14 to 1, where the 12-digit
    # rounding step passes the grid step
    centres = [round(10.0 ** k / PHASE_STEP) for k in range(-14, 1)]
    steps = np.concatenate([np.arange(c - 20000, c + 20000) for c in centres])
    return steps[steps >= 0]


def _low_and_random_steps():
    return np.concatenate([np.arange(1001),
                           np.random.default_rng(7).integers(0, FULL_TURN_STEPS, 60000)])


@pytest.mark.parametrize("steps", [_wrap_window_steps, _decade_steps, _low_and_random_steps])
def test_format_image_matches_the_per_pixel_fixed_point(steps):
    steps = steps()
    theta = np.random.default_rng(len(steps)).uniform(0.0, math.pi, len(steps))
    for img in _images(theta, steps):
        assert_formats_like_the_fixed_point(img)


def test_format_image_prints_every_theta_as_the_fixed_point():
    near_pi = [math.pi]
    for _ in range(200):
        near_pi.append(np.nextafter(near_pi[-1], 0.0))
    near_pi += list(np.random.default_rng(3).uniform(math.pi - 2e-11, math.pi, 2000))
    theta = np.array([0.0, -0.0, math.pi] + near_pi)
    for img in _images(theta, np.arange(len(theta)) * 977, n=6):
        assert_formats_like_the_fixed_point(img)
        assert format_image(img).splitlines()[2].split()[2] == "-0"


def test_format_image_manual_mapping_matches_the_fixed_point(tmp_path):
    table = np.linspace(0.0, 1.0, 16)
    write_mapping_table(tmp_path / "table.txt", table)
    steps = np.concatenate([_wrap_window_steps()[-500:], np.arange(500)])
    theta = np.linspace(0.0, math.pi, len(steps))
    (img,) = _images(theta, steps, n=5, mapping="manual", table=table,
                     table_source="table.txt")
    assert_formats_like_the_fixed_point(img)
    text = format_image(img)
    assert format_image(parse_image(text, base_dir=tmp_path)) == text


def test_wrapped_phases_are_printed_near_zero():
    (img,) = _images(0.5, [FULL_TURN_STEPS - 1], n=0)
    phi = float(format_image(img).split()[-2])
    assert 0.0 < phi < 1e-11


# ---------------------------------------------------------------------------
# Reader: the bulk path agrees with the line loop, or leaves the input to it


def _loop_only(monkeypatch):
    monkeypatch.setattr(formats, "_bulk_pixels", lambda *args: None)


def _outcome(text, base_dir=None):
    """The parsed image's exact arrays, or the error's type and text."""
    try:
        img = parse_image(text, base_dir)
    except QhslError as exc:
        return type(exc), str(exc)
    return (img.n, img.q, img.mapping, img.table, img.table_source, img.theta.tobytes(),
            img.phase_steps.tobytes(), img.codes.tobytes())


def _dump(n, rows, q=2, eol="\n"):
    header = f"QHSL n={n} q={q} mapping=average"
    return eol.join([header] + rows) + eol


def _grid(n, theta="1.0", phi="0.5", bits="1"):
    side = 2 ** n
    return [f"{i // side} {i % side} {theta} {phi} {bits}" for i in range(side * side)]


def _with(rows, index, line):
    rows = list(rows)
    rows[index] = line
    return rows


FALLBACK_DUMPS = {
    # strided over the whole body, these fields read 0 0 1.0 0.0 0 / 0 1 1.0 0.0 0
    "4 then 6 fields": _dump(1, ["0 0 1.0 0.0", "0 0 1 1.0 0.0 0"] + _grid(1)[2:]),
    "bits 10**30": _dump(1, _with(_grid(1), 2, f"1 0 1.0 0.0 {10 ** 30}")),
    "y 10**30": _dump(1, _with(_grid(1), 1, f"{10 ** 30} 1 1.0 0.0 0")),
    "phi 1e200": _dump(1, _with(_grid(1), 3, "1 1 1.0 1e200 0")),
    "phi nan": _dump(1, _with(_grid(1), 0, "0 0 1.0 nan 0")),
    "phi inf": _dump(1, _with(_grid(1), 0, "0 0 1.0 inf 0")),
    "blank body line": _dump(1, _grid(1)[:2] + [""] + _grid(1)[2:]),
    "blank trailing line": _dump(1, _grid(1) + [" "]),
    "error in the second block": _dump(6, _with(_grid(6), 3000, "46 56 1.0 0.5 4")),
    "last line missing": _dump(6, _grid(6)[:-1]),
    "out of order in the second block": _dump(6, _with(_grid(6), 3000, "")),
}

BULK_DUMPS = {
    "phi -1e-300": _dump(1, _with(_grid(1), 1, "0 1 1.0 -1e-300 0")),
    "blank line before the header": "\n" + _dump(1, _grid(1)),
    "crlf": _dump(1, _grid(1), eol="\r\n"),
    "theta just above pi": _dump(1, [f"{i // 2} {i % 2} {math.pi + d!r} 0.5 3"
                                     for i, d in enumerate((1e-15, 5e-10, 1e-9, 0.0))]),
    "tabs, signs and spaces": _dump(1, ["0\t0 1.0 0.5 +1", " 0 1  -0.0 -0.5 1 ",
                                        "1 0 3 6.5 0", "1 1 0.25e1 1_0.0 3"]),
    "multi-block": _dump(6, _grid(6)),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_DUMPS))
def test_bulk_reader_falls_back_to_the_line_loop(monkeypatch, name):
    text = FALLBACK_DUMPS[name]
    header_n = int(text.split()[1][2:])
    assert formats._bulk_pixels(text.splitlines()[1:], header_n, 4) is None
    outcome = _outcome(text)
    _loop_only(monkeypatch)
    assert outcome == _outcome(text)


@pytest.mark.parametrize("name", sorted(BULK_DUMPS))
def test_bulk_reader_reads_like_the_line_loop(monkeypatch, name):
    text = BULK_DUMPS[name]
    lines = text.splitlines()
    start = 1 + lines.index(text.strip().splitlines()[0])
    header_n = int(lines[start - 1].split()[1][2:])
    assert formats._bulk_pixels(lines[start:], header_n, 4) is not None
    outcome = _outcome(text)
    assert outcome[0] == header_n
    _loop_only(monkeypatch)
    assert outcome == _outcome(text)


def test_loop_results_of_the_fallback_dumps():
    assert _outcome(FALLBACK_DUMPS["4 then 6 fields"]) == (
        FormatError, "line 2: expected 'y x theta phi L', got 4 fields")
    assert _outcome(FALLBACK_DUMPS["bits 10**30"]) == (
        FormatError, f"line 4: bits {10 ** 30} outside 0..3")
    assert _outcome(FALLBACK_DUMPS["y 10**30"]) == (
        FormatError, f"line 3: pixel ({10 ** 30}, 1) out of raster order, expected (0, 1)")
    assert _outcome(FALLBACK_DUMPS["phi nan"]) == (
        FormatError, "line 2: cannot convert float NaN to integer")
    assert parse_image(FALLBACK_DUMPS["phi 1e200"]).phase_steps[3] == (
        round(1e200 / PHASE_STEP) % FULL_TURN_STEPS)
    assert parse_image(FALLBACK_DUMPS["blank body line"]) == parse_image(_dump(1, _grid(1)))
    assert _outcome(FALLBACK_DUMPS["error in the second block"]) == (
        FormatError, "line 3002: bits 4 outside 0..3")
    assert _outcome(FALLBACK_DUMPS["last line missing"]) == (
        FormatError, "dump has 4095 pixel lines, expected 4096")
    assert _outcome(FALLBACK_DUMPS["out of order in the second block"]) == (
        FormatError, "line 3003: pixel (46, 57) out of raster order, expected (46, 56)")


def test_theta_above_pi_snaps_to_pi():
    img = parse_image(BULK_DUMPS["theta just above pi"])
    assert img.theta.tolist() == [math.pi, math.pi, math.pi, math.pi]


def test_formatted_dumps_take_the_bulk_path(rng):
    for n in range(5):
        img = QhslImage.from_arrays(n, 8, rng.uniform(0.0, math.pi, 4 ** n),
                                    rng.integers(0, FULL_TURN_STEPS, 4 ** n),
                                    rng.integers(0, 256, 4 ** n))
        text = format_image(img)
        assert formats._bulk_pixels(text.splitlines()[1:], n, 256) is not None
        assert format_image(parse_image(text)) == text
