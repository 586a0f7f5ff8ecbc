"""Hypothesis properties of the text readers at n <= 2.

A dump re-reads to itself, a report re-read from its text renders like the
report itself, and a valid file with one token changed either parses and
renders or raises a QhslError: never another exception, and never a numpy
RuntimeWarning (the suite turns those into errors).
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from qhsl import (
    QhslError,
    QhslImage,
    format_circuit,
    format_image,
    format_report,
    image_to_rgb_array,
    invert_color,
    lightness_add,
    parse_circuit,
    parse_image,
    parse_report,
    preparation_circuit,
    read_mapping_table,
    read_pseudocolor_map,
    retrieve_image,
)
from qhsl.color import FULL_TURN_STEPS
from qhsl.formats import report_rows_to_rgb_array, report_to_rgb_array, write_mapping_table


@st.composite
def images(draw, manual: bool):
    n, q = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    count = 4 ** n
    theta = draw(st.lists(st.floats(0.0, math.pi), min_size=count, max_size=count))
    steps = draw(st.lists(st.integers(0, FULL_TURN_STEPS - 1), min_size=count, max_size=count))
    codes = draw(st.lists(st.integers(0, 2 ** q - 1), min_size=count, max_size=count))
    if not manual:
        return QhslImage.from_arrays(n, q, theta, steps, codes)
    table = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2 ** q, max_size=2 ** q)))
    return QhslImage.from_arrays(n, q, theta, steps, codes, "manual", table, "table.txt")


@given(st.booleans().flatmap(images))
def test_dump_is_a_fixed_point_of_parse_and_format(img):
    with tempfile.TemporaryDirectory() as tmp:
        if img.mapping == "manual":
            write_mapping_table(Path(tmp) / "table.txt", img.table)
        text = format_image(img)
        assert format_image(parse_image(text, base_dir=tmp)) == text


@given(st.booleans().flatmap(images), st.sampled_from(["exact", "shots"]), st.integers(0, 9))
def test_parsed_report_renders_like_the_report(img, mode, seed):
    # the text keeps 12 digits, so a channel can round to the next level
    report = retrieve_image(img, mode, shots=None if mode == "exact" else 32, seed=seed)
    rows = parse_report(format_report(report))["rows"]
    parsed = report_rows_to_rgb_array(img.n, rows).astype(int)
    assert np.abs(parsed - report_to_rgb_array(report)).max() <= 1


def _image(seed: int, n: int, q: int) -> QhslImage:
    rng = np.random.default_rng(seed)
    return QhslImage.from_arrays(n, q, rng.uniform(0.0, math.pi, 4 ** n),
                                 rng.integers(0, FULL_TURN_STEPS, 4 ** n),
                                 rng.integers(0, 2 ** q, 4 ** n))


def _text(kind: str, seed: int) -> str:
    """A valid file of the given kind, small and fixed by the seed."""
    n, q = seed % 3, 1 + seed % 4
    img = _image(seed, n, q)
    if kind == "dump":
        return format_image(img)
    if kind == "report":
        return format_report(retrieve_image(img, "shots", shots=16, seed=seed))
    if kind == "circuit":
        return format_circuit(preparation_circuit(_image(seed, min(n, 1), q)))
    if kind == "map":
        top = 2 ** q - 1
        return f"# density intervals\n0 {top // 2} 0.0\n\n{top // 2 + 1} {top} 240.5\n"
    return "# fractions\n" + "".join(f"{v!r}\n" for v in np.linspace(0.0, 1.0, 2 ** q))


def _corrupt(text: str, line: int, token: int, value: str) -> str:
    """Replace one token of one line; in a header's key=value token, only the value."""
    lines = text.splitlines()
    filled = [i for i, content in enumerate(lines) if content.split()]
    line = filled[line % len(filled)]
    tokens = lines[line].split()
    token %= len(tokens)
    key, eq, _ = tokens[token].partition("=")
    tokens[token] = key + eq + value if line == 0 and eq else value
    lines[line] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _read_and_use(kind: str, text: str, tmp: Path) -> None:
    if kind == "dump":
        img = parse_image(text, base_dir=tmp)
        image_to_rgb_array(img)
        invert_color(img)
        lightness_add(img, 2 ** img.q - 1)
    elif kind == "report":
        meta = parse_report(text)
        report_rows_to_rgb_array(meta["n"], meta["rows"])
    elif kind == "circuit":
        parse_circuit(text)
    else:
        path = tmp / "input.txt"
        path.write_text(text, encoding="utf-8")
        (read_pseudocolor_map if kind == "map" else read_mapping_table)(path)


_VALUES = st.one_of(
    st.integers().map(str),
    st.sampled_from([2 ** 63, 2 ** 64, -2 ** 63 - 1, 10 ** 30, 10 ** 400]).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e300", "-1e300"]),
    st.text(max_size=12),
)


# a report whose header says n=-1 or n=20
@example(kind="report", seed=0, line=0, token=2, value="-1")
@example(kind="report", seed=0, line=0, token=2, value="20")
# lightness registers too wide for int64 arithmetic
@example(kind="dump", seed=1, line=0, token=2, value="100")
@example(kind="dump", seed=1, line=0, token=2, value="63")
# report rows that no writer produces
@example(kind="report", seed=1, line=1, token=3, value="nan")
@example(kind="report", seed=1, line=1, token=2, value="inf")
@example(kind="report", seed=1, line=2, token=0, value=str(10 ** 30))
@example(kind="report", seed=1, line=2, token=1, value=str(10 ** 400))
@given(kind=st.sampled_from(["dump", "report", "circuit", "map", "table"]),
       seed=st.integers(0, 11), line=st.integers(0, 99), token=st.integers(0, 9), value=_VALUES)
def test_one_changed_token_raises_only_qhsl_errors(kind, seed, line, token, value):
    text = _corrupt(_text(kind, seed), line, token, value)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _read_and_use(kind, text, Path(tmp))
        except QhslError:
            pass
