"""read_anchor_file's one-call bulk parse against the line-by-line reader it replaced.

read_anchor_file parses a well-formed file with one np.loadtxt call and
hands every other file to its line-by-line parse. read_anchor_file_reference
below is a copy of the reader before that change, kept as the oracle: on
every mutant of a valid file the two return equal clouds or raise equal
AnchorFileErrors. The only deliberate differences, a repeated header field
and non-UTF-8 input, are tested on their own.
"""

import binascii
import re
import tracemalloc

import numpy as np
import pytest

from voxgs import AttributeLayout, FloatAnchorCloud, generate_synthetic, write_anchor_file
from voxgs import container as cont
from voxgs.errors import AnchorFileError


def read_anchor_file_reference(path) -> FloatAnchorCloud:
    """The line-by-line reader: whole text, its list of lines, float() per value."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise AnchorFileError(f"cannot read {path}: {exc.strerror or exc}") from exc

    def fail(lineno, message):
        raise AnchorFileError(message, line=lineno)

    if not lines or lines[0].split() != ["voxgs-anchors", "1"]:
        fail(1, "missing 'voxgs-anchors 1' signature")

    header = {}
    mlp_blob = b""
    idx = 1
    while idx < len(lines):
        parts = lines[idx].split()
        if not parts:
            idx += 1
            continue
        key = parts[0]
        if key not in ("anchors", "k", "m", "bbox", "mlp"):
            break
        if key == "bbox":
            if len(parts) != 7:
                fail(idx + 1, "bbox needs 6 values")
            try:
                header["bbox"] = [float(v) for v in parts[1:]]
            except ValueError:
                fail(idx + 1, "bbox values must be reals")
            if not np.all(np.isfinite(header["bbox"])):
                fail(idx + 1, "bbox values must be finite")
        elif key == "mlp":
            if len(parts) != 2:
                fail(idx + 1, "mlp takes one hex string")
            try:
                mlp_blob = binascii.unhexlify(parts[1])
            except (binascii.Error, ValueError):
                fail(idx + 1, "invalid hex in mlp line")
        else:
            if len(parts) != 2 or not re.fullmatch(r"-?[0-9]+", parts[1]):
                fail(idx + 1, f"{key} needs one integer value")
            header[key] = int(parts[1])
        idx += 1

    for key in ("anchors", "k", "m", "bbox"):
        if key not in header:
            fail(idx, f"missing header field '{key}'")
    n, k, m = header["anchors"], header["k"], header["m"]
    if n < 0:
        fail(idx, "anchors must be non-negative")
    try:
        layout = AttributeLayout(k=k, m=m)
    except ValueError as exc:
        fail(idx, str(exc))
    width = 3 + layout.total_dims
    data_lines = [i for i in range(idx, len(lines)) if lines[i].strip()]
    if n > len(data_lines):
        fail(len(lines), f"expected {n} data rows, found {len(data_lines)}")
    for lineno in data_lines[:n]:
        if len(lines[lineno]) < 2 * width - 1:
            fail(lineno + 1, f"expected {width} columns, got {len(lines[lineno].split())}")

    rows = np.zeros((n, width))
    for row, lineno in enumerate(data_lines):
        parts = lines[lineno].split()
        if row >= n:
            fail(lineno + 1, f"more than {n} data rows")
        if len(parts) != width:
            fail(lineno + 1, f"expected {width} columns, got {len(parts)}")
        try:
            values = np.array([float(v) for v in parts])
        except ValueError:
            fail(lineno + 1, "non-numeric value")
        if not np.all(np.isfinite(values)):
            fail(lineno + 1, "non-finite value in row")
        rows[row] = values

    bbox = np.array(header["bbox"]).reshape(2, 3)
    if np.any(bbox[1] <= bbox[0]):
        fail(idx, "bbox max must exceed bbox min on every axis")
    od = layout.offset_dims
    return FloatAnchorCloud(
        positions=rows[:, :3],
        offsets=rows[:, 3 : 3 + od],
        features=rows[:, 3 + od : 3 + od + m],
        scalings=rows[:, 3 + od + m :],
        layout=layout,
        bbox=bbox,
        mlp_blob=mlp_blob,
    )


# k=1, m=2: rows of 3 + 3 + 2 + 6 = 14 values, on lines 7-9.
HEADER = ["voxgs-anchors 1", "anchors 3", "k 1", "m 2", "bbox 0 0 0 1 1 1", "mlp 00ff7e"]
ROWS = [[f"{(14 * r + c) / 7 - 3:.17g}" for c in range(14)] for r in range(3)]


def _text(header=HEADER, rows=ROWS, end="\n", sep=" "):
    return "".join(line + end for line in header + [sep.join(row) for row in rows])


def _with_value(value, row):
    rows = [list(r) for r in ROWS]
    rows[row][4] = value
    return _text(rows=rows)


def _with_row_text(row, edit):
    lines = HEADER + [" ".join(r) for r in ROWS]
    lines[len(HEADER) + row] = edit(lines[len(HEADER) + row])
    return "".join(line + "\n" for line in lines)


def _with_anchors(count, rows):
    return _text(header=["voxgs-anchors 1", f"anchors {count}"] + HEADER[2:], rows=rows)


VALUES = ("nan", "inf", "-inf", "1_000", "\u0661", "#", "0x1", "1e999", "+0.5", "1e-400")
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

MUTANTS = {
    "valid": _text(),
    **{
        f"value {value!r} in row {row}": _with_value(value, row)
        for value in VALUES
        for row in (0, 1)
    },
    **{
        f"{brk!r} inside row": _with_row_text(1, lambda line, b=brk: line.replace(" ", b, 1))
        for brk in BREAKS
    },
    **{f"{brk!r} at row end": _with_row_text(1, lambda line, b=brk: line + b) for brk in BREAKS},
    "\\x0c ending the last row": _text() + "\x0c",
    "\\x1f as a separator": _text(sep="\x1f"),
    "\\xa0 as a separator": _text(sep="\xa0"),
    "tab as a separator": _text(sep="\t"),
    "crlf line ends": _text(end="\r\n"),
    "cr line ends": _text(end="\r"),
    "no final newline": _text()[:-1],
    "blank line inside the header": _text(header=HEADER[:3] + ["  "] + HEADER[3:]),
    "blank line inside the data": _text(rows=ROWS[:1] + [[]] + ROWS[1:]),
    "blank lines after the data": _text() + "\n \t\n\n",
    "row missing": _text(rows=ROWS[:2]),
    "row extra": _text(rows=ROWS + ROWS[:1]),
    "short row": _text(rows=[ROWS[0], ROWS[1][:-1], ROWS[2]]),
    "long row": _text(rows=[ROWS[0], ROWS[1] + ["1"], ROWS[2]]),
    "anchors 0 without rows": _with_anchors(0, []),
    "anchors 0 with rows": _with_anchors(0, ROWS),
    "anchors 1 with three rows": _with_anchors(1, ROWS),
    "header field after the data": _text() + "k 1\n",
    "header only": _text(rows=[]),
    "bbox max below min": _text(header=HEADER[:4] + ["bbox 0 0 0 1 -1 1"] + HEADER[5:]),
    "byte order mark": "\ufeff" + _text(),
    "empty file": "",
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_matches_line_by_line_reader(tmp_path, name):
    path = tmp_path / "mutant.txt"
    path.write_bytes(MUTANTS[name].encode("utf-8"))
    try:
        want = read_anchor_file_reference(path)
    except AnchorFileError as exc:
        with pytest.raises(AnchorFileError) as got:
            cont.read_anchor_file(path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    got = cont.read_anchor_file(path)
    for group in ("positions", "offsets", "features", "scalings", "bbox"):
        np.testing.assert_array_equal(getattr(got, group), getattr(want, group))
    assert got.layout == want.layout
    assert got.mlp_blob == want.mlp_blob


def _scene(tmp_path, anchors=2000):
    fcloud = generate_synthetic(seed=3, anchors=anchors, layout=AttributeLayout(k=10, m=50))
    path = tmp_path / "scene.txt"
    write_anchor_file(path, fcloud)
    return path, fcloud


def test_well_formed_file_in_one_loadtxt_call(tmp_path, monkeypatch):
    path, fcloud = _scene(tmp_path, anchors=300)
    calls = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    floats = []

    def recording_float(value):
        floats.append(value)
        return float(value)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    monkeypatch.setattr(cont, "float", recording_float, raising=False)
    got = cont.read_anchor_file(path)
    assert len(calls) == 1
    assert floats == [f"{v:.17g}" for v in fcloud.bbox.ravel()]  # no data value
    for group in ("positions", "offsets", "features", "scalings"):
        np.testing.assert_array_equal(getattr(got, group), getattr(fcloud, group))


def test_peak_memory_below_twice_the_rows(tmp_path):
    path, fcloud = _scene(tmp_path)
    rows_bytes = fcloud.anchor_count * (3 + fcloud.layout.total_dims) * 8
    tracemalloc.start()
    try:
        cont.read_anchor_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows_bytes, peak / rows_bytes


UTF8_TEXT = _text(header=HEADER[:5])  # no mlp line: data rows on lines 6-8


def _with_byte(lineno, byte):
    """UTF8_TEXT with byte after the first space of line lineno."""
    lines = UTF8_TEXT.encode().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1].replace(b" ", b" " + byte, 1)
    return b"\n".join(lines)


@pytest.mark.parametrize(
    "data, line",
    [
        (_with_byte(6, b"\xff"), 6),
        (_with_byte(3, b"\xff"), 3),
        (_with_byte(8, b"\xe2\x82"), 8),
        (UTF8_TEXT.replace("\n", "\r\n").encode() + b"\xd9", 9),
        (UTF8_TEXT.encode()[:-1] + b"\x0c\xfe\n", 9),
    ],
    ids=["data row", "header", "truncated sequence", "after crlf", "after form feed"],
)
def test_non_utf8_names_its_line(tmp_path, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(AnchorFileError, match=f"^line {line}: not UTF-8 text$") as exc_info:
        cont.read_anchor_file(path)
    assert exc_info.value.line == line


@pytest.mark.parametrize(
    "key, repeat", [("anchors", "anchors 1"), ("k", "k 2"), ("m", "m 2"),
                    ("bbox", "bbox 0 0 0 2 2 2"), ("mlp", "mlp 00")],
)
def test_duplicate_header_field_rejected_at_its_line(tmp_path, key, repeat):
    path = tmp_path / "dup.txt"
    path.write_text(_text(header=HEADER + [repeat]))
    with pytest.raises(AnchorFileError, match=f"^line 7: duplicate header field '{key}'$"):
        cont.read_anchor_file(path)


def test_repeated_k_does_not_override_the_first(tmp_path):
    path = tmp_path / "dup.txt"
    row = " ".join(["0.5"] * 17)  # the width of k=2, m=2
    path.write_text(f"voxgs-anchors 1\nanchors 1\nk 1\nm 2\nk 2\nbbox 0 0 0 1 1 1\n{row}\n")
    with pytest.raises(AnchorFileError, match="duplicate header field 'k'") as exc_info:
        cont.read_anchor_file(path)
    assert exc_info.value.line == 5
