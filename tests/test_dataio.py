"""read_table: numpy's C reader for plain bodies, the row parser for the rest."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from adahuber import dataio
from adahuber.cli import main
from adahuber.core import Dataset
from adahuber.dataio import CsvFormatError, load_csv, read_table, save_csv


def outcome(path, delimiter):
    """(header, shape, dtype, matrix bytes) of a read, or the CsvFormatError text."""
    try:
        header, matrix = read_table(str(path), delimiter)
    except CsvFormatError as exc:
        return str(exc)
    return header, matrix.shape, matrix.dtype, matrix.tobytes()


def row_parser_outcome(path, delimiter):
    with mock.patch.object(dataio, "_loadtxt_body", return_value=None):
        return outcome(path, delimiter)


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "nan", "inf", "-inf", "1e309", "-0", "+.5", " 2.5 ",
                     "\t3", '"4"', "", "abc", "１", "1e", "0x10"]),
)
NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 3))
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    names = [f"c{j}" for j in range(width)]
    if draw(st.booleans()):
        names[0] = f'"{names[0]}"'
    lines = [delimiter.join(names)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(delimiter.join(cells))
    text = "".join(line + draw(NEWLINES) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = "\ufeff" if draw(st.integers(0, 4)) == 0 else ""
    return (bom + text).encode(), delimiter


# loadtxt reads this body as two rows, as many as its lines if a lone \r
# did not end one, and skips the blank line that the row parser rejects
@example((b"y,x\n1,2\r3,4\n\n", ","), 1 << 20)
# an unterminated quote makes the whole file one header cell: no data rows,
# where loadtxt, skipping only the first line, would read two
@example((b'"y\n1\n2\n', ","), 1 << 20)
@given(csv_files(), st.sampled_from([3, 1 << 20]))
def test_fast_path_agrees_with_row_parser(tmp_path_factory, file, chunk):
    body, delimiter = file
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    path.write_bytes(body)
    with mock.patch.object(dataio, "_CHUNK", chunk):
        assert outcome(path, delimiter) == row_parser_outcome(path, delimiter)


@pytest.mark.parametrize("newline,chunk,header", [
    *(pytest.param(newline, chunk, b"y,x1,x2,x3", id=f"{newline}-{chunk}")
      for newline, chunk in [("\n", 1 << 20), ("\r\n", 1 << 20),
                             ("\r\n", 4), ("\r", 5)]),
    pytest.param("\n", 1 << 20, b'"y","x1","x2","x3"', id="quoted-header")])
def test_plain_file_takes_the_fast_path(tmp_path, newline, chunk, header):
    rng = np.random.default_rng(9)
    data = Dataset(rng.standard_normal((1000, 3)) * 1e3, rng.standard_t(1.5, 1000))
    path = tmp_path / "d.csv"
    save_csv(data, str(path))
    text = path.read_bytes().replace(b"y,x1,x2,x3", header, 1)
    path.write_bytes(text.replace(b"\n", newline.encode()))
    with mock.patch.object(dataio, "_CHUNK", chunk), \
            mock.patch.object(dataio, "_parse_rows", side_effect=AssertionError):
        back = load_csv(str(path), "y")
    assert back.x.tobytes() == data.x.tobytes()
    assert back.y.tobytes() == data.y.tobytes()


@pytest.mark.parametrize("text,message", [
    ("y,x1\n\n\n", "row 2 has 0 cells, expected 2"),
    ("y,x1\n", "no data rows"),
    ("y\n", "no data rows"),
    ("y\n\n", "row 2 has 0 cells, expected 1"),
])
def test_empty_body_raises_no_warning(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match=message):
            read_table(str(path))


@pytest.mark.parametrize("header", ["y,x1", '"y","x1"'])
def test_byte_order_mark_is_dropped(tmp_path, header, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(f"\ufeff{header}\n1,2\n3,5\n4,4\n".encode())
    assert read_table(str(path))[0] == ["y", "x1"]
    assert load_csv(str(path), "y").y.tolist() == [1.0, 3.0, 4.0]
    assert main(["diagnose", "--input", str(path), "--response", "y"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("y,")


@pytest.mark.parametrize("header", ["y,xé", '"y","xé"'])
@pytest.mark.parametrize("chunk", [1 << 20, 4])
def test_bad_encoding_names_path_and_offset(tmp_path, header, chunk):
    path = tmp_path / "d.csv"
    body = f"{header}\n1,2\n".encode() + b"3,\xff\n"
    path.write_bytes(body)
    offset = body.index(b"\xff")
    with mock.patch.object(dataio, "_CHUNK", chunk):
        with pytest.raises(CsvFormatError) as info:
            read_table(str(path))
    assert str(info.value) == (f"{path}: not UTF-8 text: byte 0xff at offset "
                               f"{offset} (invalid start byte)")


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
def test_delimiter_that_cannot_separate_fields(tmp_path, delimiter):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\n")
    with pytest.raises(CsvFormatError, match="cannot separate fields"):
        read_table(str(path), delimiter)


def test_cli_refuses_quote_delimiter(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\n3,4\n5,7\n")
    assert main(["fit", "--input", str(path), "--response", "y",
                 "--delimiter", '"']) == 1
    assert "delimiter '\"' cannot separate fields" in capsys.readouterr().err


@pytest.mark.parametrize("text,line", [
    ('y,x1\n1,2\n"3",' + "1" * 140_000 + "\n", 3),
    ('"y' + "a" * 140_000 + '",x1\n1,2\n', 1),
])
@pytest.mark.parametrize("command", [["diagnose"], ["fit", "--response", "y"]])
def test_oversized_quoted_cell_is_a_format_error(tmp_path, capsys, text, line,
                                                 command):
    # csv's field_size_limit is 131,072 characters
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=f"line {line}: field larger"):
        read_table(str(path))
    assert main(command + ["--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"adahuber: error: {path}: line {line}: field larger")
    assert "Traceback" not in err
