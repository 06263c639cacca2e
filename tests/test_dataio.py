"""read_table: numpy's C reader for plain bodies, the row parser for the rest."""

import io
import os
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
    expected = row_parser_outcome(path, delimiter)
    for workers in ("1", "2", "3"):
        with mock.patch.object(dataio, "_CHUNK", chunk), \
                mock.patch.dict(os.environ, {"ADAHUBER_THREADS": workers}):
            assert outcome(path, delimiter) == expected, workers


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


@pytest.mark.parametrize("chunk,forked", [(1 << 20, []), (64, [1])],
                         ids=["one-share", "many-shares"])
def test_only_a_body_of_several_shares_forks(tmp_path, monkeypatch, forks,
                                            chunk, forked):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n" + "".join(f"{i},{i * i}\n" for i in range(100)))
    monkeypatch.setenv("ADAHUBER_THREADS", "2")
    with mock.patch.object(dataio, "_CHUNK", chunk), \
            mock.patch.object(dataio, "_parse_rows", side_effect=AssertionError):
        _, matrix = read_table(str(path))
    assert matrix[:, 1].tolist() == [i * i for i in range(100)]
    # many shares: one child, forked while no other thread ran; the caller
    # is the second worker
    assert forks == forked


def test_read_refuses_a_worker_count_below_one(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n1,2\n")
    monkeypatch.setenv("ADAHUBER_THREADS", "0")
    with pytest.raises(ValueError, match="threads must be at least 1"):
        read_table(str(path))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_blank_line_at_a_share_start_is_an_error(tmp_path, monkeypatch, workers):
    # the first \n at or after byte 8 ends "3,4" and the one at byte 16 is
    # the blank line's, so the shares are "y,x\n1,2\n3,4\n", "\n5,6\n" and
    # "7,8\n": the second starts on the blank line, which loadtxt skips and
    # the row parser rejects
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,x\n1,2\n3,4\n\n5,6\n7,8\n")
    monkeypatch.setenv("ADAHUBER_THREADS", workers)
    with mock.patch.object(dataio, "_CHUNK", 8):
        assert dataio._cuts(str(path)) == [0, 12, 17, 21]
        with pytest.raises(CsvFormatError, match="row 4 has 0 cells, expected 2"):
            read_table(str(path))


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


@pytest.mark.parametrize("text,chunk,reason", [
    *(pytest.param(f"{header}\n1,2\n".encode() + b"3,\xff\n", chunk,
                   "invalid start byte", id=f"{chunk}-{header}")
      for header in ("y,xé", '"y","xé"') for chunk in (1 << 20, 4)),
    pytest.param(b"y,x\xff\n1,2\n", 1 << 20, "invalid start byte", id="in-header"),
    # the last of 27 shares of 16 bytes
    pytest.param(b"y,x\n" + b"".join(b"%d,%d\n" % (i, i * i) for i in range(60))
                 + b"7,\xff\n", 16, "invalid start byte", id="in-last-share"),
    # past the header read's first block, after the ragged row 3
    pytest.param(b"y,x\n1,2\n3\n" + b"4,5\n" * 3000 + b"6,\xff\n", 1 << 20,
                 "invalid start byte", id="after-ragged-row"),
    pytest.param(b"y,x\n1,2\n3,\xc3", 1 << 20, "unexpected end of data",
                 id="cut-off-at-end"),
    # past the header read's first blocks, after a header cell longer than
    # csv's field_size_limit
    pytest.param(b'"y' + b"a" * 140_000 + b'",x\n' + b"1,2\n" * 3000 + b"3,\xff\n",
                 1 << 20, "invalid start byte", id="after-oversized-header"),
])
def test_bad_encoding_names_path_and_offset(tmp_path, monkeypatch, text, chunk,
                                            reason):
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    offset = text.rindex(b"\xc3" if reason == "unexpected end of data" else b"\xff")
    for workers in ("1", "2"):
        monkeypatch.setenv("ADAHUBER_THREADS", workers)
        with mock.patch.object(dataio, "_CHUNK", chunk):
            with pytest.raises(CsvFormatError) as info:
                read_table(str(path))
        assert str(info.value) == (f"{path}: not UTF-8 text: byte "
                                   f"0x{text[offset]:02x} at offset {offset} "
                                   f"({reason})"), workers


@pytest.mark.parametrize("header,name", [("y,x,x", "x"), ("y,x,y", "y"),
                                         ("y, x ,x", "x")])
def test_repeated_column_name_is_refused(tmp_path, capsys, header, name):
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\n1,2,3\n4,5,7\n5,7,4\n")
    message = f"{path}: header repeats column {name!r}"
    with mock.patch.object(dataio, "_loadtxt_body", side_effect=AssertionError), \
            mock.patch.object(dataio, "_parse_rows", side_effect=AssertionError):
        with pytest.raises(CsvFormatError) as info:
            read_table(str(path))
    assert str(info.value) == message
    out = tmp_path / "fit.csv"
    assert main(["fit", "--input", str(path), "--response", "y",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"adahuber: error: {message}"]
    assert not out.exists()


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


def test_unknown_output_format_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"a\n1\n")
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        dataio.write_records([{"a": 2}], ["a"], str(path), fmt="xml")
    assert path.read_bytes() == b"a\n1\n"


# ------------------------------------------------------------------ save_csv

def savetxt_reference(data):
    """The bytes numpy's row-by-row writer gives for ``save_csv``'s layout."""
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack([data.y, data.x]), fmt="%.17g",
               delimiter=",", comments="",
               header=",".join(["y"] + [f"x{j + 1}" for j in range(data.d)]))
    return buf.getvalue()


REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**15, 10**15).map(float),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 2.2250738585072014e-308]),
)


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 14))
    cells = draw(st.lists(REALS, min_size=n * (d + 1), max_size=n * (d + 1)))
    table = np.array(cells).reshape(n, d + 1)
    return Dataset(table[:, 1:], table[:, 0])


@example(Dataset(np.array([[-0.0]]), np.array([5e-324])), 1)
@example(Dataset(np.array([[1.7976931348623157e308, -1.7976931348623157e308, 3.0]]),
                 np.array([-0.0])), 1)
@given(datasets(), st.integers(1, 3))
def test_save_csv_writes_savetxt_bytes_at_any_worker_count(tmp_path_factory, data,
                                                           rows):
    """Shares of ``rows`` rows, one per worker and round, so a body of more
    rows than workers runs several rounds; the bytes are numpy's and reload
    to the same bits."""
    path = tmp_path_factory.mktemp("save") / "d.csv"
    want = savetxt_reference(data)
    for workers in ("1", "2", "3"):
        with mock.patch.object(dataio, "_CHUNK", 192 * (data.d + 1) * rows), \
                mock.patch.object(dataio, "_WRITE_ROUND", 1), \
                mock.patch.dict(os.environ, {"ADAHUBER_THREADS": workers}):
            save_csv(data, str(path))
        assert path.read_bytes() == want, workers
    back = load_csv(str(path), "y")
    assert back.x.tobytes() == data.x.tobytes()
    assert back.y.tobytes() == data.y.tobytes()


@pytest.mark.parametrize("chunk,forked", [(1 << 20, []), (192 * 2 * 10, [1, 1, 1])],
                         ids=["one-share", "many-shares"])
def test_only_a_written_body_of_several_shares_forks(tmp_path, monkeypatch, forks,
                                                    chunk, forked):
    # many shares: ten of ten rows, four to a round of two workers, so three
    # rounds fork one child each while no other thread runs
    data = Dataset(np.arange(100.0)[:, None] ** 2, np.arange(100.0))
    path = tmp_path / "d.csv"
    monkeypatch.setenv("ADAHUBER_THREADS", "2")
    with mock.patch.object(dataio, "_CHUNK", chunk), \
            mock.patch.object(dataio, "_WRITE_ROUND", 2):
        save_csv(data, str(path))
    assert forks == forked
    assert path.read_bytes() == savetxt_reference(data)


def test_save_refuses_a_worker_count_below_one_before_opening(tmp_path, monkeypatch):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"y,x1\n1,2\n")
    monkeypatch.setenv("ADAHUBER_THREADS", "0")
    with pytest.raises(ValueError, match="threads must be at least 1"):
        save_csv(Dataset(np.ones((3, 1)), np.arange(3.0)), str(path))
    assert path.read_bytes() == b"y,x1\n1,2\n"
